package sessionstore_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"qgov/internal/sessionstore"
)

// After a delete storm the store must still serve its survivors: the map
// rebuild may not lose, duplicate, or corrupt entries.
func TestShardedShrinkKeepsSurvivors(t *testing.T) {
	s := sessionstore.NewSharded[int](1) // one shard: thresholds are exact
	const peak = 20000
	for i := 0; i < peak; i++ {
		if !s.Put(fmt.Sprintf("sess-%d", i), i) {
			t.Fatalf("Put sess-%d refused", i)
		}
	}
	// Storm: delete all but every 20th entry, driving occupancy to 5% of
	// the high-water mark — far below the rebuild threshold.
	for i := 0; i < peak; i++ {
		if i%20 == 0 {
			continue
		}
		if _, ok := s.Delete(fmt.Sprintf("sess-%d", i)); !ok {
			t.Fatalf("Delete sess-%d missed", i)
		}
	}
	if got, want := s.Len(), peak/20; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for i := 0; i < peak; i += 20 {
		v, ok := s.Get(fmt.Sprintf("sess-%d", i))
		if !ok || v != i {
			t.Fatalf("Get sess-%d = %d,%v after shrink, want %d,true", i, v, ok, i)
		}
	}
	// Survivors must be deletable and their ids re-usable.
	if _, ok := s.Delete("sess-0"); !ok {
		t.Fatal("Delete sess-0 missed after shrink")
	}
	if !s.Put("sess-0", -1) {
		t.Fatal("Put of recycled id refused after shrink")
	}
}

// retainedAfter reports the heap retained by the value built by build,
// measured across forced GCs so transient garbage does not count.
func retainedAfter(build func() any) uint64 {
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// The actual bug: Go maps never release bucket arrays, so without the
// rebuild a store that peaked at 200k sessions retains peak-sized memory
// after a 97% delete storm. The fix must recover most of it; the baseline
// is a plain Go map put through the same churn.
func TestShardedShrinkReleasesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement in -short mode")
	}
	const peak = 200000
	churn := func(put func(string, [8]int64), del func(string)) {
		for i := 0; i < peak; i++ {
			put(fmt.Sprintf("soak-session-%d", i), [8]int64{int64(i)})
		}
		for i := 0; i < peak; i++ {
			if i%32 != 0 {
				del(fmt.Sprintf("soak-session-%d", i))
			}
		}
	}
	baseline := retainedAfter(func() any {
		m := make(map[string][8]int64)
		churn(func(id string, v [8]int64) { m[id] = v }, func(id string) { delete(m, id) })
		return m
	})
	fixed := retainedAfter(func() any {
		s := sessionstore.NewSharded[[8]int64](0)
		churn(func(id string, v [8]int64) { s.Put(id, v) }, func(id string) { s.Delete(id) })
		return s
	})
	t.Logf("retained after storm: baseline=%d B, shrink=%d B", baseline, fixed)
	// The baseline holds buckets for 200k entries, the shrunk store for
	// ~6.25k. Demand a conservative 2x margin to stay robust against
	// allocator noise.
	if fixed*2 >= baseline {
		t.Fatalf("shrink retained %d B, baseline %d B: map rebuild is not releasing storm memory", fixed, baseline)
	}
}

// Shrink must be invisible to concurrent readers and writers: a churn of
// put/delete/get/range across goroutines, run under -race in CI.
func TestShardedShrinkConcurrentChurn(t *testing.T) {
	s := sessionstore.NewSharded[int](4)
	const (
		workers = 8
		rounds  = 25
		span    = 600 // enough per-shard peak to cross shrinkMinHiWater
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < span; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					s.Put(id, i)
				}
				for i := 0; i < span; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					if v, ok := s.Get(id); ok && v != i {
						t.Errorf("Get %s = %d, want %d", id, v, i)
						return
					}
				}
				for i := 0; i < span; i++ {
					s.Delete(fmt.Sprintf("w%d-%d", w, i))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var ranger sync.WaitGroup
	ranger.Add(1)
	go func() {
		defer ranger.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			s.Range(func(string, int) bool { n++; return n < 100 })
			_ = s.Len()
		}
	}()
	wg.Wait()
	close(stop)
	ranger.Wait()
}
