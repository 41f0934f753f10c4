package ring_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"qgov/internal/ring"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cluster-%d", i)
	}
	return out
}

// Placement must be a pure function of the member set: insertion order,
// incremental Adds, and the goroutine computing the lookup must all be
// invisible. Concurrent readers across GOMAXPROCS workers must agree
// with a serial oracle (run under -race this also proves Owner is a
// read-only operation).
func TestDeterministicPlacement(t *testing.T) {
	members := []string{"replica-a", "replica-b", "replica-c", "replica-d"}
	ks := keys(5000)

	oracle := ring.New(0, members...)
	want := make(map[string]string, len(ks))
	for _, k := range ks {
		o, ok := oracle.Owner(k)
		if !ok {
			t.Fatal("owner lookup failed on a populated ring")
		}
		want[k] = o
	}

	// Same members, different construction histories.
	permuted := ring.New(0, "replica-d", "replica-b", "replica-a", "replica-c")
	grown := ring.New(0, "replica-c")
	for _, m := range []string{"replica-a", "replica-d", "replica-b"} {
		grown.Add(m)
	}
	for _, r := range []*ring.Ring{permuted, grown} {
		for _, k := range ks {
			if o, _ := r.Owner(k); o != want[k] {
				t.Fatalf("placement of %q depends on construction history: %q vs %q", k, o, want[k])
			}
		}
	}

	// Concurrent lookups from every processor agree with the oracle.
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ks); i += workers {
				if o, _ := oracle.Owner(ks[i]); o != want[ks[i]] {
					errs <- fmt.Errorf("worker %d: %q placed on %q, want %q", w, ks[i], o, want[ks[i]])
					return
				}
				if o, _ := oracle.OwnerBytes([]byte(ks[i])); o != want[ks[i]] {
					errs <- fmt.Errorf("worker %d: byte lookup of %q diverged", w, ks[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Removing one of N members (a fleet restarted over the other N-1) must
// reassign only that member's keys — no key may move between two
// survivors — and the departed member's share must be under 2/N of all
// keys (the virtual nodes keep shares near 1/N).
func TestBoundedMovementOnRemove(t *testing.T) {
	for _, n := range []int{3, 4, 8} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			members := make([]string, n)
			for i := range members {
				members[i] = fmt.Sprintf("replica-%d", i)
			}
			ks := keys(20000)
			r := ring.New(0, members...)
			before := make(map[string]string, len(ks))
			for _, k := range ks {
				before[k], _ = r.Owner(k)
			}

			leaving := members[1]
			r = ring.New(0, append(members[:1:1], members[2:]...)...)
			moved := 0
			for _, k := range ks {
				after, ok := r.Owner(k)
				if !ok {
					t.Fatal("owner lookup failed after removal")
				}
				if before[k] == leaving {
					moved++
					if after == leaving {
						t.Fatalf("%q still owned by the departed member", k)
					}
					continue
				}
				if after != before[k] {
					t.Fatalf("%q moved between survivors: %q → %q", k, before[k], after)
				}
			}
			bound := 2 * len(ks) / n
			if moved >= bound {
				t.Errorf("%d of %d keys moved when 1 of %d members left; bound is %d (< 2/N)",
					moved, len(ks), n, bound)
			}
			if moved == 0 {
				t.Error("no keys moved; the departed member owned nothing")
			}
		})
	}
}

// Adding a member steals keys only for itself: every key either keeps
// its owner or lands on the newcomer.
func TestAddStealsOnlyForItself(t *testing.T) {
	r := ring.New(0, "replica-0", "replica-1", "replica-2")
	ks := keys(10000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k], _ = r.Owner(k)
	}
	if !r.Add("replica-3") {
		t.Fatal("Add reported duplicate")
	}
	stolen := 0
	for _, k := range ks {
		after, _ := r.Owner(k)
		if after != before[k] {
			if after != "replica-3" {
				t.Fatalf("%q moved between incumbents: %q → %q", k, before[k], after)
			}
			stolen++
		}
	}
	if stolen == 0 {
		t.Error("newcomer owns no keys")
	}
	if stolen >= 2*len(ks)/4 {
		t.Errorf("newcomer stole %d of %d keys; expected near 1/4", stolen, len(ks))
	}
}

// Every member must hold a non-trivial share — virtual nodes are what
// keeps the max/min owner ratio bounded.
func TestShareBalance(t *testing.T) {
	members := []string{"a", "b", "c", "d", "e"}
	r := ring.New(0, members...)
	counts := make(map[string]int)
	rng := rand.New(rand.NewSource(42))
	const total = 50000
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("s-%d-%d", rng.Int63(), i)
		o, _ := r.Owner(k)
		counts[o]++
	}
	ideal := total / len(members)
	for _, m := range members {
		if counts[m] < ideal/2 || counts[m] > 2*ideal {
			t.Errorf("member %s owns %d keys, ideal %d (outside [1/2, 2]× band)", m, counts[m], ideal)
		}
	}
}

func TestEmptyAndMembership(t *testing.T) {
	r := ring.New(16)
	if _, ok := r.Owner("k"); ok {
		t.Error("empty ring returned an owner")
	}
	if r.Len() != 0 {
		t.Errorf("empty ring Len = %d", r.Len())
	}
	if !r.Add("only") || r.Add("only") {
		t.Error("Add duplicate handling broken")
	}
	if o, ok := r.Owner("anything"); !ok || o != "only" {
		t.Errorf("single-member ring placed on %q", o)
	}
	got := r.Members()
	if len(got) != 1 || got[0] != "only" {
		t.Errorf("Members = %v", got)
	}
	if !r.Has("only") || r.Has("ghost") {
		t.Error("Has membership broken")
	}
}
