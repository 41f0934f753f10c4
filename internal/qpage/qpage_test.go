package qpage

import (
	"encoding/json"
	"sync"
	"testing"
)

func poolEmpty(t *testing.T, p *Pool) {
	t.Helper()
	pages, bytes, _ := p.Stats()
	if pages != 0 || bytes != 0 {
		t.Fatalf("pool not empty: %d pages, %d bytes", pages, bytes)
	}
}

func TestNewSharedDedupsToOnePage(t *testing.T) {
	p := NewPool()
	a := p.NewShared(25, 19, -1)
	b := p.NewShared(25, 19, -1)
	pages, bytes, _ := p.Stats()
	if pages != 1 {
		t.Fatalf("two identical cold tables interned %d distinct pages, want 1", pages)
	}
	if want := int64(PageRows * 19 * (8 + 4)); bytes != want { // 8 B values + 4 B visits
		t.Fatalf("shared bytes %d, want %d", bytes, want)
	}
	if a.SharedPages() != numPages(25) || b.SharedPages() != numPages(25) {
		t.Fatalf("shared page counts %d/%d, want %d", a.SharedPages(), b.SharedPages(), numPages(25))
	}
	a.Release()
	b.Release()
	poolEmpty(t, p)
}

func TestCOWFaultIsolatesWriter(t *testing.T) {
	p := NewPool()
	a := p.NewShared(8, 3, 0.5)
	b := a.Clone()
	q, v := a.MutRow(1)
	q[2] = 9
	v[2] = 1
	if got := b.Row(1)[2]; got != 0.5 {
		t.Fatalf("write through A leaked into B: %v", got)
	}
	if got := a.Row(1)[2]; got != 9 {
		t.Fatalf("A does not see its own write: %v", got)
	}
	if got := a.VRow(1)[2]; got != 1 {
		t.Fatalf("A visit write lost: %d", got)
	}
	// The fault must have carried the page's untouched prior content —
	// both the other columns of the written row and every other row.
	if got := a.Row(1)[0]; got != 0.5 {
		t.Fatalf("fault lost untouched content on the faulted page: %v", got)
	}
	if got := a.Row(0)[0]; got != 0.5 {
		t.Fatalf("fault disturbed an unwritten row: %v", got)
	}
	_, _, faults := p.Stats()
	if faults != 1 {
		t.Fatalf("fault counter %d, want 1", faults)
	}
	// Faulting again on the now-owned page is free.
	a.MutRow(1)
	if _, _, f := p.Stats(); f != 1 {
		t.Fatalf("owned-page MutRow counted a fault: %d", f)
	}
	a.Release()
	b.Release()
	poolEmpty(t, p)
}

func TestInternDedupsByContent(t *testing.T) {
	p := NewPool()
	q := make([]float64, 8*3)
	v := make([]int, 8*3)
	for i := range q {
		q[i] = float64(i) * 0.25
		v[i] = i
	}
	a := FromFlat(8, 3, q, v)
	b := FromFlat(8, 3, q, v)
	a.Intern(p)
	b.Intern(p)
	pages, _, _ := p.Stats()
	if want := int64(numPages(8)); pages != want {
		t.Fatalf("two identical tables interned %d distinct pages, want %d", pages, want)
	}
	// Intern is idempotent.
	a.Intern(p)
	if pg, _, _ := p.Stats(); pg != pages {
		t.Fatalf("re-intern changed page count %d -> %d", pages, pg)
	}
	a.Release()
	b.Release()
	poolEmpty(t, p)
}

func TestFlatRoundTrip(t *testing.T) {
	const rows, cols = 7, 5 // exercises the last-page tail when PageRows > 1
	q := make([]float64, rows*cols)
	v := make([]int, rows*cols)
	for i := range q {
		q[i] = float64(i)*1.5 - 3
		v[i] = i % 4
	}
	tab := FromFlat(rows, cols, q, v)
	p := NewPool()
	tab.Intern(p)
	cl := tab.Clone()
	qb, err := cl.AppendQ(nil)
	if err != nil {
		t.Fatal(err)
	}
	var fq []float64
	var fv []int
	if err := json.Unmarshal(qb, &fq); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cl.AppendV(nil), &fv); err != nil {
		t.Fatal(err)
	}
	if len(fq) != len(q) || len(fv) != len(v) {
		t.Fatalf("flat round trip has %d values, %d visits, want %d", len(fq), len(fv), len(q))
	}
	for i := range q {
		if fq[i] != q[i] || fv[i] != v[i] {
			t.Fatalf("flat round trip diverged at %d: %v/%d vs %v/%d", i, fq[i], fv[i], q[i], v[i])
		}
	}
	tab.Release()
	cl.Release()
	poolEmpty(t, p)
}

func TestUseAfterReleasePanics(t *testing.T) {
	p := NewPool()
	tab := p.NewShared(4, 2, 0)
	tab.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("reading a released table did not panic")
		}
	}()
	_ = tab.Row(0)
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	a := p.NewShared(4, 2, 0)
	b := a.Clone()
	a.Release()
	a.Release() // poisoned pages: second release is a no-op, not a refs underflow
	b.Release()
	poolEmpty(t, p)
	// A genuine refs underflow (two tables racing to release the same page
	// reference) is covered by the pool's panic; simulate it directly.
	c := p.NewShared(4, 2, 0)
	pg := c.pages[0]
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("refs underflow did not panic")
		}
	}()
	p.release(pg)
}

// TestConcurrentCloneFaultRelease hammers one shared base from many
// goroutines — clone, read, write (faulting), release — under -race.
func TestConcurrentCloneFaultRelease(t *testing.T) {
	p := NewPool()
	base := p.NewShared(25, 19, -1)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tab := base.Clone()
				if got := tab.Row(w % 25)[w%19]; got != -1 {
					panic("clone saw torn base content")
				}
				q, v := tab.MutRow((w + i) % 25)
				q[0] = float64(w)
				v[0]++
				tab.Release()
			}
		}(w)
	}
	wg.Wait()
	// The base must be untouched by every write above.
	for r := 0; r < 25; r++ {
		for c, got := range base.Row(r) {
			if got != -1 {
				t.Fatalf("base mutated at (%d,%d): %v", r, c, got)
			}
		}
		for c, got := range base.VRow(r) {
			if got != 0 {
				t.Fatalf("base visits mutated at (%d,%d): %d", r, c, got)
			}
		}
	}
	base.Release()
	poolEmpty(t, p)
}
