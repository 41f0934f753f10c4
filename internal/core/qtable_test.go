package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestQTableInitAndShape(t *testing.T) {
	q := NewQTable(25, 19, -1)
	if q.States() != 25 || q.Actions() != 19 {
		t.Fatalf("shape %dx%d", q.States(), q.Actions())
	}
	for s := 0; s < 25; s++ {
		for a := 0; a < 19; a++ {
			if q.Q(s, a) != -1 {
				t.Fatalf("Q(%d,%d) = %v, want -1", s, a, q.Q(s, a))
			}
			if q.Visits(s, a) != 0 {
				t.Fatal("fresh table has visits")
			}
		}
	}
}

func TestQTableUpdateBellman(t *testing.T) {
	q := NewQTable(2, 2, 0)
	// Next state max is 0 everywhere; R=1, alpha=0.5:
	// Q = 0.5*0 + 0.5*(1 + 0.9*0) = 0.5
	q.Update(0, 0, 1, 1, 0.5, 0.9)
	if got := q.Q(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("after update Q = %v, want 0.5", got)
	}
	if q.Visits(0, 0) != 1 {
		t.Fatal("visit not counted")
	}
	// Raise next state's best value and update again:
	// Q = 0.5*0.5 + 0.5*(1 + 0.9*2) = 0.25 + 1.4 = 1.65
	q.Update(1, 1, 4, 0, 1.0, 0) // sets Q(1,1)=4 directly (alpha=1, no future)
	q.Update(0, 0, 1, 1, 0.5, 0.9)
	if got := q.Q(0, 0); math.Abs(got-(0.25+0.5*(1+0.9*4))) > 1e-12 {
		t.Fatalf("second update Q = %v", got)
	}
}

func TestQTableBestActionTieBreaksLow(t *testing.T) {
	q := NewQTable(1, 4, 0)
	if got := q.BestAction(0); got != 0 {
		t.Fatalf("all-equal tie broke to %d, want 0 (slowest OPP)", got)
	}
	q.Update(0, 2, 5, 0, 1, 0)
	if got := q.BestAction(0); got != 2 {
		t.Fatalf("BestAction = %d, want 2", got)
	}
}

func TestQTableGreedyPolicy(t *testing.T) {
	q := NewQTable(3, 3, 0)
	q.Update(0, 1, 1, 0, 1, 0)
	q.Update(1, 2, 1, 0, 1, 0)
	pol := q.GreedyPolicy()
	want := []int16{1, 2, 0}
	for i := range want {
		if pol[i] != want[i] {
			t.Fatalf("policy = %v, want %v", pol, want)
		}
	}
}

func TestQTableRowIsCopy(t *testing.T) {
	q := NewQTable(1, 2, 0)
	row := q.Row(0)
	row[0] = 99
	if q.Q(0, 0) == 99 {
		t.Fatal("Row returned a live reference")
	}
}

func TestQTablePanics(t *testing.T) {
	q := NewQTable(2, 2, 0)
	cases := []func(){
		func() { q.Q(-1, 0) },
		func() { q.Q(2, 0) },
		func() { q.Q(0, 2) },
		func() { q.MaxQ(5) },
		func() { NewQTable(0, 1, 0) },
		func() { NewQTable(1, 0, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d must panic", i)
				}
			}()
			f()
		}()
	}
}

func TestQTableSaveLoadRoundTrip(t *testing.T) {
	q := NewQTable(4, 3, -1)
	q.Update(1, 2, 0.7, 2, 0.5, 0.9)
	q.Update(3, 0, -0.2, 1, 0.5, 0.9)
	// Revisit one pair several times so the round-trip covers visit counts
	// beyond 0/1 — the visit-decayed learning rate depends on them.
	for i := 0; i < 7; i++ {
		q.Update(1, 2, 0.1*float64(i), 0, 0.5, 0.9)
	}
	if q.Visits(1, 2) != 8 {
		t.Fatalf("setup: Visits(1,2) = %d, want 8", q.Visits(1, 2))
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.States() != 4 || got.Actions() != 3 {
		t.Fatalf("loaded shape %dx%d", got.States(), got.Actions())
	}
	for s := 0; s < 4; s++ {
		for a := 0; a < 3; a++ {
			if got.Q(s, a) != q.Q(s, a) {
				t.Fatalf("Q(%d,%d) %v != %v", s, a, got.Q(s, a), q.Q(s, a))
			}
			if got.Visits(s, a) != q.Visits(s, a) {
				t.Fatalf("Visits(%d,%d) differ", s, a)
			}
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":        "hello",
		"size mismatch":   `{"states":2,"actions":2,"q":[1,2,3],"visits":[0,0,0]}`,
		"zero states":     `{"states":0,"actions":2,"q":[],"visits":[]}`,
		"visits mismatch": `{"states":1,"actions":2,"q":[1,2],"visits":[0]}`,
		"negative visits": `{"states":1,"actions":2,"q":[1,2],"visits":[0,-3]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%s) accepted", name)
		}
	}
}

// A NaN or ±Inf Q-value would poison every max/argmax computed from its
// row, silently corrupting the policy — Load must reject the whole table.
// JSON text cannot spell NaN, so the reachable vectors are out-of-range
// numbers (hand-edited files, other tools); the explicit finite check in
// UnmarshalJSON additionally guards any future decode path.
func TestLoadRejectsPoisonedQValues(t *testing.T) {
	cases := map[string]string{
		"+Inf": `{"states":1,"actions":2,"q":[1e999,1],"visits":[0,0]}`,
		"-Inf": `{"states":1,"actions":2,"q":[-1e999,1],"visits":[0,0]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%s) accepted a poisoned table", name)
		}
	}
}

// Property: with rewards bounded in [lo, hi] and discount γ < 1, Q-values
// remain bounded by the usual RL bound max(|init|, max(|lo|,|hi|)/(1−γ)).
func TestQValueBoundedProperty(t *testing.T) {
	f := func(seed int64, updates []uint16) bool {
		const (
			states, actions = 6, 5
			alpha, discount = 0.5, 0.9
			rLo, rHi        = -2.0, 1.0
			initQ           = -1.0
		)
		q := NewQTable(states, actions, initQ)
		bound := math.Max(math.Abs(initQ), math.Max(-rLo, rHi)/(1-discount)) + 1e-9
		x := uint64(seed)
		next := func(n int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int((x >> 33) % uint64(n))
		}
		for _, u := range updates {
			s, a, ns := next(states), next(actions), next(states)
			r := rLo + float64(u%1000)/999*(rHi-rLo)
			q.Update(s, a, r, ns, alpha, discount)
			if math.Abs(q.Q(s, a)) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
