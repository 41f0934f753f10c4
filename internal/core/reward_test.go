package core

import (
	"math"
	"testing"
	"testing/quick"

	"qgov/internal/stats"
)

func TestSlackTrackerWindowed(t *testing.T) {
	tr := NewSlackTracker(2)
	// Frame takes 30ms against 40ms: ratio 0.25.
	if got := tr.Observe(0.030, 0.040); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("L = %v, want 0.25", got)
	}
	// Second: 40ms exactly, ratio 0 -> window mean 0.125.
	if got := tr.Observe(0.040, 0.040); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("L = %v, want 0.125", got)
	}
	// Third: 50ms (miss, ratio -0.25) -> window of last two = (0-0.25)/2.
	if got := tr.Observe(0.050, 0.040); math.Abs(got-(-0.125)) > 1e-12 {
		t.Fatalf("L = %v, want -0.125", got)
	}
	if got := tr.DeltaL(); math.Abs(got-(-0.25)) > 1e-12 {
		t.Fatalf("ΔL = %v, want -0.25", got)
	}
}

func TestSlackTrackerCumulative(t *testing.T) {
	tr := NewSlackTracker(0)
	tr.Observe(0.030, 0.040) // 0.25
	tr.Observe(0.040, 0.040) // 0
	tr.Observe(0.020, 0.040) // 0.5
	if got := tr.L(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("cumulative L = %v, want 0.25", got)
	}
}

func TestSlackTrackerReset(t *testing.T) {
	tr := NewSlackTracker(4)
	tr.Observe(0.030, 0.040)
	tr.Reset()
	if tr.L() != 0 || tr.DeltaL() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestSlackTrackerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative window must panic")
		}
	}()
	NewSlackTracker(-1)
}

func TestSlackTrackerZeroRefPanics(t *testing.T) {
	tr := NewSlackTracker(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero Tref must panic")
		}
	}()
	tr.Observe(0.01, 0)
}

func TestRewardPeaksAtTarget(t *testing.T) {
	r := NewReward()
	atTarget := r.Score(r.Target, 0, r.Target)
	missed := r.Score(-0.1, 0, -0.1)
	wasteful := r.Score(0.4, 0, 0.4)
	if !(atTarget > missed) {
		t.Fatalf("target %v not above miss %v", atTarget, missed)
	}
	if !(atTarget > wasteful) {
		t.Fatalf("target %v not above wasteful slack %v", atTarget, wasteful)
	}
}

func TestRewardMissAsymmetry(t *testing.T) {
	// A frame overrunning its deadline by x must hurt more than one
	// finishing x early: dropped frames degrade user experience; idle
	// slack only burns energy.
	r := NewReward()
	miss := r.Score(r.Target-0.2, 0, r.Target-0.2)
	over := r.Score(r.Target+0.2, 0, r.Target+0.2)
	if !(miss < over) {
		t.Fatalf("miss %v not punished harder than over-slack %v", miss, over)
	}
}

func TestRewardInstantaneousMissTerm(t *testing.T) {
	// The window-gaming scenario that motivated the term: average slack
	// lands exactly on target, but the epoch itself blew its deadline.
	// That epoch must score clearly worse than one that also lands the
	// average on target while meeting its own deadline.
	r := NewReward()
	gamed := r.Score(r.Target, -0.05, -0.9) // deep miss folded into a nice average
	honest := r.Score(r.Target, -0.05, 0.1)
	if !(gamed < honest-1.0) {
		t.Fatalf("deep per-frame miss not punished: gamed=%v honest=%v", gamed, honest)
	}
}

func TestRewardDeltaTermDirection(t *testing.T) {
	r := NewReward()
	// Above target: shrinking slack (ΔL < 0) is an improvement.
	improving := r.Score(0.3, -0.05, 0.3)
	worsening := r.Score(0.3, +0.05, 0.3)
	if !(improving > worsening) {
		t.Fatalf("above target: improvement %v not above worsening %v", improving, worsening)
	}
	// Below target (missing): growing slack is an improvement.
	improving = r.Score(-0.2, +0.05, -0.2)
	worsening = r.Score(-0.2, -0.05, -0.2)
	if !(improving > worsening) {
		t.Fatalf("below target: improvement %v not above worsening %v", improving, worsening)
	}
}

// Property: reward is maximal exactly at (L=target, ΔL favourable) and
// decreases monotonically with |L − target| on either side.
func TestRewardMonotoneProperty(t *testing.T) {
	r := NewReward()
	f := func(rawA, rawB uint16) bool {
		// two points on the same side of the target
		a := float64(rawA%1000)/1000*0.5 + r.Target
		b := float64(rawB%1000)/1000*0.5 + r.Target
		if a > b {
			a, b = b, a
		}
		if !(r.Score(a, 0, a) >= r.Score(b, 0, b)-1e-12) {
			return false
		}
		// mirrored below target, inside the miss region
		am := r.Target - (a - r.Target) - 0.2
		bm := r.Target - (b - r.Target) - 0.2
		return r.Score(bm, 0, bm) <= r.Score(am, 0, am)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the windowed tracker's L is always within the min/max of the
// ratios it has seen (convexity), for any positive inputs.
func TestSlackTrackerHullProperty(t *testing.T) {
	f := func(execs []uint16, rawWindow uint8) bool {
		window := int(rawWindow % 30)
		tr := NewSlackTracker(window)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range execs {
			exec := float64(e%100)/1000 + 0.001 // 1..101 ms
			ratio := (0.040 - exec) / 0.040
			if ratio < lo {
				lo = ratio
			}
			if ratio > hi {
				hi = ratio
			}
			l := tr.Observe(exec, 0.040)
			if l < lo-1e-9 || l > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The windowed tracker's L is bit-for-bit stats.Mean over the last Window
// ratios held as one slice, oldest first: the ring must keep the Kahan
// summation's order, or decisions drift.
func TestSlackTrackerRingMatchesSliceMean(t *testing.T) {
	for _, window := range []int{1, 2, 15} {
		tr := NewSlackTracker(window)
		var ratios []float64
		for i := range 200 {
			exec := 0.020 + 0.000731*float64((i*37)%41) // 20..49 ms
			ratios = append(ratios, (0.040-exec)/0.040)
			if len(ratios) > window {
				ratios = ratios[1:]
			}
			if got, want := tr.Observe(exec, 0.040), stats.Mean(ratios); got != want {
				t.Fatalf("window %d, epoch %d: L = %v, slice mean %v", window, i, got, want)
			}
		}
	}
}
