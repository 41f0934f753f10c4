package core

import (
	"math"
	"testing"
	"testing/quick"
)

func calibratedSpace(t *testing.T) *StateSpace {
	t.Helper()
	s := NewStateSpace(5)
	if err := s.Calibrate([]float64{10e6, 20e6, 30e6, 40e6, 50e6}); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestStateSpaceShape(t *testing.T) {
	s := calibratedSpace(t)
	if s.NumStates() != 25 {
		t.Fatalf("NumStates = %d, want 25 (the paper's 5x5)", s.NumStates())
	}
	if !s.Calibrated() {
		t.Fatal("Calibrated() false after Calibrate")
	}
}

func TestStateSpacePanicsOnFewLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStateSpace(1) must panic")
		}
	}()
	NewStateSpace(1)
}

func TestCalibrateErrors(t *testing.T) {
	s := NewStateSpace(5)
	if err := s.Calibrate(nil); err == nil {
		t.Error("empty calibration accepted")
	}
	if err := s.Calibrate([]float64{0, 0, 0}); err == nil {
		t.Error("all-zero calibration accepted")
	}
	// Constant series: widened artificially, still usable.
	if err := s.Calibrate([]float64{5e6, 5e6}); err != nil {
		t.Errorf("constant calibration rejected: %v", err)
	}
	if !s.Calibrated() {
		t.Error("constant calibration left space uncalibrated")
	}
	if lvl := s.CCLevel(5e6); lvl < 0 || lvl >= 5 {
		t.Errorf("constant calibration level = %d", lvl)
	}
}

func TestCCLevelEdges(t *testing.T) {
	s := calibratedSpace(t)
	if got := s.CCLevel(0); got != 0 {
		t.Errorf("below range -> %d, want 0", got)
	}
	if got := s.CCLevel(1e12); got != 4 {
		t.Errorf("above range -> %d, want 4", got)
	}
	// monotone through the range
	prev := -1
	for cc := 0.0; cc <= 60e6; cc += 1e6 {
		l := s.CCLevel(cc)
		if l < prev {
			t.Fatalf("CCLevel not monotone at %g: %d after %d", cc, l, prev)
		}
		prev = l
	}
}

func TestSlackLevelRange(t *testing.T) {
	s := calibratedSpace(t)
	if got := s.SlackLevel(-10); got != 0 {
		t.Errorf("deep miss -> %d, want 0", got)
	}
	if got := s.SlackLevel(10); got != 4 {
		t.Errorf("huge slack -> %d, want 4", got)
	}
	if got := s.SlackLevel(0); got != 2 {
		t.Errorf("zero slack -> %d, want middle level 2", got)
	}
}

func TestStateIndexBijection(t *testing.T) {
	s := calibratedSpace(t)
	seen := map[int]bool{}
	for cc := 0; cc < 5; cc++ {
		for sl := 0; sl < 5; sl++ {
			idx := s.State(cc, sl)
			if idx < 0 || idx >= s.NumStates() {
				t.Fatalf("State(%d,%d) = %d out of range", cc, sl, idx)
			}
			if seen[idx] {
				t.Fatalf("State(%d,%d) = %d duplicates another pair", cc, sl, idx)
			}
			seen[idx] = true
		}
	}
}

func TestStatePanicsOutOfRange(t *testing.T) {
	s := calibratedSpace(t)
	defer func() {
		if recover() == nil {
			t.Fatal("State(5,0) must panic")
		}
	}()
	s.State(5, 0)
}

func TestUncalibratedQuantisePanics(t *testing.T) {
	s := NewStateSpace(5)
	defer func() {
		if recover() == nil {
			t.Fatal("CCLevel before calibration must panic")
		}
	}()
	s.CCLevel(1e6)
}

func TestNormalizeEq7(t *testing.T) {
	// Balanced: every core at 1.0.
	got := Normalize([]float64{10, 10, 10, 10})
	for _, v := range got {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("balanced normalise = %v", got)
		}
	}
	// Imbalanced: shares scale with demand, mean stays 1.
	got = Normalize([]float64{30, 10, 10, 10})
	if math.Abs(got[0]-2.0) > 1e-12 {
		t.Fatalf("hot core share = %v, want 2.0", got[0])
	}
	// Degenerate: all zeros.
	got = Normalize([]float64{0, 0})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("zero total normalise = %v", got)
	}
}

// Property: StateOf is total over arbitrary finite inputs once calibrated —
// never panics, always lands in [0, NumStates).
func TestStateOfTotalProperty(t *testing.T) {
	s := NewStateSpace(5)
	if err := s.Calibrate([]float64{1e6, 9e7}); err != nil {
		t.Fatal(err)
	}
	f := func(cc float64, slack float64) bool {
		if math.IsNaN(cc) || math.IsNaN(slack) {
			return true // NaN workloads cannot occur (cycles are uint64)
		}
		idx := s.StateOf(cc, slack)
		return idx >= 0 && idx < s.NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. 7 normalisation sums to the core count (mean share 1).
func TestNormalizeSumProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			in[i] = float64(v)
			total += in[i]
		}
		out := Normalize(in)
		if total == 0 {
			for _, v := range out {
				if v != 0 {
					return false
				}
			}
			return true
		}
		var sum float64
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-float64(len(raw))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
