// Package core implements the paper's contribution: a Q-learning run-time
// manager (RTM) that selects per-epoch voltage-frequency settings from a
// predicted workload state to meet an application's per-frame deadline at
// minimum energy.
//
// The pieces map to the paper as follows:
//
//	StateSpace       — Section II-A: predicted cycle count × average slack
//	                   ratio, each discretised into N levels (N = 5)
//	QTable           — Section II-A/B: the look-up table over state-action
//	                   pairs, updated with Bellman's equation (Eq. 3)
//	ExponentialPolicy— Section II-B: EPD action selection (Eq. 2)
//	UniformPolicy    — the conventional UPD selection of ref [21], kept as
//	                   the Table II baseline
//	SlackTracker     — Eq. 5: the average slack ratio L
//	Reward           — Eq. 4: R = a·L + b·ΔL (shaped; see reward.go)
//	EpsilonSchedule  — Eq. 6: exponentially decaying exploration (each
//	                   learner's position on it is an EpsilonState)
//	RTM              — Section II: the governor tying it together
//	Normalize        — Eq. 7: per-core workload normalisation for the
//	                   many-core shared-table formulation
package core

import (
	"fmt"

	"qgov/internal/stats"
)

// StateSpace discretises the two state variables of Section II-A — the
// predicted workload (CPU cycle count) and the current performance (average
// slack ratio L) — into N levels each, yielding N² Q-table rows.
//
// The workload range comes from pre-characterisation ("design space
// exploration" in the paper): Calibrate scans a trace the way the authors
// profiled their applications. Out-of-range values clamp to the edge
// levels, so an uncalibrated or drifting workload degrades gracefully
// instead of faulting.
type StateSpace struct {
	Levels   int     // N; the paper uses 5
	CCMin    float64 // lower edge of the workload range (cycles)
	CCMax    float64 // upper edge of the workload range (cycles)
	SlackMin float64 // lower edge of the slack-ratio range
	SlackMax float64 // upper edge of the slack-ratio range
}

// NewStateSpace returns a space with the paper's defaults: N = 5 and a
// slack-ratio range of [-0.5, 0.5] (a frame overrunning its deadline by
// more than 50 % and one finishing more than 50 % early carry no extra
// information for V-F selection). The workload range must be set by
// Calibrate or by hand before use. It is a value: learners hold their
// state space inline.
func NewStateSpace(levels int) StateSpace {
	if levels < 2 {
		panic(fmt.Sprintf("core: state space needs at least 2 levels, got %d", levels))
	}
	return StateSpace{
		Levels:   levels,
		SlackMin: -0.5,
		SlackMax: 0.5,
	}
}

// Calibrate sets the workload range from a pre-characterisation series of
// per-epoch cycle counts, with a small margin so the common case does not
// sit exactly on the clamp. It returns an error on an empty or degenerate
// series.
func (s *StateSpace) Calibrate(cycleCounts []float64) error {
	if len(cycleCounts) == 0 {
		return fmt.Errorf("core: calibration series is empty")
	}
	lo, hi := stats.Min(cycleCounts), stats.Max(cycleCounts)
	if !(hi > lo) {
		// A constant workload still needs a non-empty range to quantise;
		// widen it artificially around the constant.
		lo, hi = lo*0.9, hi*1.1
		if !(hi > lo) { // all zeros
			return fmt.Errorf("core: calibration series is degenerate (all %v)", lo)
		}
	}
	margin := 0.05 * (hi - lo)
	s.CCMin = lo - margin
	if s.CCMin < 0 {
		s.CCMin = 0
	}
	s.CCMax = hi + margin
	return nil
}

// Calibrated reports whether a usable workload range is set.
func (s *StateSpace) Calibrated() bool { return s.CCMax > s.CCMin }

// NumStates returns the number of Q-table rows, |S| = N².
func (s *StateSpace) NumStates() int { return s.Levels * s.Levels }

// CCLevel quantises a cycle count into [0, Levels).
func (s *StateSpace) CCLevel(cc float64) int {
	return s.quantise(cc, s.CCMin, s.CCMax)
}

// SlackLevel quantises an average slack ratio into [0, Levels).
func (s *StateSpace) SlackLevel(l float64) int {
	return s.quantise(l, s.SlackMin, s.SlackMax)
}

// State combines the two levels into a Q-table row index.
func (s *StateSpace) State(ccLevel, slackLevel int) int {
	if ccLevel < 0 || ccLevel >= s.Levels || slackLevel < 0 || slackLevel >= s.Levels {
		panic(fmt.Sprintf("core: state (%d,%d) outside %d levels", ccLevel, slackLevel, s.Levels))
	}
	return ccLevel*s.Levels + slackLevel
}

// StateOf maps raw observations straight to a row index.
func (s *StateSpace) StateOf(cc, slack float64) int {
	return s.State(s.CCLevel(cc), s.SlackLevel(slack))
}

func (s *StateSpace) quantise(x, lo, hi float64) int {
	if !(hi > lo) {
		panic("core: state space used before calibration")
	}
	if x <= lo {
		return 0
	}
	if x >= hi {
		return s.Levels - 1
	}
	l := int((x - lo) / (hi - lo) * float64(s.Levels))
	if l == s.Levels { // top-edge rounding
		l--
	}
	return l
}

// Normalize implements Eq. 7: the predicted workload of each core divided
// by the cluster total, scaled by the core count so a perfectly balanced
// workload maps to 1.0 on every core. A zero total returns all zeros.
func Normalize(predCC []float64) []float64 {
	out := make([]float64, len(predCC))
	var total float64
	for _, v := range predCC {
		total += v
	}
	if total <= 0 {
		return out
	}
	c := float64(len(predCC))
	for i, v := range predCC {
		out[i] = v / total * c
	}
	return out
}
