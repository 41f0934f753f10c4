package core

import (
	"fmt"
	"math"

	"qgov/internal/xrand"
)

// ExplorationPolicy chooses an exploratory action given the measured
// average slack ratio. The two implementations are the paper's EPD (Eq. 2)
// and the conventional uniform selection of ref [21]; Table II measures the
// difference between them.
type ExplorationPolicy interface {
	// Name identifies the policy in tables.
	Name() string
	// Sample draws an action index in [0, actions) for a state with the
	// given slack. normFreq holds each action's position on the frequency
	// ladder normalised to [0, 1] (0 = slowest, 1 = fastest), precomputed
	// once per run (platform.OPPTable.NormFreqs) so sampling sits on the
	// decision hot path without allocating or re-deriving the ladder.
	Sample(rng *xrand.Rand, actions int, slack float64, normFreq []float64) int
}

// UniformPolicy is the uniform probability distribution (UPD) used by
// conventional RL power managers: every action equally likely.
type UniformPolicy struct{}

// Name implements ExplorationPolicy.
func (UniformPolicy) Name() string { return "upd" }

// Sample implements ExplorationPolicy.
func (UniformPolicy) Sample(rng *xrand.Rand, actions int, _ float64, _ []float64) int {
	return rng.Intn(actions)
}

// ExponentialPolicy is the paper's discrete Exponential Probability
// Distribution (Eq. 2): the probability of exploring action a decays
// exponentially in the product of the action's frequency and the measured
// slack,
//
//	p(a) ∝ λ · exp(−β · L · F̂(a))
//
// with F̂ the frequency normalised to [0,1]. The intuition it encodes:
// with slack in hand (L > 0) the useful experiments are the slower V-F
// points; behind the deadline (L < 0) they are the faster ones; at L ≈ 0
// the distribution flattens toward uniform (the λ term), as the paper
// notes. This steers the exploration budget toward actions that can
// plausibly improve the pay-off, which is why it needs fewer explorations
// than UPD (Table II).
type ExponentialPolicy struct {
	// Beta scales how sharply slack tilts the distribution. 0 degenerates
	// to uniform.
	Beta float64
	// Lambda is the uniform mixing floor: every action keeps at least a
	// λ-proportional chance, so no V-F point is ever starved.
	Lambda float64
}

// NewExponentialPolicy returns the policy with the constants used in the
// experiments (β = 12, λ = 0.06). The sharpness matters in both directions:
// β must be large enough that typical slack magnitudes (|L| ≈ 0.1–0.3)
// visibly tilt the distribution — otherwise EPD degenerates to uniform and
// its Table II advantage vanishes — while λ keeps every operating point
// reachable so a mis-ranked action can still be corrected (the A1 ablation
// sweeps β).
func NewExponentialPolicy() *ExponentialPolicy {
	return &ExponentialPolicy{Beta: 12, Lambda: 0.06}
}

// Name implements ExplorationPolicy.
func (p *ExponentialPolicy) Name() string { return "epd" }

// Weights returns the normalised selection probabilities for inspection
// and testing. It panics on a non-positive action count.
func (p *ExponentialPolicy) Weights(actions int, slack float64, normFreq []float64) []float64 {
	if actions < 1 {
		panic(fmt.Sprintf("core: EPD over %d actions", actions))
	}
	w := make([]float64, actions)
	var sum float64
	for a := range w {
		w[a] = p.weight(slack, normFreq[a])
		sum += w[a]
	}
	for a := range w {
		w[a] /= sum
	}
	return w
}

func (p *ExponentialPolicy) weight(slack, nf float64) float64 {
	return p.Lambda + math.Exp(-p.Beta*slack*nf)
}

// Sample implements ExplorationPolicy by inverse-CDF sampling of the Eq. 2
// distribution. It draws in two passes over the unnormalised weights —
// total mass first, then the accumulation to the threshold — so the hot
// path allocates nothing.
func (p *ExponentialPolicy) Sample(rng *xrand.Rand, actions int, slack float64, normFreq []float64) int {
	if actions < 1 {
		panic(fmt.Sprintf("core: EPD over %d actions", actions))
	}
	var sum float64
	for a := 0; a < actions; a++ {
		sum += p.weight(slack, normFreq[a])
	}
	u := rng.Float64() * sum
	acc := 0.0
	for a := 0; a < actions; a++ {
		acc += p.weight(slack, normFreq[a])
		if u < acc {
			return a
		}
	}
	return actions - 1 // guard against FP shortfall in the CDF
}

// EpsilonSchedule is the exploration/exploitation switch of Section II-C
// (Eq. 6): the probability ε of taking an exploratory action decays
// exponentially with the epoch index, and the decay accelerates once
// learning has visibly stopped moving — the paper's "to accelerate the
// process of exploitation". Two acceleration signals feed the boost:
// the greedy policy holding still (the convergence tracker's quiet
// window) and the measured slack sitting inside the stable band around
// the target. Tying exploration to learning progress is what lets an
// exploration policy that learns faster also *stop exploring* sooner —
// the Table II effect.
//
// A schedule holds only the curve's parameters and is never written
// while learners run, so one schedule serves any number of them. Each
// learner keeps its own position on the curve in an EpsilonState.
type EpsilonSchedule struct {
	// Epsilon0 is the initial exploration probability.
	Epsilon0 float64
	// HoldEpochs keeps ε at ε₀ for an initial learning phase before the
	// exponential decay starts. The paper's Fig. 3 narrative — a distinct
	// exploration phase over the first frames, exploitation after — is a
	// hold-then-decay shape, not a slow exponential from epoch zero.
	HoldEpochs int
	// Decay is the per-epoch exponential decay constant after the hold,
	// the paper's (1−α) learning-factor term.
	Decay float64
	// BoostDecay is the extra decay applied while the greedy policy is
	// quiet (no flips beyond tolerance in the tracker window).
	BoostDecay float64
	// BandBoost is the extra decay applied on epochs whose slack error is
	// within StableBand of the target.
	BandBoost float64
	// StableBand is the |slack − target| threshold for BandBoost.
	StableBand float64
}

// NewEpsilonSchedule returns the schedule used in the experiments: hold
// for 110 epochs, then a sharp handover to exploitation.
func NewEpsilonSchedule() *EpsilonSchedule {
	return &EpsilonSchedule{
		Epsilon0:   0.9,
		HoldEpochs: 110,
		Decay:      0.040,
		BoostDecay: 0.010,
		BandBoost:  0.004,
		StableBand: 0.15,
	}
}

// Start returns the position at the start of the schedule: ε₀ at epoch
// zero.
func (s *EpsilonSchedule) Start() EpsilonState { return EpsilonState{eps: s.Epsilon0} }

// EpsilonState is one learner's position on an EpsilonSchedule: the
// current ε and the number of epochs advanced since Start. A checkpoint
// records both, so a warm-started learner resumes exploitation where the
// training run left off instead of re-paying the hold-then-decay
// exploration phase.
type EpsilonState struct {
	eps   float64
	epoch int
}

// Epsilon returns the current exploration probability.
func (e *EpsilonState) Epsilon() float64 { return e.eps }

// Epoch returns the number of Advance calls since Start — the position on
// the decay curve.
func (e *EpsilonState) Epoch() int { return e.epoch }

// Advance decays ε by one epoch of schedule s given the epoch's slack
// error and whether the greedy policy is currently quiet.
func (e *EpsilonState) Advance(s *EpsilonSchedule, slackError float64, quiet bool) {
	e.epoch++
	if e.epoch <= s.HoldEpochs {
		return
	}
	d := s.Decay
	if quiet {
		d += s.BoostDecay
	}
	if math.Abs(slackError) <= s.StableBand {
		d += s.BandBoost
	}
	e.eps *= math.Exp(-d)
}
