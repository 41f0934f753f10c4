package core

import (
	"math"
	"testing"

	"qgov/internal/xrand"
	"testing/quick"
)

// linNorm mimics an OPP table's normalised frequency axis.
func linNorm(actions int) []float64 {
	nf := make([]float64, actions)
	for a := range nf {
		if actions == 1 {
			nf[a] = 1
		} else {
			nf[a] = float64(a) / float64(actions-1)
		}
	}
	return nf
}

func TestUniformPolicyIsUniform(t *testing.T) {
	rng := xrand.New(1)
	const actions, draws = 10, 20000
	counts := make([]int, actions)
	p := UniformPolicy{}
	for i := 0; i < draws; i++ {
		counts[p.Sample(rng, actions, 0.3, linNorm(actions))]++
	}
	want := float64(draws) / actions
	for a, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("action %d drawn %d times, want ≈%v", a, c, want)
		}
	}
}

func TestEPDWeightsAreDistribution(t *testing.T) {
	p := NewExponentialPolicy()
	for _, slack := range []float64{-0.8, -0.1, 0, 0.1, 0.8} {
		w := p.Weights(19, slack, linNorm(19))
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				t.Fatalf("negative probability at slack %v", slack)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights at slack %v sum to %v", slack, sum)
		}
	}
}

func TestEPDDirection(t *testing.T) {
	p := NewExponentialPolicy()
	nf := linNorm(19)
	// Positive slack (over-performing): slow actions more likely.
	w := p.Weights(19, 0.4, nf)
	if !(w[0] > w[18]) {
		t.Fatalf("positive slack: P(slowest)=%v not above P(fastest)=%v", w[0], w[18])
	}
	// Negative slack (missing deadlines): fast actions more likely.
	w = p.Weights(19, -0.4, nf)
	if !(w[18] > w[0]) {
		t.Fatalf("negative slack: P(fastest)=%v not above P(slowest)=%v", w[18], w[0])
	}
	// Near-zero slack: close to uniform (the paper's λ-dominated regime).
	w = p.Weights(19, 0.001, nf)
	for _, v := range w {
		if math.Abs(v-1.0/19) > 0.02 {
			t.Fatalf("near-zero slack not ≈uniform: %v", w)
		}
	}
}

func TestEPDMonotoneAcrossActions(t *testing.T) {
	p := NewExponentialPolicy()
	w := p.Weights(19, 0.3, linNorm(19))
	for a := 1; a < len(w); a++ {
		if w[a] > w[a-1]+1e-12 {
			t.Fatalf("positive slack weights not non-increasing at %d: %v > %v", a, w[a], w[a-1])
		}
	}
}

func TestEPDLambdaFloor(t *testing.T) {
	// Even at extreme slack, no action's probability collapses to zero:
	// the λ term keeps a floor so every V-F point stays reachable.
	p := NewExponentialPolicy()
	w := p.Weights(19, 5, linNorm(19)) // extreme positive slack
	if w[18] <= 0 {
		t.Fatalf("fastest action starved: %v", w[18])
	}
	floor := p.Lambda / (19*p.Lambda + 19) // lower bound on normalised weight
	if w[18] < floor*0.9 {
		t.Fatalf("fastest action below λ floor: %v < %v", w[18], floor)
	}
}

func TestEPDSampleMatchesWeights(t *testing.T) {
	p := NewExponentialPolicy()
	rng := xrand.New(7)
	const actions, draws = 7, 40000
	nf := linNorm(actions)
	w := p.Weights(actions, -0.3, nf)
	counts := make([]int, actions)
	for i := 0; i < draws; i++ {
		counts[p.Sample(rng, actions, -0.3, nf)]++
	}
	for a := range w {
		got := float64(counts[a]) / draws
		if math.Abs(got-w[a]) > 0.015 {
			t.Fatalf("action %d: empirical %v vs weight %v", a, got, w[a])
		}
	}
}

func TestEPDZeroBetaIsUniform(t *testing.T) {
	p := &ExponentialPolicy{Beta: 0, Lambda: 0.1}
	w := p.Weights(5, 0.7, linNorm(5))
	for _, v := range w {
		if math.Abs(v-0.2) > 1e-12 {
			t.Fatalf("β=0 weights not uniform: %v", w)
		}
	}
}

func TestEpsilonScheduleHoldsThenDecays(t *testing.T) {
	s := NewEpsilonSchedule()
	e := s.Start()
	if e.Epsilon() != s.Epsilon0 {
		t.Fatalf("initial ε = %v, want ε0", e.Epsilon())
	}
	// During the hold phase ε stays at ε0.
	for i := 0; i < s.HoldEpochs; i++ {
		e.Advance(s, 0.5, false)
		if e.Epsilon() != s.Epsilon0 {
			t.Fatalf("ε moved during hold at epoch %d: %v", i, e.Epsilon())
		}
	}
	// After the hold it decays monotonically.
	for i := 0; i < 100; i++ {
		prev := e.Epsilon()
		e.Advance(s, 0.5, false)
		if e.Epsilon() >= prev {
			t.Fatal("ε did not decay after the hold")
		}
	}
}

func TestEpsilonBoostSignals(t *testing.T) {
	// Both acceleration signals must shorten exploration relative to the
	// base clock when they are enabled.
	s := NewEpsilonSchedule()
	s.HoldEpochs = 0 // test the decay phase directly
	s.BoostDecay, s.BandBoost = 0.02, 0.01
	base, quiet, inBand := s.Start(), s.Start(), s.Start()
	for i := 0; i < 50; i++ {
		base.Advance(s, 0.5, false)
		quiet.Advance(s, 0.5, true)    // quiet policy: BoostDecay applies
		inBand.Advance(s, 0.01, false) // slack in band: BandBoost applies
	}
	if !(quiet.Epsilon() < base.Epsilon()) {
		t.Fatalf("quiet ε %v not below base ε %v", quiet.Epsilon(), base.Epsilon())
	}
	if !(inBand.Epsilon() < base.Epsilon()) {
		t.Fatalf("in-band ε %v not below base ε %v", inBand.Epsilon(), base.Epsilon())
	}
}

// Advancing a position leaves its schedule untouched, so Start after any
// amount of learning is back at ε0 and epoch zero.
func TestEpsilonReset(t *testing.T) {
	s := NewEpsilonSchedule()
	e := s.Start()
	for range s.HoldEpochs + 5 {
		e.Advance(s, 0, true)
	}
	if *s != *NewEpsilonSchedule() {
		t.Fatalf("Advance wrote to its schedule: %+v", *s)
	}
	if e = s.Start(); e.Epsilon() != s.Epsilon0 || e.Epoch() != 0 {
		t.Fatal("Start did not restore ε0 at epoch 0")
	}
}

// Property: EPD weights form a valid distribution for any parameters and
// slack, and sampling always returns a legal index.
func TestEPDValidDistributionProperty(t *testing.T) {
	f := func(rawBeta, rawLambda uint8, slack float64, rawActions uint8, seed int64) bool {
		if math.IsNaN(slack) || math.IsInf(slack, 0) {
			return true
		}
		slack = math.Mod(slack, 3)
		p := &ExponentialPolicy{
			Beta:   float64(rawBeta%20) + 0.1,
			Lambda: float64(rawLambda%100) / 100,
		}
		actions := int(rawActions%30) + 1
		nf := linNorm(actions)
		w := p.Weights(actions, slack, nf)
		sum := 0.0
		for _, v := range w {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		rng := xrand.New(seed)
		a := p.Sample(rng, actions, slack, nf)
		return a >= 0 && a < actions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
