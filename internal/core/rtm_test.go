package core

import (
	"strings"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/platform"
)

func rtmCtx(seed int64) governor.Context {
	return governor.Context{
		Table:    platform.A15Table(),
		NumCores: 4,
		PeriodS:  0.040,
		Seed:     seed,
	}
}

// driveSteady runs the RTM against an idealised steady workload where each
// core needs `cycles` per 40 ms frame, computing exec time from the chosen
// frequency exactly. It returns the OPP indices chosen after each epoch.
func driveSteady(r *RTM, cycles uint64, epochs int) []int {
	ctx := rtmCtx(11)
	r.Reset(ctx)
	idx := r.Decide(governor.Observation{Epoch: -1})
	out := make([]int, 0, epochs)
	for i := 0; i < epochs; i++ {
		f := ctx.Table[idx].FreqHz()
		exec := float64(cycles)/f + r.DecisionOverheadS()
		wall := exec
		if wall < ctx.PeriodS {
			wall = ctx.PeriodS
		}
		util := exec / wall
		obs := governor.Observation{
			Epoch:     i,
			Cycles:    []uint64{cycles, cycles, cycles, cycles},
			Util:      []float64{util, util, util, util},
			ExecTimeS: exec,
			PeriodS:   ctx.PeriodS,
			WallTimeS: wall,
			PowerW:    2,
			TempC:     50,
			OPPIdx:    idx,
		}
		idx = r.Decide(obs)
		out = append(out, idx)
	}
	return out
}

func TestRTMConvergesNearRequiredFrequency(t *testing.T) {
	r := New(DefaultConfig())
	if err := r.Calibrate([]float64{20e6, 30e6, 40e6}); err != nil {
		t.Fatal(err)
	}
	// 30 Mcycles / 40 ms = 750 MHz requirement -> 800 MHz is the slowest
	// meeting OPP (index 6).
	picks := driveSteady(r, 30e6, 800)
	tail := picks[len(picks)-50:]
	for _, idx := range tail {
		mhz := platform.A15Table()[idx].FreqMHz
		if mhz < 800 || mhz > 1100 {
			t.Fatalf("steady-state pick %d MHz; want within [800,1100] for a 750 MHz demand", mhz)
		}
	}
	if r.ConvergedAtEpoch() < 0 {
		t.Fatal("RTM did not report convergence")
	}
	if r.Explorations() == 0 {
		t.Fatal("RTM reported zero explorations")
	}
}

func TestRTMTracksSlackTowardTarget(t *testing.T) {
	r := New(DefaultConfig())
	if err := r.Calibrate([]float64{20e6, 30e6, 40e6}); err != nil {
		t.Fatal(err)
	}
	driveSteady(r, 30e6, 800)
	l := r.SlackL()
	// 800 MHz on a 750 MHz demand leaves ≈6% slack; anything in a modest
	// positive band around the reward target is a pass.
	if l < -0.05 || l > 0.30 {
		t.Fatalf("steady-state slack L = %v, want near the target band", l)
	}
}

func TestRTMDeterministicBySeed(t *testing.T) {
	run := func() []int {
		r := New(DefaultConfig())
		r.Calibrate([]float64{20e6, 30e6, 40e6})
		return driveSteady(r, 28e6, 300)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical configs diverged at epoch %d", i)
		}
	}
}

func TestRTMUPDVariantExploresMore(t *testing.T) {
	// The Table II mechanism in miniature: with everything else equal, the
	// EPD variant should need no more explorations than UPD to converge on
	// the same steady workload. (The full-width comparison across
	// applications is the TableII experiment.)
	epd := New(DefaultConfig())
	epd.Calibrate([]float64{20e6, 30e6, 40e6})
	driveSteady(epd, 30e6, 1500)

	updCfg := DefaultConfig()
	updCfg.Policy = UniformPolicy{}
	upd := New(updCfg)
	upd.Calibrate([]float64{20e6, 30e6, 40e6})
	driveSteady(upd, 30e6, 1500)

	if epd.ConvergedAtEpoch() < 0 || upd.ConvergedAtEpoch() < 0 {
		t.Skipf("one variant did not converge (epd=%d upd=%d)", epd.ConvergedAtEpoch(), upd.ConvergedAtEpoch())
	}
	if epd.Explorations() > upd.Explorations()+10 {
		t.Fatalf("EPD explorations %d materially above UPD %d", epd.Explorations(), upd.Explorations())
	}
}

func TestRTMPerCoreMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = PerCoreTables
	r := New(cfg)
	r.Calibrate([]float64{20e6, 30e6, 40e6})
	picks := driveSteady(r, 30e6, 600)
	if len(picks) != 600 {
		t.Fatal("per-core mode did not run")
	}
	if r.Name() != "rtm-percore" {
		t.Fatalf("Name = %q", r.Name())
	}
	for _, idx := range picks[len(picks)-20:] {
		if idx < 0 || idx >= platform.A15Table().Len() {
			t.Fatalf("per-core pick %d out of range", idx)
		}
	}
}

func TestRTMAutoRangeWithoutCalibration(t *testing.T) {
	r := New(DefaultConfig())
	// No Calibrate call: the first observations must establish a range
	// without panicking, and the controller must still function.
	picks := driveSteady(r, 25e6, 400)
	tail := picks[len(picks)-20:]
	for _, idx := range tail {
		mhz := platform.A15Table()[idx].FreqMHz
		// 25e6/0.04 = 625 MHz requirement.
		if mhz < 600 || mhz > 1400 {
			t.Fatalf("auto-ranged steady pick %d MHz implausible for 625 MHz demand", mhz)
		}
	}
}

func TestRTMNormalizedStateMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseNormalizedState = true
	r := New(cfg)
	picks := driveSteady(r, 30e6, 400)
	if len(picks) != 400 {
		t.Fatal("normalized-state mode did not run")
	}
}

func TestRTMLearningTransferSkipsExploration(t *testing.T) {
	// Learn once, transfer the table, run again: the transferred run must
	// converge (policy stable) in far fewer epochs.
	first := New(DefaultConfig())
	first.Calibrate([]float64{20e6, 30e6, 40e6})
	driveSteady(first, 30e6, 1200)
	if first.ConvergedAtEpoch() < 0 {
		t.Skip("first run did not converge; cannot test transfer")
	}

	cfg := DefaultConfig()
	cfg.Transfer = first.Table()
	// Transfer implies starting largely in exploitation.
	cfg.Epsilon = &EpsilonSchedule{Epsilon0: 0.1, Decay: 0.05, BoostDecay: 0.1, StableBand: 0.08}
	second := New(cfg)
	second.Calibrate([]float64{20e6, 30e6, 40e6})
	driveSteady(second, 30e6, 1200)

	if second.ConvergedAtEpoch() < 0 {
		t.Fatal("transferred run did not converge")
	}
	if second.Explorations() >= first.Explorations() {
		t.Fatalf("transfer did not reduce exploration: %d vs %d",
			second.Explorations(), first.Explorations())
	}
}

func TestRTMTransferDimensionMismatchPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transfer = NewQTable(4, 4, 0) // wrong shape
	r := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched transfer table must panic at Reset")
		}
	}()
	r.Reset(rtmCtx(1))
}

func TestRTMConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Levels = 1 },
		func(c *Config) { c.Reward = nil },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Epsilon = nil },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.Discount = 1.0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config case %d must panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestRTMRegisteredInGovernorRegistry(t *testing.T) {
	for _, name := range []string{"rtm", "rtm-percore", "updrl"} {
		g, err := governor.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, g.Name())
		}
		if _, ok := g.(governor.OverheadModeler); !ok {
			t.Errorf("%s does not model its decision overhead", name)
		}
		if _, ok := g.(governor.LearningStats); !ok {
			t.Errorf("%s does not expose learning statistics", name)
		}
	}
}

// The sticky greedy choices are stored as uint8, so Reset refuses an OPP
// table with more points than a uint8 can index.
func TestRTMResetRejectsOversizedOPPTable(t *testing.T) {
	ctx := rtmCtx(1)
	ctx.Table = make(platform.OPPTable, 257)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "256-action limit") {
			t.Fatalf("Reset of a 257-point OPP table panicked with %q, want the action limit", msg)
		}
	}()
	New(DefaultConfig()).Reset(ctx)
}

// Learners built from one Config value decide exactly as learners built
// from separate ones: the ε schedule a Config points to is read-only, and
// each learner keeps its own position on it. (Sharing the position made
// two RTMs advance one ε twice per epoch.)
func TestLearnersFromOneConfigKeepTheirOwnEpsilon(t *testing.T) {
	const epochs = 400
	shared := DefaultConfig()
	t.Run("rtm", func(t *testing.T) {
		pair := func(a, b *RTM) [2][]int {
			ctxA, ctxB := rtmCtx(1), rtmCtx(2)
			a.Reset(ctxA)
			b.Reset(ctxB)
			ia, ib := a.Decide(governor.Observation{Epoch: -1}), b.Decide(governor.Observation{Epoch: -1})
			var out [2][]int
			for e := range epochs {
				ia = a.Decide(closedLoopObs(ctxA, e, ia, oracleDemand(e), a.DecisionOverheadS()))
				ib = b.Decide(closedLoopObs(ctxB, e, ib, oracleDemand(e), b.DecisionOverheadS()))
				out[0], out[1] = append(out[0], ia), append(out[1], ib)
			}
			return out
		}
		got := pair(New(shared), New(shared))
		want := pair(New(DefaultConfig()), New(DefaultConfig()))
		for l := range got {
			if d := countDiffs(got[l], want[l]); d > 0 {
				t.Fatalf("learner %d: %d of %d decisions differ from a learner built from its own Config", l, d, epochs)
			}
		}
	})
	t.Run("multirtm", func(t *testing.T) {
		got := interleaveMulti(NewMultiRTM(shared, 2), NewMultiRTM(shared, 2), epochs)
		want := interleaveMulti(NewMultiRTM(DefaultConfig(), 2), NewMultiRTM(DefaultConfig(), 2), epochs)
		for l := range got {
			if d := countDiffs(got[l], want[l]); d > 0 {
				t.Fatalf("controller %d: %d of %d decisions differ from one built from its own Config", l, d, epochs)
			}
		}
	})
}

// interleaveMulti drives two 2-app controllers epoch by epoch, as a fleet
// would, and returns each one's decisions.
func interleaveMulti(a, b *MultiRTM, epochs int) [2][]int {
	ms := [2]*MultiRTM{a, b}
	var idx [2]int
	var out [2][]int
	for l, m := range ms {
		m.Reset(rtmCtx(int64(l + 1)))
		idx[l] = m.DecideMulti(MultiObservation{Epoch: -1})
	}
	table := rtmCtx(0).Table
	for e := range epochs {
		for l, m := range ms {
			f, ovh := table[idx[l]].FreqHz(), m.DecisionOverheadS()
			cyA, cyB := oracleDemand(e), oracleDemand(e+850)/2
			idx[l] = m.DecideMulti(MultiObservation{Epoch: e, Apps: []AppObservation{
				{ExecTimeS: float64(cyA)/f + ovh, PeriodS: 0.040, CriticalCycles: cyA},
				{ExecTimeS: float64(cyB)/f + ovh, PeriodS: 0.033, CriticalCycles: cyB},
			}})
			out[l] = append(out[l], idx[l])
		}
	}
	return out
}

func countDiffs(a, b []int) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
