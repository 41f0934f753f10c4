package core

import (
	"runtime"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/qpage"
)

// liveHeap returns the heap still reachable after forced collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// learnerFamily is every served learner with per-session learning state:
// the RTM family and the ML-DTM baseline.
func learnerFamily() map[string]func() governor.Governor {
	out := map[string]func() governor.Governor{
		"mldtm": func() governor.Governor { return governor.NewMLDTM() },
	}
	for name, cfg := range rtmFamily() {
		out[name] = func() governor.Governor { return New(cfg) }
	}
	return out
}

// wanderingObs fills obs for epoch e of a demand that wanders over the
// state space, so learners keep exploring and updating rather than
// idling in one state.
func wanderingObs(obs *governor.Observation, e int) {
	cc := uint64(20e6 + 1e6*float64((e*7)%23))
	for c := range obs.Cycles {
		obs.Cycles[c] = cc
	}
	obs.Epoch = e
	obs.ExecTimeS = 0.030 + 0.0005*float64(e%19)
}

// steadyObs returns the fixed part of the wandering-demand observation.
func steadyObs(ctx governor.Context) governor.Observation {
	return governor.Observation{
		Cycles:    make([]uint64, ctx.NumCores),
		Util:      []float64{0.8, 0.8, 0.8, 0.8},
		PeriodS:   ctx.PeriodS,
		WallTimeS: ctx.PeriodS,
		PowerW:    2,
		TempC:     50,
	}
}

// A long-lived session's learning state must not grow with its decide
// count: the paper's RTM learns for as long as the device runs, so any
// per-epoch record kept by the served learner is a leak. For every
// learner, 128 sessions are measured after 1k and after 2.5k decides; the
// live bytes per session must agree within 256 B. A leak of 4 B per
// decide held in a growing slice doubles its capacity at least once
// between the two points, so it shows as kilobytes per session.
func TestLiveBytesPerSessionIndependentOfDecideCount(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 320k decides per learner")
	}
	const sessions = 128
	for name, mk := range learnerFamily() {
		t.Run(name, func(t *testing.T) {
			ctx := rtmCtx(1)
			obs := steadyObs(ctx)
			base := liveHeap()
			gs := make([]governor.Governor, sessions)
			for i := range gs {
				gs[i] = mk()
				ctx.Seed = int64(i + 1)
				gs[i].Reset(ctx)
				gs[i].Decide(governor.Observation{Epoch: -1})
			}
			epoch := 0
			decideTo := func(n int) {
				for ; epoch < n; epoch++ {
					wanderingObs(&obs, epoch)
					for _, g := range gs {
						obs.OPPIdx = g.Decide(obs)
					}
				}
			}
			decideTo(1_000)
			at1k := float64(liveHeap()-base) / sessions
			decideTo(2_500)
			at2k5 := float64(liveHeap()-base) / sessions
			runtime.KeepAlive(gs)
			t.Logf("live bytes per session: %.0f after 1k decides, %.0f after 2.5k", at1k, at2k5)
			if d := at2k5 - at1k; d > 256 || d < -256 {
				t.Fatalf("live bytes per session moved by %.0f B between 1k and 2.5k decides (%.0f → %.0f), want within 256 B",
					d, at1k, at2k5)
			}
		})
	}
}

// Every learner decides with zero heap allocations once warm: the RTM
// family, the ML-DTM baseline and a two-application MultiRTM.
// testing.AllocsPerRun truncates its average to an integer, so a leftover
// of one allocation every few dozen decides would read 0 there; this test
// counts MemStats.Mallocs over 10,000 steady decides and requires exactly
// 0. The tables are private (no pool), so no copy-on-write fault, which
// allocates by design, can occur.
func TestSteadyDecideZeroMallocs(t *testing.T) {
	const warm, steady = 2_000, 10_000
	requireZero := func(t *testing.T, decideTo func(n int)) {
		decideTo(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decideTo(warm + steady)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("%d heap allocations over %d steady decides (%.4f per decide), want 0",
				n, steady, float64(n)/steady)
		}
	}
	for name, mk := range learnerFamily() {
		t.Run(name, func(t *testing.T) {
			g := mk()
			ctx := rtmCtx(7)
			g.Reset(ctx)
			obs := steadyObs(ctx)
			obs.OPPIdx = g.Decide(governor.Observation{Epoch: -1})
			epoch := 0
			requireZero(t, func(n int) {
				for ; epoch < n; epoch++ {
					wanderingObs(&obs, epoch)
					obs.OPPIdx = g.Decide(obs)
				}
			})
		})
	}
	t.Run("multirtm-2app", func(t *testing.T) {
		m := NewMultiRTM(DefaultConfig(), 2)
		m.Reset(rtmCtx(7))
		m.DecideMulti(MultiObservation{Epoch: -1})
		obs := MultiObservation{Apps: make([]AppObservation, 2)}
		epoch := 0
		requireZero(t, func(n int) {
			for ; epoch < n; epoch++ {
				obs.Epoch = epoch
				for a := range obs.Apps {
					obs.Apps[a] = AppObservation{
						ExecTimeS:      0.025 + 0.0005*float64((epoch+5*a)%19),
						PeriodS:        0.040 - 0.007*float64(a),
						CriticalCycles: uint64(20e6 + 1e6*float64((epoch*7+a)%23)),
					}
				}
				m.DecideMulti(obs)
			}
		})
	})
}

// coldSessionBytesLimit pins the live bytes of one cold rtm session: the
// learner as the serving tier holds it after Reset and its first decide,
// before any Q-table row is private. It was 1,904 B before the learner
// record was shrunk (a private Config copy with its Reward, policy and ε
// schedule, pointer-held state space, slack and convergence trackers, a
// separate Q-table header and per-state visit cache, and fingerprint
// scratch); 1,304 B measured after, 16 B of it the test's own slot per
// session. The margin is one 64-B size class.
const coldSessionBytesLimit = 1_304 + 64

// TestColdSessionFixedBytes is the fixed-state guardrail: 2,000 rtm
// sessions built through the registry (so they share one Config) on a
// page pool, Reset and given the governor contract's first decide. None
// may own a private row, and each may hold at most coldSessionBytesLimit
// live bytes.
func TestColdSessionFixedBytes(t *testing.T) {
	const sessions = 2_000
	ctx := rtmCtx(1)
	ctx.QPool = qpage.NewPool()
	ctx.NormFreq = ctx.Table.NormFreqs()
	base := liveHeap()
	gs := make([]governor.Governor, sessions)
	for i := range gs {
		g, err := governor.ByName("rtm")
		if err != nil {
			t.Fatal(err)
		}
		ctx.Seed = int64(i + 1)
		g.Reset(ctx)
		g.Decide(governor.Observation{Epoch: -1})
		gs[i] = g
	}
	per := float64(liveHeap()-base) / sessions
	runtime.KeepAlive(gs)
	if _, _, faults := ctx.QPool.Stats(); faults != 0 {
		t.Fatalf("%d copy-on-write faults: a cold session owns a private row", faults)
	}
	t.Logf("a cold rtm session holds %.0f B live (limit %d)", per, coldSessionBytesLimit)
	if per > coldSessionBytesLimit {
		t.Fatalf("a cold rtm session holds %.0f B live, want at most %d", per, coldSessionBytesLimit)
	}
}
