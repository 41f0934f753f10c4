package core

import (
	"runtime"
	"testing"

	"qgov/internal/governor"
)

// liveHeap returns the heap still reachable after forced collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// A long-lived session's learning state must not grow with its decide
// count: the paper's RTM learns for as long as the device runs, so any
// per-epoch record kept by the served learner is a leak. 256 sessions are
// measured after 1k and after 20k decides; the live bytes per session
// must agree within 256 B.
func TestLiveBytesPerSessionIndependentOfDecideCount(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 5M decides")
	}
	const sessions = 256
	ctx := rtmCtx(1)
	obs := governor.Observation{
		Cycles:    make([]uint64, ctx.NumCores),
		Util:      []float64{0.8, 0.8, 0.8, 0.8},
		PeriodS:   ctx.PeriodS,
		WallTimeS: ctx.PeriodS,
		PowerW:    2,
		TempC:     50,
	}
	base := liveHeap()
	rs := make([]*RTM, sessions)
	for i := range rs {
		rs[i] = New(DefaultConfig())
		ctx.Seed = int64(i + 1)
		rs[i].Reset(ctx)
		rs[i].Decide(governor.Observation{Epoch: -1})
	}
	epoch := 0
	decideTo := func(n int) {
		for ; epoch < n; epoch++ {
			// A demand that wanders over the state space, so sessions keep
			// exploring and updating rather than idling in one state.
			cc := uint64(20e6 + 1e6*float64((epoch*7)%23))
			for c := range obs.Cycles {
				obs.Cycles[c] = cc
			}
			obs.Epoch = epoch
			obs.ExecTimeS = 0.030 + 0.0005*float64(epoch%19)
			for _, r := range rs {
				obs.OPPIdx = r.Decide(obs)
			}
		}
	}
	decideTo(1_000)
	at1k := float64(liveHeap()-base) / sessions
	decideTo(20_000)
	at20k := float64(liveHeap()-base) / sessions
	runtime.KeepAlive(rs)
	t.Logf("live bytes per session: %.0f after 1k decides, %.0f after 20k", at1k, at20k)
	if d := at20k - at1k; d > 256 || d < -256 {
		t.Fatalf("live bytes per session moved by %.0f B between 1k and 20k decides (%.0f → %.0f), want within 256 B",
			d, at1k, at20k)
	}
}

// Every RTM-family governor decides with zero heap allocations once warm.
// testing.AllocsPerRun truncates its average to an integer, so a leftover
// of one allocation every few dozen decides would read 0 there; this test
// counts MemStats.Mallocs over 10,000 steady decides and requires exactly
// 0. The tables are private (no pool), so no copy-on-write fault, which
// allocates by design, can occur.
func TestSteadyDecideZeroMallocs(t *testing.T) {
	const warm, steady = 2_000, 10_000
	for name, cfg := range rtmFamily() {
		t.Run(name, func(t *testing.T) {
			r := New(cfg)
			ctx := rtmCtx(7)
			r.Reset(ctx)
			obs := governor.Observation{
				Cycles:    make([]uint64, ctx.NumCores),
				Util:      []float64{0.8, 0.8, 0.8, 0.8},
				PeriodS:   ctx.PeriodS,
				WallTimeS: ctx.PeriodS,
				PowerW:    2,
				TempC:     50,
			}
			obs.OPPIdx = r.Decide(governor.Observation{Epoch: -1})
			epoch := 0
			decideTo := func(n int) {
				for ; epoch < n; epoch++ {
					// The footprint test's wandering demand: the learner
					// keeps moving between states and updating.
					cc := uint64(20e6 + 1e6*float64((epoch*7)%23))
					for c := range obs.Cycles {
						obs.Cycles[c] = cc
					}
					obs.Epoch = epoch
					obs.ExecTimeS = 0.030 + 0.0005*float64(epoch%19)
					obs.OPPIdx = r.Decide(obs)
				}
			}
			decideTo(warm)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decideTo(warm + steady)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%d heap allocations over %d steady decides (%.4f per decide), want 0",
					n, steady, float64(n)/steady)
			}
		})
	}
}
