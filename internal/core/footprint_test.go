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
