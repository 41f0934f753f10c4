package serve_test

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/xrand"
)

// TestSteadyDecideAllocs is the steady-state allocation guardrail:
// whole-process allocations (client encode, server decode, decide,
// reply) per decision over the binary transport, measured at a settled
// session population. Regressions here are exactly the kind of per-epoch
// garbage that turns a million-session deployment into a GC death spiral.
func TestSteadyDecideAllocs(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	cl, err := client.Dial(newTCPServer(t, h).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 64
	sessions := make([]string, n)
	obs := make([]governor.Observation, n)
	out := make([]client.Decision, n)
	for i := range sessions {
		sessions[i] = fmt.Sprintf("alloc-%d", i)
		obs[i] = steadyObs()
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, sessions[i], i+1)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", sessions[i], st, err, resp)
		}
	}
	decide := func() {
		if err := cl.DecideBatch(sessions, obs, out); err != nil {
			t.Fatalf("decide batch: %v", err)
		}
		for i := range out {
			if out[i].Err != "" {
				t.Fatalf("decide %s: %s", sessions[i], out[i].Err)
			}
		}
	}
	// Warm the path (connection buffers, session stripes) before counting.
	for i := 0; i < 10; i++ {
		decide()
	}
	perBatch := testing.AllocsPerRun(50, decide)
	perDecide := perBatch / n
	t.Logf("steady state: %.1f allocs/batch, %.2f allocs/decide (batch of %d)", perBatch, perDecide, n)
	// 3 is the regression tripwire, not the target.
	if perDecide > 3 {
		t.Fatalf("steady-state allocations regressed: %.2f allocs/decide (limit 3)", perDecide)
	}
}

// liveBytesLimit is the live-memory tripwire: the forced-GC heap growth
// per peak live session, harness overhead included. A decided rtm
// session sits near 4.5 KB; 10 KB is the regression line, not the target.
const liveBytesLimit = 10 * 1024

// liveHeap is the reachable heap: HeapAlloc right after a collection
// counts no garbage awaiting one.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// churnedMemorySpec is a lifecycle-churn schedule of ~1,000 skewed
// clients with short session lifetimes and two delete storms. The
// runner drives it flat out, so its live population peaks in the high
// hundreds within about a second of wall time.
func churnedMemorySpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     20260807,
		HorizonS: 4,
		IDPrefix: "mem",
		Clients: []loadgen.ClientClass{
			{
				Name:            "steady",
				Count:           700,
				Arrival:         loadgen.Arrival{Process: "poisson", RateHz: 15},
				RateSkew:        &loadgen.Skew{Dist: "pareto", Param: 2.2},
				LifetimeDecides: 5,
				StartWindowS:    0.7,
			},
			{
				Name:            "burst",
				Count:           300,
				Arrival:         loadgen.Arrival{Process: "gamma", RateHz: 10, Shape: 0.5},
				RateSkew:        &loadgen.Skew{Dist: "lognormal", Param: 0.8},
				LifetimeDecides: 8,
				StartWindowS:    0.7,
			},
		},
		Storms: []loadgen.Storm{
			{AtS: 1.3, Fraction: 0.5, RestartDelayS: 0.1},
			{AtS: 2.7, Fraction: 1, RestartDelayS: 0.07},
		},
	}
}

// TestLiveBytesPerSession is the per-session memory tripwire over the
// binary transport with the checkpoint sweep on, for a churned and a
// long-lived population. Each run must be clean, grow the live heap by
// at most liveBytesLimit per peak session, and leave the Q-table pool
// empty once every session is deleted: a page still interned then is a
// refcount leak.
func TestLiveBytesPerSession(t *testing.T) {
	// dial starts a flat server with a 100 ms checkpoint sweep and
	// returns it with a binary client.
	dial := func(t *testing.T) (*serve.Server, *client.Client) {
		h := newTestServer(t, serve.Options{CheckpointDir: t.TempDir(), CheckpointEvery: 100 * time.Millisecond})
		cl, err := client.Dial(newTCPServer(t, h).Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		return h.srv, cl
	}
	check := func(t *testing.T, srv *serve.Server, grown uint64, peak int64) {
		t.Helper()
		perSession := float64(grown) / float64(peak)
		t.Logf("live heap grew %d B at a peak of %d sessions: %.0f B/session (limit %d)", grown, peak, perSession, liveBytesLimit)
		if perSession > liveBytesLimit {
			t.Errorf("live memory per session regressed: %.0f B (limit %d)", perSession, liveBytesLimit)
		}
		if pages, bytes, _ := srv.QPoolStats(); pages != 0 || bytes != 0 {
			t.Errorf("Q-table pool holds %d pages / %d bytes with every session deleted", pages, bytes)
		}
	}

	t.Run("churned", func(t *testing.T) {
		srv, cl := dial(t)
		g, err := loadgen.New(churnedMemorySpec())
		if err != nil {
			t.Fatal(err)
		}
		base := liveHeap()
		// Sample the live heap through the run; its peak over the
		// schedule's peak population is the per-session figure.
		var peakHeap atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if h := liveHeap(); h > peakHeap.Load() {
						peakHeap.Store(h)
					}
				}
			}
		}()
		// 64-decide batches keep the runner's lane buffers small beside
		// the population being measured.
		rep, err := loadgen.Run(g, cl, loadgen.RunOptions{Lanes: 4, BatchMax: 64})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		t.Logf("%d creates, %d decides, peak %d live in %.2fs", rep.Creates, rep.Decides, rep.PeakLive, rep.WallS)
		if rep.CreateErrors != 0 || rep.DeleteErrors != 0 || rep.DecideErrors != 0 {
			t.Fatalf("churn run not clean: %+v", rep)
		}
		if rep.EndLive != 0 {
			t.Fatalf("%d sessions live after the drain", rep.EndLive)
		}
		if rep.PeakLive < 500 {
			t.Fatalf("peak population %d is below the 500 the figure needs", rep.PeakLive)
		}
		if peakHeap.Load() <= base {
			t.Fatalf("no live-heap sample above the %d B baseline", base)
		}
		check(t, srv, peakHeap.Load()-base, rep.PeakLive)
	})

	t.Run("long-lived", func(t *testing.T) {
		const sessions, epochs, ring, batch = 512, 300, 8, 256
		srv, cl := dial(t)
		// A ring of jittered frames per session, built before the
		// baseline so it is counted on both sides of the difference.
		ids := make([]string, sessions)
		frames := make([][]governor.Observation, sessions)
		rng := xrand.New(5)
		for i := range ids {
			ids[i] = fmt.Sprintf("long-%d", i)
			frames[i] = make([]governor.Observation, ring)
			for k := range frames[i] {
				frames[i][k] = jitteredObs(rng)
			}
		}
		obs := make([]governor.Observation, batch)
		out := make([]client.Decision, batch)

		base := liveHeap()
		for i, id := range ids {
			body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i+1)
			if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
				t.Fatalf("create %s: status %d err %v (%s)", id, st, err, resp)
			}
		}
		// The first call of the governor contract is epoch -1; every
		// later one is a measured frame.
		for epoch := -1; epoch < epochs; epoch++ {
			for lo := 0; lo < sessions; lo += batch {
				for k := range obs {
					if epoch < 0 {
						obs[k] = governor.Observation{Epoch: -1}
						continue
					}
					obs[k] = frames[lo+k][epoch%ring]
					obs[k].Epoch = epoch
				}
				if err := cl.DecideBatch(ids[lo:lo+batch], obs, out); err != nil {
					t.Fatalf("decide batch: %v", err)
				}
				for k := range out {
					if out[k].Err != "" {
						t.Fatalf("decide %s at epoch %d: %s", ids[lo+k], epoch, out[k].Err)
					}
				}
			}
		}
		grown := int64(liveHeap()) - int64(base)
		if grown <= 0 {
			t.Fatalf("live heap did not grow over %d sessions (%d B)", sessions, grown)
		}
		for _, id := range ids {
			if st, resp, err := cl.DeleteSession(id); err != nil || st != http.StatusNoContent {
				t.Fatalf("delete %s: status %d err %v (%s)", id, st, err, resp)
			}
		}
		check(t, srv, uint64(grown), sessions)
	})
}

// jitteredObs is one measured frame of a four-core cluster: execution
// time jittering around 60% of a 40 ms period, with cycles (which an
// uncalibrated rtm derives its state range from) on every core.
func jitteredObs(rng *xrand.Rand) governor.Observation {
	const period = 0.040
	base := 28e6 + 4e6*rng.Float64()
	o := governor.Observation{
		Cycles:    make([]uint64, 4),
		Util:      make([]float64, 4),
		ExecTimeS: period * (0.4 + 0.4*rng.Float64()),
		PeriodS:   period,
		WallTimeS: period,
		PowerW:    1.2 + 1.6*rng.Float64(),
		TempC:     42 + 14*rng.Float64(),
		OPPIdx:    rng.Intn(10),
	}
	for c := range o.Cycles {
		o.Cycles[c] = uint64(base * (0.9 + 0.2*rng.Float64()))
		o.Util[c] = 0.4 + 0.4*rng.Float64()
	}
	return o
}
