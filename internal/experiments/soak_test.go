package experiments

import (
	"flag"
	"fmt"
	"net"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
)

// -soakspec swaps the built-in smoke spec for a spec file; the CI soak
// job passes examples/soak-smoke.json to run the full-size smoke.
var soakSpec = flag.String("soakspec", "", "loadgen spec file for TestSoakSmoke (default: tiny built-in spec)")

// smokeSpec is the built-in miniature soak: enough clients, churn and
// storming to exercise every code path in a couple of seconds.
func smokeSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     7,
		HorizonS: 4,
		IDPrefix: "soak",
		Clients: []loadgen.ClientClass{
			{
				Name:            "steady",
				Count:           40,
				Arrival:         loadgen.Arrival{Process: "poisson", RateHz: 20},
				LifetimeDecides: 25,
				StartWindowS:    0.5,
			},
			{
				Name:         "burst",
				Count:        20,
				Arrival:      loadgen.Arrival{Process: "weibull", RateHz: 15, Shape: 0.7},
				RateSkew:     &loadgen.Skew{Dist: "pareto", Param: 2},
				StartWindowS: 0.5,
			},
		},
		Storms: []loadgen.Storm{
			{AtS: 1.5, Fraction: 0.6, RestartDelayS: 0.1},
			{AtS: 3, Fraction: 1, RestartDelayS: 0.05},
		},
	}
}

func soakSmokeSpec(t *testing.T) loadgen.Spec {
	t.Helper()
	if *soakSpec == "" {
		return smokeSpec()
	}
	spec, err := loadgen.LoadSpec(*soakSpec)
	if err != nil {
		t.Fatalf("loading -soakspec: %v", err)
	}
	return spec
}

// TestSoakSmoke is the CI churn soak: a full lifecycle workload against
// a real server with checkpointing on, asserting the run is clean, the
// latency histogram resolves its tail, the drain returns the heap, the
// Q-table pool drains with it, and — at CI scale — the per-session
// live-memory floor holds.
func TestSoakSmoke(t *testing.T) {
	res, err := RunSoak(SoakConfig{
		Spec:     soakSmokeSpec(t),
		Topology: "flat",
		Lanes:    16,
		// The smoke drives ~5k decides/s — batches of 64 keep every lane
		// busy while shrinking the fixed lane-channel buffers (~7 MB at
		// the 512 default) that would otherwise pollute the per-session
		// live-memory reading at this deliberately small scale.
		BatchMax:        64,
		CheckpointEvery: 100 * time.Millisecond,
		LiveSampleEvery: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	t.Logf("soak: %+v", res)
	if res.DecideErrors != 0 {
		t.Fatalf("%d decide errors in a clean schedule", res.DecideErrors)
	}
	if res.Creates != res.Deletes {
		t.Fatalf("creates %d != deletes %d after drain", res.Creates, res.Deletes)
	}
	if res.Decides == 0 || res.PeakLive == 0 {
		t.Fatalf("hollow soak: %+v", res)
	}
	if res.P99US <= 0 {
		t.Fatalf("p99 unresolved (%v µs): histogram overflowed or empty", res.P99US)
	}
	if res.P999US < res.P99US && res.P999US > 0 {
		t.Fatalf("p999 %v µs < p99 %v µs", res.P999US, res.P99US)
	}
	if res.HeapPeakB == 0 || res.HeapEndB == 0 {
		t.Fatalf("memory trajectory not sampled: %+v", res)
	}
	if res.HeapRecoveredFrac < 0 || res.HeapRecoveredFrac > 1 {
		t.Fatalf("heap_recovered_frac %v outside [0,1]", res.HeapRecoveredFrac)
	}
	// Every session was deleted; a page still interned is a refcount leak.
	if res.QTablePoolPagesEnd != 0 || res.QTablePoolBytesEnd != 0 {
		t.Fatalf("Q-table pool leaked %d pages / %d bytes after drain",
			res.QTablePoolPagesEnd, res.QTablePoolBytesEnd)
	}
	// The memory-floor tripwire, gated on populations large enough that
	// harness overhead amortises away: the copy-on-write tables put a
	// decided rtm session near ~9 KB live (the math/rand state is now
	// over half of it); 10 KB is the regression line, not the target.
	if res.PeakLive >= 500 {
		if res.LiveHeapPeakB == 0 {
			t.Fatal("live-heap sampler produced no samples at CI scale")
		}
		if res.LiveBytesPerSession > 10*1024 {
			t.Fatalf("live memory per session regressed: %.0f B (limit 10240)", res.LiveBytesPerSession)
		}
	}
}

// steadySoakObs is a plausible steady-state frame observation.
func steadySoakObs(epoch int) governor.Observation {
	return governor.Observation{
		Epoch:     epoch,
		Cycles:    []uint64{30e6, 29e6, 31e6, 30e6},
		Util:      []float64{0.6, 0.55, 0.65, 0.6},
		ExecTimeS: 0.024,
		PeriodS:   0.040,
		WallTimeS: 0.040,
		PowerW:    2.1,
		TempC:     48,
		OPPIdx:    4,
	}
}

// TestSoakSteadyDecideAllocs is the steady-state allocation guardrail:
// whole-process allocations (client encode, server decode, decide,
// reply) per decision over the binary transport, measured at a settled
// session population. Regressions here are exactly the kind of per-epoch
// garbage that turns a million-session soak into a GC death spiral.
func TestSoakSteadyDecideAllocs(t *testing.T) {
	srv := serve.New(serve.Options{})
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcp := serve.NewTCP(srv, lis)
	go func() { _ = tcp.Serve() }()
	defer tcp.Close()
	cl, err := client.Dial(lis.Addr().String())
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
		obs[i] = steadySoakObs(0)
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, sessions[i], i+1)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != 201 {
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
	// Measured ~0.6 allocs/decide end to end (client + server). 3 is the
	// regression tripwire, not the target.
	if perDecide > 3 {
		t.Fatalf("steady-state allocations regressed: %.2f allocs/decide (limit 3)", perDecide)
	}
}

// benchSoakSpec sizes the soak for the perf-trajectory benchmark: a
// thousand clients with skewed rates, lifecycle recycling and two storms.
func benchSoakSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     99,
		HorizonS: 6,
		IDPrefix: "bench",
		Clients: []loadgen.ClientClass{
			{
				Name:            "steady",
				Count:           700,
				Arrival:         loadgen.Arrival{Process: "poisson", RateHz: 10},
				RateSkew:        &loadgen.Skew{Dist: "pareto", Param: 2.2},
				LifetimeDecides: 30,
				StartWindowS:    1,
			},
			{
				Name:         "burst",
				Count:        300,
				Arrival:      loadgen.Arrival{Process: "gamma", RateHz: 12, Shape: 0.5},
				RateSkew:     &loadgen.Skew{Dist: "lognormal", Param: 0.7},
				StartWindowS: 1,
			},
		},
		Storms: []loadgen.Storm{
			{AtS: 2.5, Fraction: 0.5, RestartDelayS: 0.2},
			{AtS: 4.5, Fraction: 1, RestartDelayS: 0.1},
		},
	}
}

// bench10xSpec is benchSoakSpec pushed an order of magnitude up the
// session axis: ten thousand clients, the same churn shapes, per-client
// rates scaled down so the schedule stays executable flat-out while the
// live population peaks ~10x higher. This is the copy-on-write memory
// headline: live-B/session at a population where the pre-COW ~45 KB
// floor would have meant ~350 MB of Q-tables alone.
func bench10xSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     199,
		HorizonS: 8,
		IDPrefix: "bench10x",
		Clients: []loadgen.ClientClass{
			{
				Name:            "steady",
				Count:           7000,
				Arrival:         loadgen.Arrival{Process: "poisson", RateHz: 1.5},
				RateSkew:        &loadgen.Skew{Dist: "pareto", Param: 2.2},
				LifetimeDecides: 30,
				StartWindowS:    4,
			},
			{
				Name:         "burst",
				Count:        3000,
				Arrival:      loadgen.Arrival{Process: "gamma", RateHz: 2, Shape: 0.5},
				RateSkew:     &loadgen.Skew{Dist: "lognormal", Param: 0.7},
				StartWindowS: 4,
			},
		},
		Storms: []loadgen.Storm{
			{AtS: 3.5, Fraction: 0.5, RestartDelayS: 0.3},
			{AtS: 6, Fraction: 1, RestartDelayS: 0.2},
		},
	}
}

// BenchmarkSoakChurn runs the soak across topologies — and, for flat, at
// 10x the session population — reporting churn tail latency and memory
// per session into BENCH_9.json. The memory floor reads off flat-10x's
// live-B/session. Only the memory-headline case pays for forced-GC live
// sampling, so the other cases' decides/s stay comparable across BENCH_*
// generations.
func BenchmarkSoakChurn(b *testing.B) {
	cases := []struct {
		name string
		cfg  SoakConfig
		spec func() loadgen.Spec
	}{
		{"flat", SoakConfig{Topology: "flat", CheckpointEvery: 25 * time.Millisecond}, benchSoakSpec},
		{"routed", SoakConfig{Topology: "routed"}, benchSoakSpec},
		{"direct", SoakConfig{Topology: "direct"}, benchSoakSpec},
		// BatchMax 128 matches the 10x spec's ~4k decides/s — full batches
		// still form, but the fixed lane-channel buffers stop polluting
		// the live-B/session headline the case exists to measure.
		{"flat-10x", SoakConfig{Topology: "flat", CheckpointEvery: 100 * time.Millisecond,
			LiveSampleEvery: 500 * time.Millisecond, BatchMax: 128}, bench10xSpec},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var res *SoakResult
			for i := 0; i < b.N; i++ {
				cfg := tc.cfg
				cfg.Spec = tc.spec()
				var err error
				res, err = RunSoak(cfg)
				if err != nil {
					b.Fatalf("RunSoak: %v", err)
				}
				if res.DecideErrors != 0 {
					b.Fatalf("%d decide errors", res.DecideErrors)
				}
			}
			b.ReportMetric(res.DecidesPerS, "decides/s")
			b.ReportMetric(res.P50US, "p50-us")
			b.ReportMetric(res.P99US, "p99-us")
			b.ReportMetric(res.P999US, "p999-us")
			b.ReportMetric(float64(res.PeakLive), "peak-live")
			if res.LiveBytesPerSession > 0 {
				b.ReportMetric(res.LiveBytesPerSession, "live-B/session")
			}
			b.ReportMetric(100*res.HeapRecoveredFrac, "heap-recovered-%")
			b.ReportMetric(float64(res.CheckpointWrites), "ckpt-writes")
			b.ReportMetric(float64(res.CheckpointSkipped), "ckpt-skipped")
			b.ReportMetric(float64(res.QTableCowFaults), "cow-faults")
		})
	}
}
