package serve_test

import (
	"net/http"
	"testing"

	"qgov/internal/serve"
)

// learningMetrics is one top-K entry of /v1/metrics (a session info).
type learningMetrics struct {
	ID                string   `json:"id"`
	Epochs            int64    `json:"epochs"`
	Explorations      int      `json:"explorations"`
	ConvergedAt       int      `json:"converged_at"`
	Epsilon           *float64 `json:"epsilon"`
	VisitTotal        *int     `json:"visit_total"`
	ConvergedFraction *float64 `json:"converged_fraction"`
}

type latencyMetrics struct {
	Count      int       `json:"count"`
	LoUS       float64   `json:"lo_us"`
	HiUS       float64   `json:"hi_us"`
	BinWidthUS float64   `json:"bin_width_us"`
	Scale      string    `json:"scale"`
	EdgesUS    []float64 `json:"edges_us"`
	Bins       []int     `json:"bins"`
	Underflow  int       `json:"underflow"`
	Overflow   int       `json:"overflow"`
	P99US      *float64  `json:"p99_us"`
	P999US     *float64  `json:"p999_us"`
}

type metricsResponse struct {
	Decisions     int64             `json:"decisions"`
	Sessions      int               `json:"sessions"`
	Top           []learningMetrics `json:"top"`
	DecideLatency *latencyMetrics   `json:"decide_latency"`
}

// After a known decision sequence, /v1/metrics must account for every
// decision exactly once in the server-wide latency histogram: the bin
// counts (plus overflow) sum to the number of decisions served, nothing
// lands below the range, and the histogram geometry is the advertised
// log-width grid over [100 ns, 1 s] with explicit bin edges. Sessions
// are a count; their learning detail is behind ?top=K.
func TestMetricsLatencyHistogram(t *testing.T) {
	const decisions = 37
	h := newTestServer(t, serve.Options{})
	if st := h.post("/v1/sessions", map[string]any{"id": "m0", "governor": "rtm", "seed": 3}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	// A second, never-decided session must report an all-zero histogram.
	if st := h.post("/v1/sessions", map[string]any{"id": "idle", "governor": "rtm"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}

	obs := steadyObs()
	for i := 0; i < decisions; i++ {
		obs.Epoch = i
		var resp struct {
			Decisions []decision `json:"decisions"`
		}
		if st := h.post("/v1/decide", map[string]any{
			"requests": []decideItem{{Session: "m0", Obs: obsJSON{
				Epoch: obs.Epoch, Cycles: obs.Cycles, Util: obs.Util,
				ExecTimeS: obs.ExecTimeS, PeriodS: obs.PeriodS, WallTimeS: obs.WallTimeS,
				PowerW: obs.PowerW, TempC: obs.TempC, OPPIdx: obs.OPPIdx,
			}}},
		}, &resp); st != http.StatusOK {
			t.Fatalf("decide %d returned %d", i, st)
		}
		if resp.Decisions[0].Error != "" {
			t.Fatal(resp.Decisions[0].Error)
		}
	}

	var m metricsResponse
	if st := h.get("/v1/metrics", &m); st != http.StatusOK {
		t.Fatalf("metrics returned %d", st)
	}
	if m.Decisions != decisions {
		t.Errorf("server counted %d decisions, want %d", m.Decisions, decisions)
	}

	if m.Sessions != 2 {
		t.Errorf("metrics counts %d sessions, want 2", m.Sessions)
	}
	if m.Top != nil {
		t.Errorf("default metrics lists sessions: %+v", m.Top)
	}
	lat := m.DecideLatency
	if lat == nil {
		t.Fatal("metrics missing decide_latency")
	}
	if lat.LoUS != 0.1 || lat.HiUS != 1e6 || len(lat.Bins) != 70 {
		t.Errorf("histogram geometry %g..%g × %d bins, want 0.1..1e6 × 70",
			lat.LoUS, lat.HiUS, len(lat.Bins))
	}
	if lat.Scale != "log" {
		t.Errorf("histogram scale %q, want \"log\"", lat.Scale)
	}
	if lat.BinWidthUS != 0 {
		t.Errorf("log histogram advertises fixed bin width %g", lat.BinWidthUS)
	}
	if len(lat.EdgesUS) != len(lat.Bins) {
		t.Errorf("%d bin edges for %d bins", len(lat.EdgesUS), len(lat.Bins))
	} else {
		if got := lat.EdgesUS[len(lat.EdgesUS)-1]; got != lat.HiUS {
			t.Errorf("last edge %g, want hi_us %g", got, lat.HiUS)
		}
		for i := 1; i < len(lat.EdgesUS); i++ {
			if lat.EdgesUS[i] <= lat.EdgesUS[i-1] {
				t.Errorf("edges not increasing at %d: %g <= %g", i, lat.EdgesUS[i], lat.EdgesUS[i-1])
			}
		}
	}
	if lat.Count != decisions {
		t.Errorf("histogram holds %d samples, want %d", lat.Count, decisions)
	}
	// No real decision completes under 100 ns, and the p99 estimate must
	// be a real (finite, in-range) number unless the tail escaped.
	if lat.Underflow != 0 {
		t.Errorf("%d decisions below the 100 ns floor", lat.Underflow)
	}
	if lat.Overflow == 0 {
		if lat.P99US == nil || *lat.P99US <= 0 || *lat.P99US > lat.HiUS {
			t.Errorf("p99_us = %v, want finite within (0, hi]", lat.P99US)
		}
	}
	sum := lat.Underflow + lat.Overflow
	for _, c := range lat.Bins {
		sum += c
	}
	if sum != decisions {
		t.Errorf("bins account for %d decisions, want %d", sum, decisions)
	}

	// Exploration/convergence counters are opt-in per session: ?top=K
	// lists the learners with the most epochs, busiest first. The RTM
	// holds ε at ε₀ for its first 110 epochs, accumulates one table visit
	// per decision, and cannot have a converged policy 37 epochs in.
	if st := h.get("/v1/metrics?top=5", &m); st != http.StatusOK {
		t.Fatalf("metrics?top=5 returned %d", st)
	}
	if len(m.Top) != 2 || m.Top[0].ID != "m0" || m.Top[1].ID != "idle" {
		t.Fatalf("top entries %+v, want m0 then idle", m.Top)
	}
	idle := m.Top[1]
	lrn := m.Top[0]
	if lrn.Epochs != decisions {
		t.Errorf("learning epochs = %d, want %d", lrn.Epochs, decisions)
	}
	if lrn.Epsilon == nil || *lrn.Epsilon <= 0 || *lrn.Epsilon > 1 {
		t.Errorf("epsilon = %v, want in (0, 1]", lrn.Epsilon)
	}
	if lrn.VisitTotal == nil || *lrn.VisitTotal != decisions {
		t.Errorf("visit_total = %v, want %d", lrn.VisitTotal, decisions)
	}
	if lrn.ConvergedFraction == nil || *lrn.ConvergedFraction < 0 || *lrn.ConvergedFraction > 1 {
		t.Errorf("converged_fraction = %v, want in [0, 1]", lrn.ConvergedFraction)
	}
	if lrn.ConvergedAt < -1 || lrn.ConvergedAt >= decisions {
		t.Errorf("converged_at = %d after %d epochs", lrn.ConvergedAt, decisions)
	}
	if lrn.Explorations < 0 {
		t.Errorf("explorations = %d", lrn.Explorations)
	}
	if idle.Epochs != 0 || idle.VisitTotal == nil || *idle.VisitTotal != 0 {
		t.Errorf("idle session entry: %+v", idle)
	}
}

// A non-learning governor is never a top-K entry, and its info carries
// no exploration fields.
func TestMetricsOmitsLearningForNonLearners(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	if st := h.post("/v1/sessions", map[string]any{"id": "od", "governor": "ondemand"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	var m metricsResponse
	if st := h.get("/v1/metrics?top=5", &m); st != http.StatusOK {
		t.Fatalf("metrics returned %d", st)
	}
	if m.Sessions != 1 || len(m.Top) != 0 {
		t.Errorf("ondemand session: %d sessions, top %+v; want 1 and no entries", m.Sessions, m.Top)
	}
	var info learningMetrics
	if st := h.get("/v1/sessions/od", &info); st != http.StatusOK {
		t.Fatalf("info returned %d", st)
	}
	if info.Explorations != -1 || info.Epsilon != nil || info.VisitTotal != nil || info.ConvergedFraction != nil {
		t.Errorf("ondemand info reports learning counters: %+v", info)
	}
}
