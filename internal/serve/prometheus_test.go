package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qgov/internal/serve"
	"qgov/internal/serve/client"
)

// promBody fetches /v1/metrics in Prometheus form from a base URL.
// extraQuery entries ("top=2") append to the query string.
func promBody(t *testing.T, cl *http.Client, url string, viaAccept bool, extraQuery ...string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	var query []string
	if viaAccept {
		req.Header.Set("Accept", "text/plain")
	} else {
		query = append(query, "format=prometheus")
	}
	query = append(query, extraQuery...)
	req.URL.RawQuery = strings.Join(query, "&")
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus metrics served as %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// mustContain asserts each wanted line is present.
func mustContain(t *testing.T, body string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(body, w) {
			t.Errorf("exposition missing %q in:\n%s", w, body)
		}
	}
}

// /v1/metrics must serve the Prometheus text exposition when asked via
// ?format=prometheus or Accept: text/plain. The default scrape is O(1)
// in session count: one server-wide latency histogram with cumulative
// le buckets summing to the decision count, and no per-session series
// at all. Per-session learning gauges appear only under ?top=K. The
// default content type stays JSON.
func TestMetricsPrometheusExposition(t *testing.T) {
	const decisions = 5
	h := newTestServer(t, serve.Options{})
	if st := h.post("/v1/sessions", map[string]any{"id": "p0", "governor": "rtm", "seed": 3}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	obs := steadyObs()
	for i := 0; i < decisions; i++ {
		obs.Epoch = i
		var resp struct {
			Decisions []decision `json:"decisions"`
		}
		if st := h.post("/v1/decide", map[string]any{
			"requests": []decideItem{{Session: "p0", Obs: obsFromGov(obs)}},
		}, &resp); st != http.StatusOK || resp.Decisions[0].Error != "" {
			t.Fatalf("decide %d: status %d %+v", i, st, resp.Decisions)
		}
	}

	for _, viaAccept := range []bool{false, true} {
		body := promBody(t, h.ts.Client(), h.ts.URL, viaAccept)
		mustContain(t, body,
			fmt.Sprintf("rtmd_decisions_total %d", decisions),
			"rtmd_sessions 1",
			"# TYPE rtmd_decision_latency_seconds histogram",
			fmt.Sprintf(`rtmd_decision_latency_seconds_bucket{le="+Inf"} %d`, decisions),
			"rtmd_decision_latency_seconds_sum ",
			fmt.Sprintf("rtmd_decision_latency_seconds_count %d", decisions),
		)
		// The default scrape must not scale with sessions: no series may
		// carry a session label until the operator opts in with ?top=K.
		if strings.Contains(body, `session="`) {
			t.Errorf("default exposition carries per-session series:\n%s", body)
		}
		// A flat server relays nothing: the routed-hop families must be
		// absent, not rendered as empty series.
		if strings.Contains(body, "rtmd_route_") {
			t.Errorf("flat server exposition contains routed-hop metrics:\n%s", body)
		}
		// Buckets are cumulative and render one line per log-width bin:
		// every finite le must be non-decreasing in count and strictly
		// increasing in edge, ending at the +Inf line holding the full
		// count. The overflow saturation signal rides alongside at zero —
		// five quiet decisions cannot escape a 1 s range.
		mustContain(t, body,
			"# TYPE rtmd_decision_latency_overflow_total counter",
			"rtmd_decision_latency_overflow_total 0",
		)
		prevCount, prevLE, buckets := -1, 0.0, 0
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, `rtmd_decision_latency_seconds_bucket{le="`) ||
				strings.Contains(line, `le="+Inf"`) {
				continue
			}
			var le float64
			var n int
			rest := line[strings.Index(line, `le="`)+4:]
			fmt.Sscanf(rest[:strings.Index(rest, `"`)], "%g", &le)
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n)
			if n < prevCount {
				t.Errorf("buckets not cumulative at le=%g: %d < %d", le, n, prevCount)
			}
			if le <= prevLE {
				t.Errorf("bucket edges not increasing: le=%g after %g", le, prevLE)
			}
			prevCount, prevLE = n, le
			buckets++
		}
		if buckets != 70 {
			t.Errorf("rendered %d finite buckets, want 70", buckets)
		}
		if prevCount != decisions {
			t.Errorf("largest finite bucket holds %d, want all %d decisions", prevCount, decisions)
		}
		mustContain(t, body,
			"# TYPE rtmd_checkpoint_writes_total counter",
			"rtmd_checkpoint_writes_total 0",
			"rtmd_checkpoint_skipped_total 0",
			// Go runtime health rides on every scrape.
			"# TYPE rtmd_go_goroutines gauge",
			"rtmd_go_goroutines ",
			"rtmd_go_gc_pause_p99_seconds ",
			"rtmd_go_gc_cycles_total ",
			"rtmd_go_heap_live_bytes ",
			"rtmd_go_sched_latency_p99_seconds ",
		)
	}

	// ?top=K opts back into per-session learning gauges, under the
	// separate rtmd_session_* families. Sessions keep no latency
	// histogram of their own, so no per-session latency family exists.
	body := promBody(t, h.ts.Client(), h.ts.URL, false, "top=4")
	if strings.Contains(body, "rtmd_session_decision_latency") {
		t.Errorf("top=K exposition carries a per-session latency family:\n%s", body)
	}
	mustContain(t, body,
		`rtmd_session_explorations{session="p0"}`,
		fmt.Sprintf(`rtmd_session_epochs{session="p0"} %d`, decisions),
		`rtmd_session_epsilon{session="p0"}`,
		fmt.Sprintf(`rtmd_session_visits{session="p0"} %d`, decisions),
		`rtmd_session_converged_fraction{session="p0"}`,
	)

	// The default content type is unchanged JSON, and the routed-hop
	// fields stay off a flat server's document entirely.
	var m metricsResponse
	if st := h.get("/v1/metrics", &m); st != http.StatusOK || m.Decisions != decisions {
		t.Fatalf("JSON metrics: status %d %+v", st, m)
	}
	var raw map[string]json.RawMessage
	if st := h.get("/v1/metrics", &raw); st != http.StatusOK {
		t.Fatalf("JSON metrics: status %d", st)
	}
	for _, key := range []string{"route_hops", "route_inflight"} {
		if _, present := raw[key]; present {
			t.Errorf("flat server metrics JSON carries %q", key)
		}
	}
}

// The router serves the same exposition over its fleet-merged metrics:
// the replicas' aggregate latency histograms merge into one, per-session
// learning gauges stay behind ?top=K, and the router's own relay-hop
// histograms ride alongside.
func TestRouterPrometheusMetrics(t *testing.T) {
	_, addrs := newFleet(t, 2, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := serve.NewRouterTCP(rt, lis)
	go func() { _ = rtTCP.Serve() }()
	defer rtTCP.Close()
	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ids := []string{"pr-0", "pr-1", "pr-2"}
	for i, id := range ids {
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i+1)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", id, st, err, resp)
		}
		if d, err := cl.Decide(id, steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide %s: %v %s", id, err, d.Err)
		}
	}

	body := promBody(t, rtHTTP.Client(), rtHTTP.URL, false)
	mustContain(t, body,
		fmt.Sprintf("rtmd_decisions_total %d", len(ids)),
		fmt.Sprintf("rtmd_sessions %d", len(ids)),
		"# TYPE rtmd_route_hop_seconds histogram",
		`rtmd_route_hop_seconds_count{replica="`,
		"rtmd_route_inflight_requests 0",
		// The fleet-merged aggregate: every decide across both replicas in
		// one unlabeled histogram.
		fmt.Sprintf("rtmd_decision_latency_seconds_count %d", len(ids)),
		// The router reports its own runtime health, not the replicas'.
		"rtmd_go_goroutines ",
	)
	if strings.Contains(body, `session="`) {
		t.Errorf("default router exposition carries per-session series:\n%s", body)
	}

	// Opting in with ?top=K surfaces the fleet's per-session gauges.
	topBody := promBody(t, rtHTTP.Client(), rtHTTP.URL, false, "top=8")
	for _, id := range ids {
		mustContain(t, topBody, fmt.Sprintf(`rtmd_session_epochs{session=%q} 1`, id))
	}

	// Each routed decide above was one relayed hop; the per-replica hop
	// counts must sum to exactly that across the fleet.
	hops := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "rtmd_route_hop_seconds_count{") {
			var n int
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n)
			hops += n
		}
	}
	if hops != len(ids) {
		t.Errorf("route hop counts sum to %d, want %d", hops, len(ids))
	}

	// The same document serves the JSON tier: route_hops per replica and
	// the in-flight gauge, absent on a flat server by construction.
	resp, err := rtHTTP.Client().Get(rtHTTP.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mj struct {
		RouteHops map[string]struct {
			Count int `json:"count"`
		} `json:"route_hops"`
		RouteInflight *int64 `json:"route_inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mj); err != nil {
		t.Fatal(err)
	}
	if mj.RouteInflight == nil || *mj.RouteInflight != 0 {
		t.Errorf("route_inflight = %v, want 0 (present)", mj.RouteInflight)
	}
	jsonHops := 0
	for _, h := range mj.RouteHops {
		jsonHops += h.Count
	}
	if jsonHops != len(ids) {
		t.Errorf("JSON route_hops counts sum to %d, want %d", jsonHops, len(ids))
	}
}
