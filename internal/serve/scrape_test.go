package serve_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"qgov/internal/promlint"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/wire"
)

// lintExposition runs the repo's own Prometheus linter over a live
// scrape and fails on any format violation.
func lintExposition(t *testing.T, body string) *promlint.Report {
	t.Helper()
	rep, err := promlint.Lint(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("promlint: %s", p)
	}
	return rep
}

// Default-exposition budgets: head room over the current exposition
// (~6 KB, ~100 series) but far below what even 100 per-session
// histograms would cost, so a regression that reintroduces unbounded
// series trips them long before it troubles a real scraper.
const (
	scrapeByteBudget   = 32 * 1024
	scrapeSeriesBudget = 300
)

// The scale guarantee behind the cardinality fix: a default scrape of a
// server holding 10k sessions must stay within a fixed byte and series
// budget — the same exposition an idle server produces — because
// per-session series only exist behind ?top=K.
func TestScrapeByteBudget10kSessions(t *testing.T) {
	const (
		sessions     = 10_000
		byteBudget   = scrapeByteBudget
		seriesBudget = scrapeSeriesBudget
	)
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < sessions; i++ {
		body := fmt.Sprintf(`{"id":"scale-%d","governor":"rtm","seed":%d}`, i, i)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %d: status %d err %v (%s)", i, st, err, resp)
		}
	}
	// A little traffic so the aggregate histogram is populated.
	for i := 0; i < 64; i++ {
		if d, err := cl.Decide(fmt.Sprintf("scale-%d", i), steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide %d: %v / %q", i, err, d.Err)
		}
	}

	body := promBody(t, h.ts.Client(), h.ts.URL, false)
	rep := lintExposition(t, body)
	if len(body) > byteBudget {
		t.Errorf("default scrape of %d sessions is %d bytes, budget %d", sessions, len(body), byteBudget)
	}
	if rep.Series > seriesBudget {
		t.Errorf("default scrape of %d sessions has %d series, budget %d", sessions, rep.Series, seriesBudget)
	}
	mustContain(t, body,
		fmt.Sprintf("rtmd_sessions %d", sessions),
		"rtmd_decision_latency_seconds_count 64",
	)

	// ?top=K bounds the opt-in slice too: asking for 5 renders exactly 5
	// sessions' series, and the clamp keeps even top=10000 bounded.
	top5 := promBody(t, h.ts.Client(), h.ts.URL, false, "top=5")
	if n := strings.Count(top5, "rtmd_session_epochs{"); n != 5 {
		t.Errorf("top=5 rendered %d sessions, want 5", n)
	}
	lintExposition(t, top5)
	clamped := promBody(t, h.ts.Client(), h.ts.URL, false, fmt.Sprintf("top=%d", sessions))
	if n := strings.Count(clamped, "rtmd_session_epochs{"); n != 64 {
		t.Errorf("top=%d rendered %d sessions, clamp is 64", sessions, n)
	}
	lintExposition(t, clamped)

	// The top-K selection is by epochs: the busiest session must be in
	// the top slice.
	for i := 0; i < 8; i++ {
		if d, err := cl.Decide("scale-3", steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide: %v / %q", err, d.Err)
		}
	}
	top1 := promBody(t, h.ts.Client(), h.ts.URL, false, "top=1")
	mustContain(t, top1, `rtmd_session_epochs{session="scale-3"} 9`)
}

// Both tiers' expositions must satisfy the linter in their default and
// opt-in forms — the in-process version of the CI scrape-and-lint gate.
func TestExpositionHygieneBothTiers(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	for i := 0; i < 3; i++ {
		if st := h.post("/v1/sessions", map[string]any{"id": fmt.Sprintf("lint-%d", i), "governor": "rtm", "seed": i + 1}, nil); st != http.StatusCreated {
			t.Fatalf("create returned %d", st)
		}
	}
	var resp struct {
		Decisions []decision `json:"decisions"`
	}
	if st := h.post("/v1/decide", map[string]any{
		"requests": []decideItem{{Session: "lint-0", Obs: obsFromGov(steadyObs())}},
	}, &resp); st != http.StatusOK {
		t.Fatalf("decide returned %d", st)
	}
	lintExposition(t, promBody(t, h.ts.Client(), h.ts.URL, false))
	lintExposition(t, promBody(t, h.ts.Client(), h.ts.URL, false, "top=64"))

	_, addrs := newFleet(t, 2, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()
	rcl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("rlint-%d", i)
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i+1)
		if st, r, err := rcl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", id, st, err, r)
		}
		if d, err := rcl.Decide(id, steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide %s: %v / %q", id, err, d.Err)
		}
	}
	lintExposition(t, promBody(t, rtHTTP.Client(), rtHTTP.URL, false))
	lintExposition(t, promBody(t, rtHTTP.Client(), rtHTTP.URL, false, "top=64"))
}

// createSessions creates n rtm sessions named prefix-0 … prefix-(n-1)
// over one binary connection to addr.
func createSessions(t *testing.T, addr, prefix string, n int) {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer cl.Close()
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"id":"%s-%d","governor":"rtm","seed":%d}`, prefix, i, i)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Errorf("create %s-%d: status %d err %v (%s)", prefix, i, st, err, resp)
			return
		}
	}
}

// A router's scrape is the sum of fixed-size replica documents, so it
// stays within the flat server's budgets however many sessions the fleet
// holds: 3 replicas × 10k rtm sessions scrape through the router with no
// degraded replica (each replica's document once outgrew
// wire.MaxPayload at ~630 sessions), in both encodings.
func TestRoutedScrape3x10kSessions(t *testing.T) {
	const perReplica = 10_000
	_, addrs := newFleet(t, 3, serve.Options{})
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			createSessions(t, addr, fmt.Sprintf("r%d", i), perReplica)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()

	body := promBody(t, rtHTTP.Client(), rtHTTP.URL, false)
	rep := lintExposition(t, body)
	if len(body) > scrapeByteBudget || rep.Series > scrapeSeriesBudget {
		t.Errorf("routed default scrape of %d sessions: %d bytes, %d series; budget %d bytes, %d series",
			3*perReplica, len(body), rep.Series, scrapeByteBudget, scrapeSeriesBudget)
	}
	mustContain(t, body,
		fmt.Sprintf("rtmd_sessions %d", 3*perReplica),
		"rtmd_replicas_degraded 0",
	)
	lintExposition(t, promBody(t, rtHTTP.Client(), rtHTTP.URL, false, "top=64"))

	var m struct {
		Sessions int               `json:"sessions"`
		Top      []json.RawMessage `json:"top"`
		Degraded []string          `json:"degraded_replicas"`
	}
	if st := getJSON(t, rtHTTP.URL+"/v1/metrics?top=64", &m); st != http.StatusOK {
		t.Fatalf("routed JSON metrics returned %d", st)
	}
	if m.Sessions != 3*perReplica || len(m.Top) != 64 || len(m.Degraded) != 0 {
		t.Errorf("routed JSON metrics: %d sessions, %d top entries, degraded %v; want %d, 64, none",
			m.Sessions, len(m.Top), m.Degraded, 3*perReplica)
	}
}

// The default metrics document costs the same at any session count: the
// Prometheus render and the JSON body allocate the same at 10 and at
// 10,000 sessions, and the JSON body grows only by the digits of its
// counters (the per-session map it replaced was ~1.6 KB per session).
func TestMetricsWorkIndependentOfSessions(t *testing.T) {
	srv := serve.New(serve.Options{})
	t.Cleanup(func() { _ = srv.Close() })
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := serve.NewTCP(srv, lis)
	go func() { _ = ts.Serve() }()
	t.Cleanup(func() { _ = ts.Close() })
	handler := srv.Handler()

	measure := func() (promAllocs, jsonAllocs float64, jsonLen int) {
		render := func(url string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s returned %d", url, rec.Code)
			}
			return rec
		}
		promAllocs = testing.AllocsPerRun(20, func() { render("/v1/metrics?format=prometheus") })
		jsonAllocs = testing.AllocsPerRun(20, func() { render("/v1/metrics") })
		return promAllocs, jsonAllocs, render("/v1/metrics").Body.Len()
	}

	createSessions(t, lis.Addr().String(), "few", 10)
	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if d, err := cl.Decide(fmt.Sprintf("few-%d", i), steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide: %v / %q", err, d.Err)
		}
	}
	p10, j10, len10 := measure()
	createSessions(t, lis.Addr().String(), "many", 9_990)
	if n := srv.SessionCount(); n != 10_000 {
		t.Fatalf("%d sessions, want 10000", n)
	}
	p10k, j10k, len10k := measure()
	t.Logf("10 → 10k sessions: Prometheus %.0f → %.0f allocs, JSON %.0f → %.0f allocs, %d → %d bytes",
		p10, p10k, j10, j10k, len10, len10k)

	// fmt boxes each integer it prints, and boxing one of 256 or more
	// allocates, so a counter that grows past 255 (the session count, the
	// live heap) may add one allocation; nothing else may differ.
	const slack = 8
	if p10k > p10+slack {
		t.Errorf("Prometheus render allocates %.0f at 10k sessions vs %.0f at 10", p10k, p10)
	}
	if j10k > j10+slack {
		t.Errorf("JSON metrics allocates %.0f at 10k sessions vs %.0f at 10", j10k, j10)
	}
	if len10k > len10+64 {
		t.Errorf("JSON metrics body is %d bytes at 10k sessions vs %d at 10", len10k, len10)
	}
}

// ?top=K picks the K learning sessions with the most epochs across the
// whole fleet — each replica answers its own top K and the router merges
// them — busiest first with ties by id, in both encodings.
func TestRoutedTopKAcrossReplicas(t *testing.T) {
	_, addrs := newFleet(t, 3, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()
	cl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Session k decides k times, except t-11, which ties t-10 at 10. An
	// ondemand session decides most of all but does not learn, so it is
	// never a top entry.
	decides := func(k int) int { return min(k, 10) }
	owners := map[string]bool{}
	for k := 0; k < 12; k++ {
		id := fmt.Sprintf("t-%02d", k)
		if st, r, err := cl.CreateSession(fmt.Appendf(nil, `{"id":%q,"governor":"rtm","seed":%d}`, id, k)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", id, st, err, r)
		}
		for n := 0; n < decides(k); n++ {
			if d, err := cl.Decide(id, steadyObs()); err != nil || d.Err != "" {
				t.Fatalf("decide %s: %v / %q", id, err, d.Err)
			}
		}
		if k >= 7 {
			owner, _ := rt.Owner(id)
			owners[owner] = true
		}
	}
	if st, r, err := cl.CreateSession([]byte(`{"id":"od","governor":"ondemand"}`)); err != nil || st != http.StatusCreated {
		t.Fatalf("create od: status %d err %v (%s)", st, err, r)
	}
	for n := 0; n < 20; n++ {
		if d, err := cl.Decide("od", steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide od: %v / %q", err, d.Err)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("the busiest sessions all live on one replica (%v); the merge is untested", owners)
	}

	want := []struct {
		id     string
		epochs int
	}{{"t-10", 10}, {"t-11", 10}, {"t-09", 9}, {"t-08", 8}, {"t-07", 7}}
	var m struct {
		Top []struct {
			ID     string `json:"id"`
			Epochs int    `json:"epochs"`
		} `json:"top"`
	}
	if st := getJSON(t, rtHTTP.URL+"/v1/metrics?top=5", &m); st != http.StatusOK {
		t.Fatalf("metrics?top=5 returned %d", st)
	}
	if len(m.Top) != len(want) {
		t.Fatalf("top=5 returned %d entries: %+v", len(m.Top), m.Top)
	}
	for i, w := range want {
		if m.Top[i].ID != w.id || m.Top[i].Epochs != w.epochs {
			t.Errorf("top[%d] = %+v, want %s with %d epochs", i, m.Top[i], w.id, w.epochs)
		}
	}
	body := promBody(t, rtHTTP.Client(), rtHTTP.URL, false, "top=5")
	if n := strings.Count(body, "rtmd_session_epochs{"); n != len(want) {
		t.Errorf("top=5 exposition has %d sessions, want %d", n, len(want))
	}
	for _, w := range want {
		mustContain(t, body, fmt.Sprintf(`rtmd_session_epochs{session=%q} %d`, w.id, w.epochs))
	}

	// A negative K reads as 0 on both tiers and over the binary plane
	// too: a fixed-size document with no entries, never a failed slice.
	flat, err := client.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	for tier, c := range map[string]*client.Client{"router": cl, "replica": flat} {
		st, resp, err := c.Control(wire.OpMetrics, "", []byte(`{"top":-1}`))
		if err != nil || st != http.StatusOK {
			t.Fatalf("%s: OpMetrics {\"top\":-1}: status %d err %v (%s)", tier, st, err, resp)
		}
		var neg struct {
			Top []json.RawMessage `json:"top"`
		}
		if err := json.Unmarshal(resp, &neg); err != nil || neg.Top != nil {
			t.Errorf("%s: OpMetrics {\"top\":-1} listed %d entries (err %v)", tier, len(neg.Top), err)
		}
	}
	var neg struct {
		Top []json.RawMessage `json:"top"`
	}
	if st := getJSON(t, rtHTTP.URL+"/v1/metrics?top=-1", &neg); st != http.StatusOK || neg.Top != nil {
		t.Errorf("router metrics?top=-1 returned %d with %d entries", st, len(neg.Top))
	}
}

// GET /v1/sessions pages through the fleet by id: a walk of 2,500
// sessions on 3 replicas through the router, following next cursors,
// returns every id exactly once and in order, on both planes; a page
// never exceeds the 1,000-session cap, whatever limit asks for.
func TestRoutedSessionPagination(t *testing.T) {
	const sessions = 2_500
	_, addrs := newFleet(t, 3, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()
	rtAddr := startRouterTCP(t, rt)
	cl, err := client.Dial(rtAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want := make([]string, sessions)
	for i := range want {
		want[i] = fmt.Sprintf("pg-%04d", i)
		if st, r, err := cl.CreateSession(fmt.Appendf(nil, `{"id":%q,"governor":"ondemand"}`, want[i])); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", want[i], st, err, r)
		}
	}

	type page struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
		Next string `json:"next"`
	}
	walk := func(name string, fetch func(after string) page, size int) {
		var got []string
		after := ""
		for pages := 0; ; pages++ {
			if pages > sessions {
				t.Fatalf("%s: the walk does not end", name)
			}
			p := fetch(after)
			if len(p.Sessions) > size {
				t.Fatalf("%s: page of %d sessions, limit %d", name, len(p.Sessions), size)
			}
			for _, s := range p.Sessions {
				got = append(got, s.ID)
			}
			if p.Next == "" {
				break
			}
			after = p.Next
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: walked %d ids, want each of %d exactly once in order", name, len(got), sessions)
		}
	}
	walk("HTTP limit=300", func(after string) page {
		var p page
		if st := getJSON(t, rtHTTP.URL+"/v1/sessions?limit=300&after="+after, &p); st != http.StatusOK {
			t.Fatalf("list after %q returned %d", after, st)
		}
		return p
	}, 300)
	walk("binary default limit", func(after string) page {
		st, body, err := cl.ListSessions(after, 0)
		if err != nil || st != http.StatusOK {
			t.Fatalf("list after %q: status %d err %v", after, st, err)
		}
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}, 100)

	var p page
	if st := getJSON(t, rtHTTP.URL+"/v1/sessions?limit=100000", &p); st != http.StatusOK || len(p.Sessions) != 1000 || p.Next != want[999] {
		t.Errorf("limit=100000: status %d, %d sessions, next %q; want the 1000 cap and next %q", st, len(p.Sessions), p.Next, want[999])
	}
}
