package serve_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"qgov/internal/serve"
)

// parityStep is one request of the HTTP parity script. project reduces
// a response to what both tiers must agree on; nil compares the whole
// decoded JSON body.
type parityStep struct {
	method, path, body string
	want               int // status both tiers must return
	project            func(t *testing.T, h http.Header, body []byte) any
}

// decodeAny decodes a JSON body generically; an empty body is nil.
func decodeAny(t *testing.T, body []byte) any {
	t.Helper()
	if len(body) == 0 {
		return nil
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return v
}

// TestHTTPParityFlatVsRouter runs one request script against a flat
// server and against a one-replica router: every status code must match
// and every decoded body must too, except the fields that describe the
// topology itself (health and metrics compare their fleet-summable
// fields; members compares its status).
func TestHTTPParityFlatVsRouter(t *testing.T) {
	flat := serve.New(serve.Options{})
	t.Cleanup(func() { _ = flat.Close() })
	flatHTTP := httptest.NewServer(flat.Handler())
	t.Cleanup(flatHTTP.Close)

	_, addrs := newFleet(t, 1, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rtHTTP := httptest.NewServer(rt.Handler())
	t.Cleanup(rtHTTP.Close)

	obs := `{"epoch":1,"exec_time_s":0.02,"period_s":0.04,"wall_time_s":0.04,"power_w":2,"temp_c":50,"opp_idx":10}`
	oversized := `{"requests":[` + strings.TrimSuffix(strings.Repeat(`{"session":"p1","obs":`+obs+`},`, 4097), ",") + `]}`

	health := func(t *testing.T, _ http.Header, body []byte) any {
		var h struct {
			Status    string `json:"status"`
			Sessions  int    `json:"sessions"`
			Decisions int64  `json:"decisions"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	metricsJSON := func(t *testing.T, _ http.Header, body []byte) any {
		var m struct {
			Decisions        int64           `json:"decisions"`
			Sessions         int             `json:"sessions"`
			Top              json.RawMessage `json:"top"`
			CheckpointWrites int64           `json:"checkpoint_writes"`
			QTablePoolPages  int64           `json:"qtable_pool_pages"`
			DecideLatency    struct {
				Count int64 `json:"count"`
			} `json:"decide_latency"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		// The latency histogram counts exactly the decisions served: a
		// decide the governor rejected is in neither.
		if m.DecideLatency.Count != m.Decisions {
			t.Errorf("decide_latency.count %d != decisions %d", m.DecideLatency.Count, m.Decisions)
		}
		return m
	}
	prometheus := func(_ *testing.T, h http.Header, body []byte) any {
		keep := []string{"rtmd_decisions_total ", "rtmd_sessions ", "rtmd_replicas_degraded ",
			"rtmd_checkpoint_writes_total ", "rtmd_qtable_pool_pages "}
		lines := []string{h.Get("Content-Type")}
		sc := bufio.NewScanner(strings.NewReader(string(body)))
		for sc.Scan() {
			for _, k := range keep {
				if strings.HasPrefix(sc.Text(), k) {
					lines = append(lines, sc.Text())
				}
			}
		}
		return lines
	}
	statusOnly := func(*testing.T, http.Header, []byte) any { return nil }

	script := []parityStep{
		{want: 201, method: "POST", path: "/v1/sessions", body: `{"id":"p1","governor":"rtm","seed":1}`},
		{want: 409, method: "POST", path: "/v1/sessions", body: `{"id":"p1","governor":"rtm","seed":1}`},
		{want: 201, method: "POST", path: "/v1/sessions", body: `{"id":"p2","governor":"ondemand"}`},
		{want: 400, method: "POST", path: "/v1/sessions", body: `{"id":`},
		{want: 400, method: "POST", path: "/v1/sessions", body: `{"id":"bad/id","governor":"rtm"}`},
		{want: 200, method: "GET", path: "/v1/sessions/p1"},
		{want: 404, method: "GET", path: "/v1/sessions/ghost"},
		{want: 404, method: "DELETE", path: "/v1/sessions/ghost"},
		{want: 200, method: "POST", path: "/v1/decide", body: `{"requests":[{"session":"p1","obs":{"epoch":-1}},{"session":"p2","obs":{"epoch":-1}}]}`},
		// p1 is an uncalibrated rtm and obs carries no cycles, so its
		// governor rejects the observation; p2 (ondemand) decides it.
		{want: 200, method: "POST", path: "/v1/decide", body: `{"requests":[{"session":"p1","obs":` + obs + `},{"session":"p2","obs":` + obs + `},{"session":"ghost","obs":` + obs + `}]}`},
		{want: 200, method: "POST", path: "/v1/sessions/p1/checkpoint"},
		{want: 404, method: "POST", path: "/v1/sessions/ghost/checkpoint"},
		{want: 400, method: "POST", path: "/v1/decide", body: `{"requests":[]}`},
		{want: 400, method: "POST", path: "/v1/decide", body: oversized},
		{want: 400, method: "POST", path: "/v1/decide", body: `{"requests":`},
		{want: 400, method: "GET", path: "/v1/trace?limit=x"},
		{want: 200, method: "GET", path: "/v1/trace?limit=5"},
		{want: 200, method: "GET", path: "/healthz", project: health},
		{want: 200, method: "GET", path: "/v1/metrics", project: metricsJSON},
		{want: 200, method: "GET", path: "/v1/metrics?top=3", project: metricsJSON},
		{want: 200, method: "GET", path: "/v1/metrics?top=-1", project: metricsJSON},
		{want: 200, method: "GET", path: "/v1/metrics?top=-1&format=prometheus", project: prometheus},
		{want: 200, method: "GET", path: "/v1/sessions"},
		{want: 200, method: "GET", path: "/v1/sessions?after=p0&limit=1"},
		{want: 200, method: "GET", path: "/v1/sessions?after=p1"},
		{want: 200, method: "GET", path: "/v1/sessions?limit=x"},
		{want: 200, method: "GET", path: "/v1/metrics?format=prometheus", project: prometheus},
		{want: 200, method: "GET", path: "/v1/members", project: statusOnly},
		{want: 204, method: "DELETE", path: "/v1/sessions/p1"},
		{want: 404, method: "GET", path: "/v1/sessions/p1"},
	}

	do := func(t *testing.T, base string, st parityStep) (int, any) {
		t.Helper()
		req, err := http.NewRequest(st.method, base+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if st.project != nil {
			return resp.StatusCode, st.project(t, resp.Header, body)
		}
		return resp.StatusCode, decodeAny(t, body)
	}
	for _, st := range script {
		fs, fb := do(t, flatHTTP.URL, st)
		rs, rb := do(t, rtHTTP.URL, st)
		if fs != st.want || rs != st.want {
			t.Errorf("%s %s: flat %d, router %d, want %d", st.method, st.path, fs, rs, st.want)
			continue
		}
		if !reflect.DeepEqual(fb, rb) {
			t.Errorf("%s %s (%d): bodies differ\nflat:   %v\nrouter: %v", st.method, st.path, fs, fb, rb)
		}
	}
}
