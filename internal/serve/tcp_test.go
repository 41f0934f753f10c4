package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

// newTCPServer attaches a binary listener to an HTTP test server's
// Server: HTTP remains the control plane (session creation), TCP carries
// decisions. Cleanup closes the TCP half before the Server itself.
func newTCPServer(t *testing.T, h *testServer) *serve.TCPServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := serve.NewTCP(h.srv, lis)
	go func() {
		if err := ts.Serve(); err != nil {
			t.Errorf("tcp serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = ts.Close() })
	return ts
}

func steadyObs() governor.Observation {
	return governor.Observation{
		Epoch:     1,
		Cycles:    []uint64{30e6, 31e6, 29e6, 30e6},
		Util:      []float64{0.6, 0.5, 0.7, 0.6},
		ExecTimeS: 0.025,
		PeriodS:   0.040,
		WallTimeS: 0.040,
		PowerW:    2,
		TempC:     50,
		OPPIdx:    10,
	}
}

func TestTCPDecideBasics(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)
	if st := h.post("/v1/sessions", map[string]any{"id": "a", "governor": "ondemand"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}

	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	d, err := cl.Decide("a", steadyObs())
	if err != nil {
		t.Fatal(err)
	}
	if d.Err != "" || d.OPPIdx < 0 || d.FreqMHz <= 0 {
		t.Errorf("decide over TCP: %+v", d)
	}

	// Unknown sessions fail the entry, not the connection — exactly like
	// the JSON batch.
	d, err = cl.Decide("ghost", steadyObs())
	if err != nil {
		t.Fatal(err)
	}
	if d.Err == "" || d.OPPIdx != -1 {
		t.Errorf("unknown session over TCP: %+v", d)
	}

	// The connection survived the failed entry.
	if d, err = cl.Decide("a", steadyObs()); err != nil || d.Err != "" {
		t.Errorf("decide after failed entry: %+v err %v", d, err)
	}
}

// A poisoned stream (bad magic) must drop that connection — framing is
// unrecoverable — without disturbing other connections.
func TestTCPProtocolErrorDropsConnection(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)
	if st := h.post("/v1/sessions", map[string]any{"id": "a", "governor": "ondemand"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}

	good, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	bad, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := bad.Read(make([]byte, 1)); err == nil {
		t.Errorf("server answered %d bytes on a poisoned stream", n)
	}

	if d, err := good.Decide("a", steadyObs()); err != nil || d.Err != "" {
		t.Errorf("healthy connection disturbed: %+v err %v", d, err)
	}
}

// Graceful shutdown over TCP mirrors the HTTP drain: requests already
// written when Shutdown begins are read, decided, and answered; the
// connection closes only after the drain; and the final checkpoint
// (Server.Close) then freezes the learning those drained decisions did.
func TestTCPGracefulShutdownDrainsInFlight(t *testing.T) {
	const nSessions = 40
	dir := t.TempDir()
	srv := serve.New(serve.Options{CheckpointDir: dir, CheckpointEvery: time.Hour})
	h := newHTTPOnly(t, srv)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := serve.NewTCP(srv, lis)
	serveDone := make(chan error, 1)
	go func() { serveDone <- ts.Serve() }()

	ids := make([]string, nSessions)
	obs := make([]governor.Observation, nSessions)
	out := make([]client.Decision, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("drain-%d", i)
		obs[i] = steadyObs()
		if st := h.post("/v1/sessions", map[string]any{"id": ids[i], "governor": "rtm", "seed": i + 1}, nil); st != http.StatusCreated {
			t.Fatalf("create %s returned %d", ids[i], st)
		}
	}

	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One round trip first: Dial returns before the accept loop has
	// adopted the connection, and a connection the server never adopted
	// would be cut — not drained — by Shutdown.
	if d, err := cl.Decide(ids[0], obs[0]); err != nil || d.Err != "" {
		t.Fatalf("warm-up decide: %+v err %v", d, err)
	}

	// Put a full batch in flight, then shut down while it is on the wire.
	batchErr := make(chan error, 1)
	go func() { batchErr <- cl.DecideBatch(ids, obs, out) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := make(chan error, 1)
	go func() { shutErr <- ts.Shutdown(ctx) }()

	// Every in-flight request is answered during the drain.
	if err := <-batchErr; err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", err)
	}
	for i, d := range out {
		if d.Err != "" || d.OPPIdx < 0 {
			t.Fatalf("drained decision %d: %+v", i, d)
		}
	}

	// Release the connection; the drain then completes well before the
	// deadline and the listener is gone.
	if err := cl.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := <-shutErr; err != nil {
		t.Errorf("graceful shutdown returned %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v", err)
	}
	if _, err := net.DialTimeout("tcp", lis.Addr().String(), 500*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}

	// Only now does the server freeze state — the drained decisions are in.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := os.Stat(dir + "/" + id + ".state"); err != nil {
			t.Errorf("final checkpoint for %s missing: %v", id, err)
		}
	}
}

// newHTTPOnly wraps an existing Server with an HTTP control plane whose
// lifetime the test manages (no automatic srv.Close, unlike
// newTestServer — shutdown-ordering tests close the server themselves).
func newHTTPOnly(t *testing.T, srv *serve.Server) *testServer {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testServer{t: t, srv: srv, ts: ts}
}

// A non-finite reading must be refused before it reaches the learner: a
// NaN in the RTM's Q-table would make every later checkpoint of the
// session fail to encode. After 60 epochs of learning over binary TCP,
// a frame with a NaN execution time and infinite power (and one frame
// per other non-finite field) gets an explicit error, leaves the frozen
// state byte-identical, and every later decide equals that of a twin
// session that never saw the bad frames.
func TestDecideRejectsNonFiniteObservation(t *testing.T) {
	h := checkRefusedFrames(t, []refusedFrame{
		{"exec_time_s is not finite", func(o *governor.Observation) { o.ExecTimeS, o.PowerW = math.NaN(), math.Inf(1) }},
		{"period_s is not finite", func(o *governor.Observation) { o.PeriodS = math.Inf(-1) }},
		{"wall_time_s is not finite", func(o *governor.Observation) { o.WallTimeS = math.NaN() }},
		{"temp_c is not finite", func(o *governor.Observation) { o.TempC = math.Inf(1) }},
		{"util is not finite", func(o *governor.Observation) { o.Util[1] = math.NaN() }},
	})

	// JSON cannot carry NaN or Inf; an out-of-range literal is the
	// nearest it gets, and the decode must refuse it.
	resp, err := h.ts.Client().Post(h.ts.URL+"/v1/decide", "application/json", strings.NewReader(
		`{"requests":[{"session":"bad","obs":{"epoch":1,"exec_time_s":1e400,"period_s":0.04,"wall_time_s":0.04,"power_w":2,"temp_c":50}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("JSON decide with 1e400 returned %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// A finite reading no real epoch produces must be refused the same way:
// a non-positive period (which otherwise surfaced only as a recovered
// governor panic), a negative execution time, wall time or power, and a
// utilisation outside [0, 1] — all of which a learner would otherwise
// fold into its tables silently.
func TestDecideRejectsOutOfRangeObservation(t *testing.T) {
	checkRefusedFrames(t, []refusedFrame{
		{"period_s must be positive", func(o *governor.Observation) { o.PeriodS = 0 }},
		{"period_s must be positive", func(o *governor.Observation) { o.PeriodS = -o.PeriodS }},
		{"exec_time_s is negative", func(o *governor.Observation) { o.ExecTimeS = -0.001 }},
		{"wall_time_s is negative", func(o *governor.Observation) { o.WallTimeS = -o.WallTimeS }},
		{"power_w is negative", func(o *governor.Observation) { o.PowerW = -2 }},
		{"util is outside [0, 1]", func(o *governor.Observation) { o.Util[2] = 5 }},
		{"util is outside [0, 1]", func(o *governor.Observation) { o.Util[0] = -0.1 }},
	})
}

// refusedFrame spoils one otherwise valid observation; the decide must
// fail with an error containing want.
type refusedFrame struct {
	want  string
	spoil func(o *governor.Observation)
}

// checkRefusedFrames drives two twin RTM sessions over binary TCP
// through 60 epochs of h264-football on a15, sends each spoiled frame to
// one of them, and requires an explicit per-entry error for each, a
// frozen state byte-identical before and after, and decisions equal to
// the twin's to the end of the trace. It returns the server for further
// checks on the spoiled session ("bad").
func checkRefusedFrames(t *testing.T, frames []refusedFrame) *testServer {
	t.Helper()
	const (
		wl     = "h264-football"
		seed   = 5
		frameN = 120
		warm   = 60
	)
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	gen, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen(seed, frameN)
	sims := map[string]*sim.Session{}
	for _, id := range []string{"bad", "twin"} {
		if st := h.post("/v1/sessions", map[string]any{
			"id": id, "governor": "rtm", "workload": wl,
			"period_s": tr.RefTimeS, "seed": seed, "calibration_cc": tr.MaxPerFrame(),
		}, nil); st != http.StatusCreated {
			t.Fatalf("create %s returned %d", id, st)
		}
		sims[id] = sim.NewSession(scenarioConfig(t, "rtm/"+wl+"/a15", seed, frameN))
	}
	decide := func(id string) int {
		t.Helper()
		d, err := cl.Decide(id, sims[id].Observe())
		if err != nil || d.Err != "" {
			t.Fatalf("decide %s: %v / %q", id, err, d.Err)
		}
		sims[id].Step(d.OPPIdx)
		return d.OPPIdx
	}
	freeze := func(id string) []byte {
		t.Helper()
		st, body, err := cl.CheckpointSession(id)
		if err != nil || st != http.StatusOK {
			t.Fatalf("checkpoint: status %d err %v (%s)", st, err, body)
		}
		var ck struct {
			State json.RawMessage `json:"state"`
		}
		if err := json.Unmarshal(body, &ck); err != nil {
			t.Fatal(err)
		}
		return ck.State
	}
	for n := 0; n < warm; n++ {
		if a, b := decide("bad"), decide("twin"); a != b {
			t.Fatalf("epoch %d: twins diverged before the bad frame (%d vs %d)", n, a, b)
		}
	}

	before := freeze("bad")
	for _, f := range frames {
		obs := sims["bad"].Observe()
		obs.Util = append([]float64(nil), obs.Util...)
		f.spoil(&obs)
		d, err := cl.Decide("bad", obs)
		if err != nil {
			t.Fatal(err)
		}
		if d.OPPIdx != -1 || !strings.Contains(d.Err, f.want) {
			t.Fatalf("spoiled observation (%s) answered %+v", f.want, d)
		}
	}
	if after := freeze("bad"); !bytes.Equal(before, after) {
		t.Fatal("refused observation changed the learnt state")
	}
	// The twins stay in lockstep to the end of the trace, and learn the
	// same state: nothing of the refused frame leaked into the learner.
	for !sims["bad"].Done() {
		if a, b := decide("bad"), decide("twin"); a != b {
			t.Fatalf("decide after the refused frame is %d, twin's %d", a, b)
		}
	}
	if !bytes.Equal(freeze("bad"), freeze("twin")) {
		t.Fatal("learnt state differs from the twin's after the refused frame")
	}
	return h
}
