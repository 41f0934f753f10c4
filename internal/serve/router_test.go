package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/registry"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

// replica is one in-process fleet member: a Server with its binary
// listener.
type replica struct {
	srv *serve.Server
	tcp *serve.TCPServer
}

// newFleet starts n replicas, every one built from the same options —
// point them at one shared checkpoint store (a common CheckpointDir, or
// a registry-backed Checkpoints) and you have the deployment shape a
// restart reshard relies on. It returns them with their binary
// addresses.
func newFleet(t testing.TB, n int, opt serve.Options) ([]*replica, []string) {
	t.Helper()
	reps := make([]*replica, n)
	addrs := make([]string, n)
	for i := range reps {
		srv := serve.New(opt)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcp := serve.NewTCP(srv, lis)
		go func() { _ = tcp.Serve() }()
		reps[i] = &replica{srv: srv, tcp: tcp}
		addrs[i] = lis.Addr().String()
		t.Cleanup(func() {
			_ = tcp.Close()
			_ = srv.Close()
		})
	}
	return reps, addrs
}

// routedFleet is a router over freshly started replicas, with both of
// its fronts and one binary client: the unit a restart reshard stops
// and starts again.
type routedFleet struct {
	reps []*replica
	rt   *serve.Router
	http *httptest.Server
	tcp  *serve.TCPServer
	cl   *client.Client
	stop sync.Once
}

func startRoutedFleet(t *testing.T, n int, opt serve.Options, rtOpt serve.RouterOptions) *routedFleet {
	t.Helper()
	f := &routedFleet{}
	var addrs []string
	f.reps, addrs = newFleet(t, n, opt)
	var err error
	if f.rt, err = serve.NewRouter(addrs, rtOpt); err != nil {
		t.Fatal(err)
	}
	f.http = httptest.NewServer(f.rt.Handler())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.tcp = serve.NewRouterTCP(f.rt, lis)
	go func() { _ = f.tcp.Serve() }()
	if f.cl, err = client.Dial(lis.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.shutdown(t) })
	return f
}

// shutdown stops the fleet gracefully, front to back: client, router
// fronts, router, then every replica — whose Close runs the final
// checkpoint sweep a restart warm-starts from. Idempotent.
func (f *routedFleet) shutdown(t *testing.T) {
	f.stop.Do(func() {
		f.cl.Close()
		_ = f.tcp.Close()
		f.http.Close()
		_ = f.rt.Close()
		for _, r := range f.reps {
			_ = r.tcp.Close()
			if err := r.srv.Close(); err != nil {
				t.Errorf("closing replica: %v", err)
			}
		}
	})
}

// driveFrames advances a sim.Session up to maxFrames decisions through
// decide, recording each OPP index.
func driveFrames(s *sim.Session, maxFrames int, decide func(obs governor.Observation) (int, error)) ([]int, error) {
	var opps []int
	for n := 0; n < maxFrames && !s.Done(); n++ {
		idx, err := decide(s.Observe())
		if err != nil {
			return nil, err
		}
		opps = append(opps, idx)
		s.Step(idx)
	}
	return opps, nil
}

// TestRouterEquivalence is the acceptance test of the sharded serving
// stack: an identical session set, driven once through a router over a
// replica fleet (binary transport end to end) and once through one flat
// server (the HTTP oracle), must produce byte-identical per-session
// decision streams, physical aggregates, and frozen checkpoints —
// including across two restart reshards (3 → 4 → 2 replicas over one
// shared checkpoint store), where every session is re-created on the
// replica the new ring places it on and warm-starts from its
// checkpoint. The flat server restarts at the same epoch boundaries, so
// any divergence the routing layer or the restart introduced would
// surface as a decision mismatch.
func TestRouterEquivalence(t *testing.T) {
	dirFleet := t.TempDir()
	runRouterFlatEquivalence(t, serve.Options{CheckpointDir: dirFleet}, serve.RouterOptions{}, func(id string) ([]byte, error) {
		return os.ReadFile(dirFleet + "/" + id + ".state")
	})
}

// TestRouterEquivalencePipelinedMultiConn re-runs the router-vs-flat
// suite with two connections per replica (batches stripe across them),
// so several pipelined relay batches ride each replica connection at
// once. The byte-identical contract must survive it — under -race this
// is the pipelined relay's equivalence test.
func TestRouterEquivalencePipelinedMultiConn(t *testing.T) {
	dirFleet := t.TempDir()
	runRouterFlatEquivalence(t, serve.Options{CheckpointDir: dirFleet},
		serve.RouterOptions{ConnsPerReplica: 2},
		func(id string) ([]byte, error) {
			return os.ReadFile(dirFleet + "/" + id + ".state")
		})
}

// TestRouterReshardThroughRegistry re-runs the router-vs-flat suite with
// the fleet's checkpoints living in the content-addressed registry's
// blob store instead of a shared directory — the deployment where
// replicas on different machines share an object store. The same
// contract must hold: byte-identical decision streams and checkpoints,
// including across restart reshards whose warm starts now read the
// registry-backed CheckpointStore.
func TestRouterReshardThroughRegistry(t *testing.T) {
	blobs := registry.NewMem()
	runRouterFlatEquivalence(t, serve.Options{
		Checkpoints: registry.Checkpoints(blobs),
		Registry:    registry.New(blobs),
	}, serve.RouterOptions{}, registry.Checkpoints(blobs).Load)
}

// runRouterFlatEquivalence drives the shared equivalence scenario; the
// fleet's checkpoint placement is the caller's (a shared directory, the
// registry) and loadFleetCkpt reads one session's frozen fleet state
// back for the byte comparison.
func runRouterFlatEquivalence(t *testing.T, fleetOpt serve.Options, rtOpt serve.RouterOptions, loadFleetCkpt func(id string) ([]byte, error)) {
	const (
		scn      = "rtm/mpeg4-30fps/a15"
		frames   = 120
		sessions = 9
	)
	// Each phase runs a fresh fleet of its size up to its epoch; between
	// phases both sides restart (the reshard an operator runs).
	phases := []struct{ replicas, until int }{{3, 40}, {4, 80}, {2, frames}}

	dirFlat := t.TempDir()
	flat := newTestServer(t, serve.Options{CheckpointDir: dirFlat})
	fleet := startRoutedFleet(t, phases[0].replicas, fleetOpt, rtOpt)

	type lane struct {
		id     string
		seed   int64
		create []byte // the original create body, replayed on every restart
	}
	lanes := make([]lane, sessions)
	for i := range lanes {
		id := fmt.Sprintf("eq-%d", i)
		seed := int64(i + 1)
		tr := workload.MPEG4At30(seed, frames)
		create, err := json.Marshal(map[string]any{
			"id":             id,
			"governor":       "rtm",
			"period_s":       tr.RefTimeS,
			"seed":           seed,
			"calibration_cc": tr.MaxPerFrame(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = lane{id: id, seed: seed, create: create}
	}
	// createAll creates every session on both sides from its original
	// body: through the router's HTTP front, and on the flat server.
	createAll := func() {
		t.Helper()
		for _, l := range lanes {
			if st := flat.post("/v1/sessions", json.RawMessage(l.create), nil); st != http.StatusCreated {
				t.Fatalf("create %s on flat server returned %d", l.id, st)
			}
			resp, err := fleet.http.Client().Post(fleet.http.URL+"/v1/sessions", "application/json", bytes.NewReader(l.create))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create %s through router returned %d", l.id, resp.StatusCode)
			}
		}
	}
	createAll()

	type side struct {
		sim  *sim.Session
		opps []int
	}
	flatSide := make([]side, sessions)
	routedSide := make([]side, sessions)
	for i, l := range lanes {
		flatSide[i] = side{sim: sim.NewSession(scenarioConfig(t, scn, l.seed, frames))}
		routedSide[i] = side{sim: sim.NewSession(scenarioConfig(t, scn, l.seed, frames))}
	}

	// drivePhase advances every session maxFrames decisions on both
	// sides, concurrently across sessions (the routed side shares one
	// multiplexed client — under -race this is the routing layer's
	// concurrency test).
	drivePhase := func(maxFrames int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 2*sessions)
		for i := range lanes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l := lanes[i]
				opps, err := driveFrames(flatSide[i].sim, maxFrames, func(obs governor.Observation) (int, error) {
					var resp struct {
						Decisions []decision `json:"decisions"`
					}
					if st := flat.post("/v1/decide", map[string]any{
						"requests": []decideItem{{Session: l.id, Obs: obsFromGov(obs)}},
					}, &resp); st != http.StatusOK {
						return -1, fmt.Errorf("flat decide returned %d", st)
					}
					if len(resp.Decisions) != 1 || resp.Decisions[0].Error != "" {
						return -1, fmt.Errorf("flat decide: %+v", resp.Decisions)
					}
					return resp.Decisions[0].OPPIdx, nil
				})
				if err != nil {
					errs <- fmt.Errorf("%s flat: %w", l.id, err)
					return
				}
				flatSide[i].opps = append(flatSide[i].opps, opps...)

				opps, err = driveFrames(routedSide[i].sim, maxFrames, func(obs governor.Observation) (int, error) {
					d, err := fleet.cl.Decide(l.id, obs)
					if err != nil {
						return -1, err
					}
					if d.Err != "" {
						return -1, fmt.Errorf("routed decide: %s", d.Err)
					}
					return d.OPPIdx, nil
				})
				if err != nil {
					errs <- fmt.Errorf("%s routed: %w", l.id, err)
					return
				}
				routedSide[i].opps = append(routedSide[i].opps, opps...)
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// sameState fails unless a re-created session's freshly frozen state
	// is the state frozen at the stop — a silent cold start would differ.
	sameState := func(what, id string, atStop, now []byte) {
		t.Helper()
		var a, b any
		if err := json.Unmarshal(atStop, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(now, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: re-created %s does not reproduce the state frozen at the stop", what, id)
		}
	}

	done := 0
	for p, ph := range phases {
		if p > 0 {
			// Restart reshard: stop both sides gracefully (Close runs the
			// final checkpoint sweep), start the new fleet over the same
			// store, and re-create every session from its original body.
			fleet.shutdown(t)
			flat.ts.Close()
			if err := flat.srv.Close(); err != nil {
				t.Fatal(err)
			}
			frozenFlat := make([][]byte, sessions)
			frozenFleet := make([][]byte, sessions)
			for i, l := range lanes {
				var err error
				if frozenFlat[i], err = os.ReadFile(dirFlat + "/" + l.id + ".state"); err != nil {
					t.Fatalf("flat stop checkpoint for %s: %v", l.id, err)
				}
				if frozenFleet[i], err = loadFleetCkpt(l.id); err != nil {
					t.Fatalf("fleet stop checkpoint for %s: %v", l.id, err)
				}
				if !bytes.Equal(frozenFlat[i], frozenFleet[i]) {
					t.Fatalf("%s: checkpoints at the stop before phase %d differ flat vs fleet", l.id, p)
				}
			}

			fleet = startRoutedFleet(t, ph.replicas, fleetOpt, rtOpt)
			flat = newTestServer(t, serve.Options{CheckpointDir: dirFlat})
			createAll()
			for i, l := range lanes {
				var ck struct {
					State json.RawMessage `json:"state"`
				}
				if st := flat.post("/v1/sessions/"+l.id+"/checkpoint", map[string]any{}, &ck); st != http.StatusOK {
					t.Fatalf("flat checkpoint of %s returned %d", l.id, st)
				}
				sameState("flat", l.id, frozenFlat[i], ck.State)
				st, body, err := fleet.cl.CheckpointSession(l.id)
				if err != nil || st != http.StatusOK {
					t.Fatalf("fleet checkpoint of %s: status %d err %v (%s)", l.id, st, err, body)
				}
				ck.State = nil
				if err := json.Unmarshal(body, &ck); err != nil {
					t.Fatal(err)
				}
				sameState("fleet", l.id, frozenFleet[i], ck.State)
			}
		}
		drivePhase(ph.until - done)
		done = ph.until
	}

	// Byte-identical decision streams and physical aggregates.
	for i, l := range lanes {
		f, r := flatSide[i], routedSide[i]
		if len(f.opps) != frames || len(r.opps) != frames {
			t.Fatalf("%s: %d flat / %d routed decisions, want %d", l.id, len(f.opps), len(r.opps), frames)
		}
		for k := range f.opps {
			if f.opps[k] != r.opps[k] {
				t.Fatalf("%s: decision %d is %d flat, %d routed", l.id, k, f.opps[k], r.opps[k])
			}
		}
		if phys(f.sim.Result()) != phys(r.sim.Result()) {
			t.Errorf("%s: physical aggregates diverged", l.id)
		}
	}

	// Identical learning implies byte-identical frozen state, flat vs
	// fleet, for every session.
	if _, err := flat.srv.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range fleet.reps {
		if _, err := rep.srv.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range lanes {
		a, err := os.ReadFile(dirFlat + "/" + l.id + ".state")
		if err != nil {
			t.Fatalf("flat checkpoint for %s: %v", l.id, err)
		}
		b, err := loadFleetCkpt(l.id)
		if err != nil {
			t.Fatalf("fleet checkpoint for %s: %v", l.id, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: checkpoints differ flat vs fleet (%d vs %d bytes)", l.id, len(a), len(b))
		}
	}

	// The router's aggregated views cover the whole final fleet.
	last := phases[len(phases)-1].replicas
	var health struct {
		Sessions int `json:"sessions"`
		Replicas int `json:"replicas"`
	}
	resp, err := fleet.http.Client().Get(fleet.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Sessions != sessions || health.Replicas != last {
		t.Errorf("router healthz: %+v, want %d sessions on %d replicas", health, sessions, last)
	}
	var metrics struct {
		Sessions int `json:"sessions"`
	}
	resp, err = fleet.http.Client().Get(fleet.http.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Sessions != sessions {
		t.Errorf("router metrics counts %d sessions, want %d", metrics.Sessions, sessions)
	}
}

// obsFromGov mirrors a governor.Observation into the JSON wire shape.
func obsFromGov(o governor.Observation) obsJSON {
	return obsJSON{
		Epoch:     o.Epoch,
		Cycles:    o.Cycles,
		Util:      o.Util,
		ExecTimeS: o.ExecTimeS,
		PeriodS:   o.PeriodS,
		WallTimeS: o.WallTimeS,
		PowerW:    o.PowerW,
		TempC:     o.TempC,
		OPPIdx:    o.OPPIdx,
	}
}

// BenchmarkRoutedDecideThroughput measures the sharded serving stack
// end to end — router binary listener, consistent-hash fan-out, one
// multiplexed connection per replica, replica-side batching — as
// decisions/second over 256 sessions spread across 2–4 in-process
// replicas. Several batches stay in flight concurrently (as a fleet of
// controllers would keep them), so the replicas' governor work runs in
// parallel and throughput scales with the replica count up to the
// machine's core budget — near-linear on multi-core CI hardware, flat
// on one core where in-process replicas share the clock. BENCH_4.json
// records it in CI.
func BenchmarkRoutedDecideThroughput(b *testing.B) {
	for _, replicas := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			// Two connections per replica: the configuration the pipelined
			// relay targets.
			benchRoutedDecide(b, replicas, serve.RouterOptions{ConnsPerReplica: 2})
		})
	}
}

func benchRoutedDecide(b *testing.B, replicas int, rtOpt serve.RouterOptions) {
	const sessions = 256
	_, addrs := newFleet(b, replicas, serve.Options{})

	rt, err := serve.NewRouter(addrs, rtOpt)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	rtTCP := serve.NewRouterTCP(rt, lis)
	go func() { _ = rtTCP.Serve() }()
	defer rtTCP.Close()

	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	ids := make([]string, sessions)
	obs := make([]governor.Observation, sessions)
	out := make([]client.Decision, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("rb-%d", i)
		obs[i] = steadyObs()
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, ids[i], i+1)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			b.Fatalf("create %s: status %d err %v (%s)", ids[i], st, err, resp)
		}
	}

	check := func() {
		if err := cl.DecideBatch(ids, obs, out); err != nil {
			b.Fatal(err)
		}
		for _, d := range out {
			if d.Err != "" {
				b.Fatal(d.Err)
			}
		}
	}
	check() // warm the path before timing

	// Keep 2 batches per replica in flight: each lane owns a
	// session slice and pipelines its own DecideBatch loop.
	lanes := 2 * replicas
	per := sessions / lanes
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			lo, hi := l*per, (l+1)*per
			if l == lanes-1 {
				hi = sessions
			}
			lout := make([]client.Decision, hi-lo)
			for i := 0; i < b.N; i++ {
				if err := cl.DecideBatch(ids[lo:hi], obs[lo:hi], lout); err != nil {
					errs <- err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	check()
	total := float64(sessions) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(float64(replicas), "replicas")
}
