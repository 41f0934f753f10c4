package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
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
// a registry-backed Checkpoints) and you have the deployment shape
// hand-off relies on. It returns them with their binary addresses.
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
// stack: an identical session set, driven once through a 3-replica
// router (binary transport end to end) and once through one flat
// server (the HTTP oracle), must produce byte-identical per-session
// decision streams, physical aggregates, and frozen checkpoints —
// including across a mid-run checkpoint/restore hand-off, where one
// replica leaves the ring and its sessions move to the survivors. The
// flat server mirrors the hand-off (freeze → delete → re-create warm)
// at the same epoch boundary, so any divergence the routing layer or
// the hand-off itself introduced would surface as a decision mismatch.
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

// TestRouterHandoffThroughRegistry re-runs the router-vs-flat suite with
// the fleet's checkpoints living in the content-addressed registry's
// blob store instead of a shared directory — the deployment where
// replicas on different machines share an object store. The same
// contract must hold: byte-identical decision streams and checkpoints,
// including across a RemoveReplica hand-off whose freeze/restore now
// travels through the registry-backed CheckpointStore.
func TestRouterHandoffThroughRegistry(t *testing.T) {
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
		handoff  = 60 // epoch boundary where the fleet shrinks
		sessions = 9
		replicas = 3
	)
	dirFlat := t.TempDir()
	flat := newTestServer(t, serve.Options{CheckpointDir: dirFlat})
	fleet, addrs := newFleet(t, replicas, fleetOpt)

	rt, err := serve.NewRouter(addrs, rtOpt)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()

	rtLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := serve.NewRouterTCP(rt, rtLis)
	go func() { _ = rtTCP.Serve() }()
	defer rtTCP.Close()

	cl, err := client.Dial(rtLis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Create the same sessions on both sides; remember the create params
	// for the flat side's hand-off mirror.
	type lane struct {
		id     string
		seed   int64
		create map[string]any
	}
	lanes := make([]lane, sessions)
	owners := map[string][]string{} // replica addr → session ids
	for i := range lanes {
		id := fmt.Sprintf("eq-%d", i)
		seed := int64(i + 1)
		tr := workload.MPEG4At30(seed, frames)
		create := map[string]any{
			"id":             id,
			"governor":       "rtm",
			"period_s":       tr.RefTimeS,
			"seed":           seed,
			"calibration_cc": tr.MaxPerFrame(),
		}
		lanes[i] = lane{id: id, seed: seed, create: create}
		if st := flat.post("/v1/sessions", create, nil); st != http.StatusCreated {
			t.Fatalf("create %s on flat server returned %d", id, st)
		}
		raw, err := json.Marshal(create)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rtHTTP.Client().Post(rtHTTP.URL+"/v1/sessions", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s through router returned %d", id, resp.StatusCode)
		}
		owner, ok := rt.Owner(id)
		if !ok {
			t.Fatalf("router has no owner for %s", id)
		}
		owners[owner] = append(owners[owner], id)
	}

	// Pick the leaving replica: one that owns at least one session, so
	// the hand-off genuinely moves learnt state.
	var leaving string
	for _, addr := range addrs {
		if len(owners[addr]) > 0 {
			leaving = addr
			break
		}
	}
	if leaving == "" {
		t.Fatal("no replica owns any session")
	}

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
					d, err := cl.Decide(l.id, obs)
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

	drivePhase(handoff)

	// Shrink the fleet: the leaving replica's sessions hand off by
	// checkpoint/restore to their new ring placements.
	moved, err := rt.RemoveReplica(leaving)
	if err != nil {
		t.Fatalf("RemoveReplica(%s): %v", leaving, err)
	}
	if len(moved) == 0 {
		t.Fatal("hand-off moved no sessions; the test would not exercise checkpoint/restore")
	}
	wantMoved := map[string]bool{}
	for _, id := range owners[leaving] {
		wantMoved[id] = true
	}
	if len(moved) != len(wantMoved) {
		t.Fatalf("moved %v, want exactly the leaver's sessions %v", moved, owners[leaving])
	}
	for _, id := range moved {
		if !wantMoved[id] {
			t.Fatalf("session %s moved but was not owned by %s", id, leaving)
		}
		if owner, _ := rt.Owner(id); owner == leaving {
			t.Fatalf("session %s still placed on the departed replica", id)
		}
	}

	// Mirror the hand-off on the flat server at the same epoch boundary:
	// freeze → delete → re-create warm from the frozen state.
	for i, l := range lanes {
		if !wantMoved[l.id] {
			continue
		}
		var ck struct {
			State json.RawMessage `json:"state"`
		}
		if st := flat.post("/v1/sessions/"+l.id+"/checkpoint", map[string]any{}, &ck); st != http.StatusOK {
			t.Fatalf("flat checkpoint of %s returned %d", l.id, st)
		}
		req, _ := http.NewRequest(http.MethodDelete, flat.ts.URL+"/v1/sessions/"+l.id, nil)
		resp, err := flat.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("flat delete of %s returned %d", l.id, resp.StatusCode)
		}
		recreate := map[string]any{
			"id":       l.id,
			"governor": "rtm",
			"period_s": l.create["period_s"],
			"seed":     l.seed,
			"state":    ck.State,
		}
		if st := flat.post("/v1/sessions", recreate, nil); st != http.StatusCreated {
			t.Fatalf("flat re-create of %s returned %d", l.id, st)
		}
		_ = i
	}

	drivePhase(frames - handoff)

	// Byte-identical decision streams and physical aggregates.
	for i, l := range lanes {
		f, r := flatSide[i], routedSide[i]
		if len(f.opps) != frames || len(r.opps) != frames {
			t.Fatalf("%s: %d flat / %d routed decisions, want %d", l.id, len(f.opps), len(r.opps), frames)
		}
		for k := range f.opps {
			if f.opps[k] != r.opps[k] {
				t.Fatalf("%s: decision %d is %d flat, %d routed (moved=%v)", l.id, k, f.opps[k], r.opps[k], wantMoved[l.id])
			}
		}
		if phys(f.sim.Result()) != phys(r.sim.Result()) {
			t.Errorf("%s: physical aggregates diverged", l.id)
		}
	}

	// Identical learning implies byte-identical frozen state, flat vs
	// fleet, for every session — including the moved ones.
	if _, err := flat.srv.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range fleet {
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
			t.Errorf("%s: checkpoints differ flat vs fleet (%d vs %d bytes, moved=%v)",
				l.id, len(a), len(b), wantMoved[l.id])
		}
	}

	// The router's aggregated views cover the whole fleet.
	var health struct {
		Sessions int `json:"sessions"`
		Replicas int `json:"replicas"`
	}
	resp, err := rtHTTP.Client().Get(rtHTTP.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Sessions != sessions || health.Replicas != replicas-1 {
		t.Errorf("router healthz: %+v, want %d sessions on %d replicas", health, sessions, replicas-1)
	}
	var metrics struct {
		Sessions map[string]json.RawMessage `json:"sessions"`
	}
	resp, err = rtHTTP.Client().Get(rtHTTP.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(metrics.Sessions) != sessions {
		t.Errorf("router metrics aggregates %d sessions, want %d", len(metrics.Sessions), sessions)
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
