package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/ring"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

// startRouterTCP puts a binary listener in front of a router and
// returns its address.
func startRouterTCP(t testing.TB, rt *serve.Router) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := serve.NewRouterTCP(rt, lis)
	go func() { _ = rtTCP.Serve() }()
	t.Cleanup(func() { _ = rtTCP.Close() })
	return lis.Addr().String()
}

// routerHealth is the aggregated /healthz body the degraded-fleet
// tests read back.
type routerHealth struct {
	Status     string   `json:"status"`
	Sessions   int      `json:"sessions"`
	Replicas   int      `json:"replicas"`
	ReplicasUp int      `json:"replicas_up"`
	Degraded   []string `json:"degraded"`
	Members    map[string]struct {
		Up    bool   `json:"up"`
		Error string `json:"error"`
	} `json:"members"`
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestRouterDegradedFleet is the regression test for the blanket-502
// bug: one unreachable replica used to turn every aggregated router
// endpoint — /healthz, /v1/metrics, the session list — into a fleet-
// wide error, so a 1-of-8 failure read as total outage to every
// monitor. The aggregates must instead answer from the replicas that
// are up, name the one that is not, and only go non-200 when zero
// replicas answer.
func TestRouterDegradedFleet(t *testing.T) {
	reps, addrs := newFleet(t, 2, serve.Options{})
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

	// Spread sessions until both replicas own at least one.
	perOwner := map[string]int{}
	for i := 0; len(perOwner) < 2 && i < 64; i++ {
		id := fmt.Sprintf("deg-%d", i)
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i+1)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", id, st, err, resp)
		}
		owner, _ := rt.Owner(id)
		perOwner[owner]++
	}
	if len(perOwner) < 2 {
		t.Fatal("could not spread sessions over both replicas")
	}

	// Kill replica 0: listener and server both go away; the router's
	// connection to it is now poisoned.
	dead := addrs[0]
	_ = reps[0].tcp.Close()
	_ = reps[0].srv.Close()

	var h routerHealth
	if st := getJSON(t, rtHTTP.URL+"/healthz", &h); st != http.StatusOK {
		t.Fatalf("degraded healthz returned %d, want 200 (one replica is still up)", st)
	}
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", h.Status)
	}
	if h.ReplicasUp != 1 || h.Replicas != 2 {
		t.Fatalf("healthz counts %d/%d, want 1 up of 2", h.ReplicasUp, h.Replicas)
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != dead {
		t.Fatalf("healthz degraded = %v, want [%s]", h.Degraded, dead)
	}
	if m := h.Members[dead]; m.Up || m.Error == "" {
		t.Fatalf("dead member detail %+v, want down with an error", m)
	}
	if m := h.Members[addrs[1]]; !m.Up {
		t.Fatalf("live member detail %+v, want up", m)
	}
	if h.Sessions != perOwner[addrs[1]] {
		t.Errorf("healthz sessions %d, want the live replica's %d", h.Sessions, perOwner[addrs[1]])
	}

	var metrics struct {
		Sessions map[string]json.RawMessage `json:"sessions"`
		Degraded []string                   `json:"degraded_replicas"`
	}
	if st := getJSON(t, rtHTTP.URL+"/v1/metrics", &metrics); st != http.StatusOK {
		t.Fatalf("degraded metrics returned %d, want 200", st)
	}
	if len(metrics.Degraded) != 1 || metrics.Degraded[0] != dead {
		t.Fatalf("metrics degraded_replicas = %v, want [%s]", metrics.Degraded, dead)
	}
	if len(metrics.Sessions) != perOwner[addrs[1]] {
		t.Errorf("metrics carries %d sessions, want the live replica's %d", len(metrics.Sessions), perOwner[addrs[1]])
	}

	// The scrape surface names the gap too.
	resp, err := http.Get(rtHTTP.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	scrape := new(strings.Builder)
	if _, err := io.Copy(scrape, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(scrape.String(), "rtmd_replicas_degraded 1") ||
		!strings.Contains(scrape.String(), fmt.Sprintf("rtmd_replica_degraded{replica=%q} 1", dead)) {
		t.Errorf("prometheus exposition does not name the degraded replica:\n%s", scrape)
	}

	st, body, err := cl.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if st != http.StatusPartialContent {
		t.Fatalf("degraded list returned %d, want 206", st)
	}
	var list []json.RawMessage
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("degraded list body: %v (%s)", err, body)
	}
	if len(list) != perOwner[addrs[1]] {
		t.Errorf("degraded list has %d sessions, want %d", len(list), perOwner[addrs[1]])
	}

	// Zero replicas up: now the aggregates genuinely fail.
	_ = reps[1].tcp.Close()
	_ = reps[1].srv.Close()
	if st := getJSON(t, rtHTTP.URL+"/healthz", nil); st != http.StatusServiceUnavailable {
		t.Fatalf("all-down healthz returned %d, want 503", st)
	}
	if st := getJSON(t, rtHTTP.URL+"/v1/metrics", nil); st != http.StatusBadGateway {
		t.Fatalf("all-down metrics returned %d, want 502", st)
	}
	if st, _, err := cl.ListSessions(); err != nil || st != http.StatusBadGateway {
		t.Fatalf("all-down list returned %d err %v, want 502", st, err)
	}
}

// TestReplicaRejoin kills one replica and restarts a fresh empty one
// on the same address: the router's prober must notice the death, mark
// the member degraded, then redial the newcomer, push it the current
// membership table, and route to it again — all without a router
// restart. Before the prober existed the dead replica's poisoned
// connection was reused forever and the address never came back.
func TestReplicaRejoin(t *testing.T) {
	reps, addrs := newFleet(t, 2, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: 20 * time.Millisecond})
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

	waitHealth := func(cond func(h routerHealth) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			var h routerHealth
			getJSON(t, rtHTTP.URL+"/healthz", &h)
			if cond(h) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet never became %s (health %+v)", what, h)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	victim := addrs[1]
	_ = reps[1].tcp.Close()
	_ = reps[1].srv.Close()
	waitHealth(func(h routerHealth) bool { return h.ReplicasUp == 1 }, "degraded")

	// Restart an empty replica on the same address.
	var lis net.Listener
	for i := 0; i < 50; i++ {
		if lis, err = net.Listen("tcp", victim); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", victim, err)
	}
	srv2 := serve.New(serve.Options{})
	tcp2 := serve.NewTCP(srv2, lis)
	go func() { _ = tcp2.Serve() }()
	t.Cleanup(func() {
		_ = tcp2.Close()
		_ = srv2.Close()
	})

	waitHealth(func(h routerHealth) bool { return h.ReplicasUp == 2 && h.Members[victim].Up }, "whole again")

	// The router must route to the newcomer: find an id the ring places
	// on the restarted address, create it through the router, decide.
	var id string
	for i := 0; i < 4096; i++ {
		cand := fmt.Sprintf("rejoin-%d", i)
		if owner, _ := rt.Owner(cand); owner == victim {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no candidate id maps to the restarted replica")
	}
	body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":1}`, id)
	if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
		t.Fatalf("create on restarted replica: status %d err %v (%s)", st, err, resp)
	}
	d, err := cl.Decide(id, steadyObs())
	if err != nil || d.Err != "" {
		t.Fatalf("decide on restarted replica: %v / %q", err, d.Err)
	}
}

// TestDirectFleetEquivalence is the acceptance test of the ring-aware
// direct client: the same session set, driven once through a Fleet
// (membership table fetched from the router, batches sent straight to
// ring owners) and once through one flat server (the HTTP oracle),
// must produce byte-identical per-session decision streams and
// physical aggregates — across a mid-run AddReplica that reshards part
// of the ring out from under the direct client's installed table. The
// stale window is covered by replica-side forwarding (the first direct
// decide after the reshard still lands on the old owner, which relays
// it) and closed by the epoch carried in every reply, which triggers
// the Fleet's refetch. The flat server mirrors the reshard's hand-off
// (freeze → delete → re-create warm) at the same epoch boundary, as in
// TestRouterEquivalence. Under -race this is the Fleet's concurrency
// test: all lanes share it.
func TestDirectFleetEquivalence(t *testing.T) {
	const (
		scn      = "rtm/mpeg4-30fps/a15"
		frames   = 120
		grow     = 60 // epoch boundary where the fleet gains a replica
		sessions = 9
	)
	flat := newTestServer(t, serve.Options{CheckpointDir: t.TempDir()})
	_, addrs := newFleet(t, 3, serve.Options{CheckpointDir: t.TempDir()})

	rt, err := serve.NewRouter(addrs[:2], serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	direct, err := client.DialFleet(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if got := direct.Epoch(); got != rt.Epoch() {
		t.Fatalf("fleet bootstrapped at epoch %d, router at %d", got, rt.Epoch())
	}
	if got := len(direct.Replicas()); got != 2 {
		t.Fatalf("direct client holds %d replica connections, want 2", got)
	}

	type lane struct {
		id      string
		seed    int64
		periodS any
		flat    *sim.Session
		direct  *sim.Session
		fOpps   []int
		dOpps   []int
	}
	// Session ids are "eq-N", except the last lane, whose id is scanned so
	// the grown ring places it on the future newcomer: the reshard below
	// must always move at least one session, whatever ports the replicas
	// were assigned (placement hashes the address strings, so with
	// arbitrary ids the newcomer occasionally owned none of them).
	grownRing := ring.New(0, addrs...)
	lastID := ""
	for i := 0; lastID == ""; i++ {
		cand := fmt.Sprintf("eq-%d", sessions-1+i)
		if owner, _ := grownRing.Owner(cand); owner == addrs[2] {
			lastID = cand
		}
	}
	lanes := make([]*lane, sessions)
	for i := range lanes {
		id := fmt.Sprintf("eq-%d", i)
		if i == sessions-1 {
			id = lastID
		}
		seed := int64(i + 1)
		tr := workload.MPEG4At30(seed, frames)
		create := map[string]any{
			"id":             id,
			"governor":       "rtm",
			"period_s":       tr.RefTimeS,
			"seed":           seed,
			"calibration_cc": tr.MaxPerFrame(),
		}
		lanes[i] = &lane{
			id: id, seed: seed, periodS: tr.RefTimeS,
			flat:   sim.NewSession(scenarioConfig(t, scn, seed, frames)),
			direct: sim.NewSession(scenarioConfig(t, scn, seed, frames)),
		}
		if st := flat.post("/v1/sessions", create, nil); st != http.StatusCreated {
			t.Fatalf("create %s on flat server returned %d", id, st)
		}
		raw, err := json.Marshal(create)
		if err != nil {
			t.Fatal(err)
		}
		// Created through the Fleet's control passthrough: the router is
		// still the placement authority.
		if st, resp, err := direct.CreateSession(raw); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s through fleet: status %d err %v (%s)", id, st, err, resp)
		}
	}

	flatDecide := func(id string, obs governor.Observation) (int, error) {
		var resp struct {
			Decisions []decision `json:"decisions"`
		}
		if st := flat.post("/v1/decide", map[string]any{
			"requests": []decideItem{{Session: id, Obs: obsFromGov(obs)}},
		}, &resp); st != http.StatusOK {
			return -1, fmt.Errorf("flat decide returned %d", st)
		}
		if len(resp.Decisions) != 1 || resp.Decisions[0].Error != "" {
			return -1, fmt.Errorf("flat decide: %+v", resp.Decisions)
		}
		return resp.Decisions[0].OPPIdx, nil
	}

	drivePhase := func(maxFrames int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 2*len(lanes))
		for _, l := range lanes {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				opps, err := driveFrames(l.flat, maxFrames, func(obs governor.Observation) (int, error) {
					return flatDecide(l.id, obs)
				})
				if err != nil {
					errs <- fmt.Errorf("%s flat: %w", l.id, err)
					return
				}
				l.fOpps = append(l.fOpps, opps...)

				opps, err = driveFrames(l.direct, maxFrames, func(obs governor.Observation) (int, error) {
					d, err := direct.Decide(l.id, obs)
					if err != nil {
						return -1, err
					}
					if d.Err != "" {
						return -1, fmt.Errorf("direct decide: %s", d.Err)
					}
					return d.OPPIdx, nil
				})
				if err != nil {
					errs <- fmt.Errorf("%s direct: %w", l.id, err)
					return
				}
				l.dOpps = append(l.dOpps, opps...)
			}(l)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	drivePhase(grow)

	// Grow the fleet mid-run: sessions reshard onto the newcomer while
	// the direct client still holds the 2-replica table.
	moved, err := rt.AddReplica(addrs[2])
	if err != nil {
		t.Fatalf("AddReplica(%s): %v", addrs[2], err)
	}
	if len(moved) == 0 {
		t.Fatal("AddReplica moved no sessions; the test would not exercise the reshard")
	}
	wantMoved := map[string]bool{}
	for _, id := range moved {
		wantMoved[id] = true
		if owner, _ := rt.Owner(id); owner != addrs[2] {
			t.Fatalf("moved session %s is owned by %s, not the newcomer", id, owner)
		}
	}

	// Mirror the hand-off on the flat server at the same epoch boundary:
	// freeze → delete → re-create warm from the frozen state.
	for _, l := range lanes {
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
			"period_s": l.periodS,
			"seed":     l.seed,
			"state":    ck.State,
		}
		if st := flat.post("/v1/sessions", recreate, nil); st != http.StatusCreated {
			t.Fatalf("flat re-create of %s returned %d", l.id, st)
		}
	}

	// Deterministically exercise the stale-table path: the very next
	// direct decide for a moved session hits the old owner — which no
	// longer holds it and must forward to the newcomer, not fail. The
	// flat twin advances the same frame to keep the streams aligned.
	for _, l := range lanes {
		if !wantMoved[l.id] || l.direct.Done() {
			continue
		}
		d, err := direct.Decide(l.id, l.direct.Observe())
		if err != nil || d.Err != "" {
			t.Fatalf("stale-table decide for moved %s: %v / %q", l.id, err, d.Err)
		}
		l.dOpps = append(l.dOpps, d.OPPIdx)
		l.direct.Step(d.OPPIdx)

		f, err := flatDecide(l.id, l.flat.Observe())
		if err != nil {
			t.Fatal(err)
		}
		l.fOpps = append(l.fOpps, f)
		l.flat.Step(f)
		break
	}

	drivePhase(frames - grow)

	for _, l := range lanes {
		if len(l.fOpps) != frames || len(l.dOpps) != frames {
			t.Fatalf("%s: %d flat / %d direct decisions, want %d", l.id, len(l.fOpps), len(l.dOpps), frames)
		}
		for k := range l.fOpps {
			if l.fOpps[k] != l.dOpps[k] {
				t.Fatalf("%s: decision %d is %d flat, %d direct (moved=%v)", l.id, k, l.fOpps[k], l.dOpps[k], wantMoved[l.id])
			}
		}
		if phys(l.flat.Result()) != phys(l.direct.Result()) {
			t.Errorf("%s: physical aggregates diverged", l.id)
		}
	}

	// The data plane must have told the direct client about the reshard:
	// its table is now the router's current epoch over all 3 replicas.
	if got, want := direct.Epoch(), rt.Epoch(); got != want {
		t.Errorf("direct client is at epoch %d, router at %d — stale replies did not trigger a refetch", got, want)
	}
	if got := len(direct.Replicas()); got != 3 {
		t.Errorf("direct client holds %d replica connections, want 3", got)
	}
}

// BenchmarkDirectDecideThroughput measures the ring-aware direct path
// — membership table fetched once, each batch split by ring owner and
// sent straight to its replica — against the same fleet shapes as
// BenchmarkRoutedDecideThroughput. The router is out of the data path
// entirely — no extra hop, no shared relay tier — so this bounds the
// routed numbers from above and throughput scales with the replica
// count instead of the routing tier's capacity. BENCH_7.json records
// this beside the pipelined routed path.
func BenchmarkDirectDecideThroughput(b *testing.B) {
	for _, replicas := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			const sessions = 256
			_, addrs := newFleet(b, replicas, serve.Options{})

			rt, err := serve.NewRouter(addrs, serve.RouterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			fl, err := client.DialFleet(startRouterTCP(b, rt))
			if err != nil {
				b.Fatal(err)
			}
			defer fl.Close()

			ids := make([]string, sessions)
			obs := make([]governor.Observation, sessions)
			out := make([]client.Decision, sessions)
			for i := range ids {
				ids[i] = fmt.Sprintf("db-%d", i)
				obs[i] = steadyObs()
				body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, ids[i], i+1)
				if st, resp, err := fl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
					b.Fatalf("create %s: status %d err %v (%s)", ids[i], st, err, resp)
				}
			}

			check := func() {
				if err := fl.DecideBatch(ids, obs, out); err != nil {
					b.Fatal(err)
				}
				for _, d := range out {
					if d.Err != "" {
						b.Fatal(d.Err)
					}
				}
			}
			check() // warm every connection before timing

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
						if err := fl.DecideBatch(ids[lo:hi], obs[lo:hi], lout); err != nil {
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
		})
	}
}
