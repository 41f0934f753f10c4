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
	"time"

	"qgov/internal/serve"
	"qgov/internal/serve/client"
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

	// Replicas do not forward: a decide sent straight to a replica that
	// does not hold the session fails there with a per-entry error, and
	// the same session still decides through the router.
	var onOne string
	for i := 0; onOne == ""; i++ {
		id := fmt.Sprintf("deg-%d", i)
		if owner, _ := rt.Owner(id); owner == addrs[1] {
			onOne = id
		}
	}
	rep0, err := client.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rep0.Close()
	d, err := rep0.Decide(onOne, steadyObs())
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("unknown session %q", onOne); d.Err != want || d.OPPIdx != -1 {
		t.Fatalf("decide for %s at the wrong replica = %+v, want OPP -1 and error %q", onOne, d, want)
	}
	if d, err := cl.Decide(onOne, steadyObs()); err != nil || d.Err != "" {
		t.Fatalf("routed decide for %s: %v / %q", onOne, err, d.Err)
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
		Sessions int      `json:"sessions"`
		Degraded []string `json:"degraded_replicas"`
	}
	if st := getJSON(t, rtHTTP.URL+"/v1/metrics", &metrics); st != http.StatusOK {
		t.Fatalf("degraded metrics returned %d, want 200", st)
	}
	if len(metrics.Degraded) != 1 || metrics.Degraded[0] != dead {
		t.Fatalf("metrics degraded_replicas = %v, want [%s]", metrics.Degraded, dead)
	}
	if metrics.Sessions != perOwner[addrs[1]] {
		t.Errorf("metrics counts %d sessions, want the live replica's %d", metrics.Sessions, perOwner[addrs[1]])
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

	st, body, err := cl.ListSessions("", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st != http.StatusPartialContent {
		t.Fatalf("degraded list returned %d, want 206", st)
	}
	var list struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("degraded list body: %v (%s)", err, body)
	}
	if len(list.Sessions) != perOwner[addrs[1]] {
		t.Errorf("degraded list has %d sessions, want %d", len(list.Sessions), perOwner[addrs[1]])
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
	if st, _, err := cl.ListSessions("", 0); err != nil || st != http.StatusBadGateway {
		t.Fatalf("all-down list returned %d err %v, want 502", st, err)
	}
}

// TestReplicaRejoin kills one replica and restarts a fresh empty one
// on the same address: the router's prober must notice the death, mark
// the member degraded, then redial the newcomer and route to it again —
// all without a router restart. Before the prober existed the dead replica's poisoned
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
