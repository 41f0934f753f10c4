package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve/client"
)

// fakeTarget answers every decide with OPP 1, records each batch, and
// sleeps for stall on its stallAt-th batch (1-based; 0 never).
type fakeTarget struct {
	stallAt int
	stall   time.Duration

	mu      sync.Mutex
	batches [][]string
	epochs  [][]int
}

func (t *fakeTarget) DecideBatch(ids []string, obs []governor.Observation, out []client.Decision) error {
	t.mu.Lock()
	t.batches = append(t.batches, append([]string(nil), ids...))
	var ep []int
	for _, o := range obs {
		ep = append(ep, o.Epoch)
	}
	t.epochs = append(t.epochs, ep)
	n := len(t.batches)
	t.mu.Unlock()
	if n == t.stallAt {
		time.Sleep(t.stall)
	}
	for i := range out {
		out[i] = client.Decision{OPPIdx: 1}
	}
	return nil
}

func (t *fakeTarget) CreateSession([]byte) (int, []byte, error) { return http.StatusCreated, nil, nil }
func (t *fakeTarget) DeleteSession(string) (int, []byte, error) {
	return http.StatusNoContent, nil, nil
}

// epochSource sends each event's ref as its observation's epoch.
type epochSource struct {
	noControls
	ids []string
}

func (s epochSource) id(i int32) string { return s.ids[i] }
func (s epochSource) observe(ev *event, dst *governor.Observation) {
	*dst = governor.Observation{Epoch: int(ev.ref)}
}

// A stalled batch must show in the from-due latency of the decides that
// fell due while it stalled, though their own round trips are quick: the
// open-loop accounting a closed-loop generator would hide.
func TestOpenLoopStallRaisesLaterLatency(t *testing.T) {
	const stall = 150 * time.Millisecond
	src := epochSource{ids: []string{"a", "b", "c", "d"}}
	var evs []event
	for k := 0; k < 60; k++ {
		evs = append(evs, event{due: time.Duration(k) * time.Millisecond, op: loadgen.OpDecide, sess: int32(k % 4), ref: int32(k)})
	}
	ft := &fakeTarget{stallAt: 3, stall: stall}
	l := newLane(0, len(src.ids))
	l.t = ft
	l.reserve(len(evs), len(evs))
	start := time.Now()
	if err := l.runOpen(context.Background(), start, evs, src); err != nil {
		t.Fatal(err)
	}
	if len(l.lat) != len(evs) {
		t.Fatalf("%d latencies for %d decides", len(l.lat), len(evs))
	}
	// Samples are recorded in dispatch order, which is due order. The
	// stalled batch was sent no earlier than its last entry fell due, so
	// it cannot have returned before stallEnd.
	n := len(ft.batches[0]) + len(ft.batches[1]) + len(ft.batches[2])
	stallEnd := evs[n-1].due + stall
	checked := 0
	for i := n; i < len(evs) && evs[i].due < stallEnd; i++ {
		if want := us(stallEnd - evs[i].due); l.lat[i] < want || l.lag[i] < want {
			t.Errorf("decide due at %v: latency %.0fµs, lag %.0fµs; it could not be sent before %.0fµs after it was due",
				evs[i].due, l.lat[i], l.lag[i], want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no decide fell due during the stall")
	}
	// Their own round trips were quick: timing from send would hide the stall.
	for i, rtt := range l.rtt {
		if i != 2 && rtt > us(stall)/2 {
			t.Fatalf("batch %d took %.0fµs itself; the test assumes quick round trips", i, rtt)
		}
	}
}

// Decides already due for one session must go out one per batch, in
// schedule order — a batch never carries two observations for a session.
func TestDispatcherOneObservationPerSessionPerBatch(t *testing.T) {
	src := epochSource{ids: []string{"a", "b", "c"}}
	var evs []event
	for k := 0; k < 30; k++ {
		evs = append(evs, event{due: 0, op: loadgen.OpDecide, sess: int32(k % 3), ref: int32(k / 3)})
	}
	ft := &fakeTarget{}
	l := newLane(0, len(src.ids))
	l.t = ft
	if err := l.runOpen(context.Background(), time.Now(), evs, src); err != nil {
		t.Fatal(err)
	}
	next := map[string]int{}
	for b, ids := range ft.batches {
		seen := map[string]bool{}
		for i, id := range ids {
			if seen[id] {
				t.Fatalf("batch %d carries session %s twice: %v", b, id, ids)
			}
			seen[id] = true
			if got := ft.epochs[b][i]; got != next[id] {
				t.Fatalf("session %s: epoch %d sent where %d was next", id, got, next[id])
			}
			next[id]++
		}
	}
	for _, id := range src.ids {
		if next[id] != 10 {
			t.Errorf("session %s: %d of 10 decides sent", id, next[id])
		}
	}
}

// flipTarget is loadgen.Local with the OPP of its flipAt-th decide
// (1-based; 0 never) changed — one wrong answer from a server.
type flipTarget struct {
	*loadgen.Local
	flipAt int64
	n      atomic.Int64
}

func (f *flipTarget) DecideBatch(ids []string, obs []governor.Observation, out []client.Decision) error {
	if err := f.Local.DecideBatch(ids, obs, out); err != nil {
		return err
	}
	for i := range out {
		if f.n.Add(1) == f.flipAt {
			out[i].OPPIdx = (out[i].OPPIdx + 1) % 19
		}
	}
	return nil
}

func smallChurn(t *testing.T) *churn {
	t.Helper()
	spec, err := churnSpec(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Clients {
		spec.Clients[i].Count = 10
	}
	w, err := newChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The churn oracle check passes against an exact server and fails when a
// single decision differs.
func TestOracleDetectsFlippedOPP(t *testing.T) {
	for _, flip := range []int64{0, 40} {
		w := smallChurn(t)
		ft := &flipTarget{Local: loadgen.NewLocal(), flipAt: flip}
		e := &env{start: time.Now()}
		for i := 0; i < lanes; i++ {
			l := newLane(i, len(w.ids))
			l.t = ft
			e.lanes = append(e.lanes, l)
		}
		if err := w.timed(context.Background(), e); err != nil {
			t.Fatal(err)
		}
		if ft.n.Load() < flip {
			t.Fatalf("only %d decides ran; the flip at %d never happened", ft.n.Load(), flip)
		}
		err := w.check(e)
		if flip == 0 && err != nil {
			t.Errorf("exact target failed the check: %v", err)
		}
		if flip != 0 && err == nil {
			t.Errorf("decide %d answered with a flipped OPP, yet the check passed", flip)
		}
	}
}
