package serve_test

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/wire"
)

// scriptedReplica is a minimal wire-protocol replica for relay-behavior
// tests: control frames (the router's membership push) are answered 200
// immediately, and every observe frame is handed to the script on the
// reader goroutine — which replies, holds, or kills the connection,
// modelling a slow or dying fleet member without real governor state.
type scriptedReplica struct {
	t    *testing.T
	addr string

	mu    sync.Mutex
	conns []net.Conn
}

// newScriptedReplica starts the listener; script runs once per observe
// frame. The wire.Observe handed to it aliases the reader's buffer —
// scripts that defer their reply must copy what they keep (the tests
// keep only the id, which is a value).
func newScriptedReplica(t *testing.T, script func(r *scriptedReplica, conn net.Conn, m wire.Observe)) *scriptedReplica {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	r := &scriptedReplica{t: t, addr: lis.Addr().String()}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			r.conns = append(r.conns, conn)
			r.mu.Unlock()
			go r.serveConn(conn, script)
		}
	}()
	return r
}

func (r *scriptedReplica) serveConn(conn net.Conn, script func(r *scriptedReplica, conn net.Conn, m wire.Observe)) {
	defer conn.Close()
	rd := wire.NewReader(conn)
	var obs wire.Observe
	var ctrl wire.Control
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgObserve:
			if err := obs.Decode(payload); err != nil {
				return
			}
			script(r, conn, obs)
		case wire.MsgControl:
			if err := ctrl.Decode(payload); err != nil {
				return
			}
			buf, err := wire.AppendControlReply(nil, ctrl.ID, 200, nil)
			if err != nil {
				return
			}
			r.mu.Lock()
			conn.Write(buf)
			r.mu.Unlock()
		}
	}
}

// reply writes one decide frame; safe from any goroutine.
func (r *scriptedReplica) reply(conn net.Conn, id uint32, oppIdx, freqMHz int32, errMsg string) {
	buf, err := wire.AppendDecide(nil, id, 0, oppIdx, freqMHz, errMsg)
	if err != nil {
		r.t.Error(err)
		return
	}
	r.mu.Lock()
	conn.Write(buf)
	r.mu.Unlock()
}

// closeConns drops every accepted connection — the replica dying
// mid-pipeline.
func (r *scriptedReplica) closeConns() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// heldFrame is one observe a stalling replica has received but not yet
// answered.
type heldFrame struct {
	conn net.Conn
	id   uint32
}

// startScriptedRouter builds a router over the given scripted replicas
// (probing off — there is no real health endpoint behind them), serves
// its binary transport, and returns a connected client plus one session
// id owned by each replica, in replica order.
func startScriptedRouter(t *testing.T, reps []*scriptedReplica) (*serve.Router, *client.Client, []string) {
	t.Helper()
	addrs := make([]string, len(reps))
	for i, r := range reps {
		addrs[i] = r.addr
	}
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rtTCP := serve.NewRouterTCP(rt, lis)
	go func() { _ = rtTCP.Serve() }()
	t.Cleanup(func() { rtTCP.Close() })

	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.Timeout = 10 * time.Second

	// One session id per replica: the ring places ids deterministically,
	// so probe candidate names until every replica owns one.
	ids := make([]string, len(addrs))
	found := 0
	for i := 0; found < len(addrs) && i < 10000; i++ {
		id := "lane-" + string(rune('a'+i%26)) + "-" + itoa(i)
		owner, ok := rt.Owner(id)
		if !ok {
			t.Fatal("router has no replicas")
		}
		for k, a := range addrs {
			if a == owner && ids[k] == "" {
				ids[k] = id
				found++
			}
		}
	}
	if found < len(addrs) {
		t.Fatalf("could not find a session id for every replica (got %d of %d)", found, len(addrs))
	}
	return rt, cl, ids
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestRouterPipelineStalledLane: with the pipelined relay, one replica
// sitting on a decide must not stop the router from relaying later
// batches on the same client connection to other replicas. The slow
// replica holds its reply; the test then sends a decide owned by the
// fast replica and requires the fast replica to RECEIVE it while the
// slow one is still stalled — a blocking relay would still be inside
// the first round trip and the second frame would never leave the
// router. Replies still come back in
// arrival order once the slow lane releases (per-connection ordering is
// part of the wire contract).
func TestRouterPipelineStalledLane(t *testing.T) {
	held := make(chan heldFrame, 16)
	fastGot := make(chan uint32, 16)
	var slow, fast *scriptedReplica
	slow = newScriptedReplica(t, func(r *scriptedReplica, conn net.Conn, m wire.Observe) {
		held <- heldFrame{conn: conn, id: m.ID}
	})
	fast = newScriptedReplica(t, func(r *scriptedReplica, conn net.Conn, m wire.Observe) {
		r.reply(conn, m.ID, 1, 1000, "")
		fastGot <- m.ID
	})

	_, cl, ids := startScriptedRouter(t, []*scriptedReplica{slow, fast})
	slowID, fastID := ids[0], ids[1]

	type res struct {
		d   client.Decision
		err error
	}
	slowDone := make(chan res, 1)
	go func() {
		d, err := cl.Decide(slowID, governor.Observation{})
		slowDone <- res{d, err}
	}()

	// The slow replica now holds the first batch open.
	var h heldFrame
	select {
	case h = <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("slow replica never received the relayed decide")
	}

	// Send a decide for the fast replica on the same client connection.
	// Its reply is head-of-line blocked behind the stalled batch, so
	// drive it from a goroutine and assert on the fast replica's receipt.
	fastDone := make(chan res, 1)
	go func() {
		d, err := cl.Decide(fastID, governor.Observation{})
		fastDone <- res{d, err}
	}()
	select {
	case <-fastGot:
		// The router relayed past the stalled lane: pipelining works.
	case <-time.After(5 * time.Second):
		t.Fatal("fast replica starved behind a stalled lane; relay is not pipelined")
	}
	select {
	case r := <-slowDone:
		t.Fatalf("slow decide completed while its replica held the reply: %+v %v", r.d, r.err)
	default:
	}

	// Release the slow lane; both decides must now complete with their
	// own replicas' answers.
	slow.reply(h.conn, h.id, 7, 700, "")
	r := <-slowDone
	if r.err != nil || r.d.Err != "" || r.d.OPPIdx != 7 {
		t.Fatalf("slow decide = %+v err %v, want OPP 7", r.d, r.err)
	}
	r = <-fastDone
	if r.err != nil || r.d.Err != "" || r.d.OPPIdx != 1 {
		t.Fatalf("fast decide = %+v err %v, want OPP 1", r.d, r.err)
	}
}

// TestRouterConnFailureFailsOnlyItsBatches: a replica dying with a
// relayed batch in flight must fail exactly that batch's entries — with
// the replica named in the error — while pipelined batches on other
// replicas, and every later decide, keep working. The client-facing
// connection stays healthy throughout.
func TestRouterConnFailureFailsOnlyItsBatches(t *testing.T) {
	held := make(chan heldFrame, 16)
	var dying, healthy *scriptedReplica
	dying = newScriptedReplica(t, func(r *scriptedReplica, conn net.Conn, m wire.Observe) {
		held <- heldFrame{conn: conn, id: m.ID}
	})
	healthy = newScriptedReplica(t, func(r *scriptedReplica, conn net.Conn, m wire.Observe) {
		r.reply(conn, m.ID, 1, 1000, "")
	})

	_, cl, ids := startScriptedRouter(t, []*scriptedReplica{dying, healthy})
	dyingID, healthyID := ids[0], ids[1]

	type res struct {
		d   client.Decision
		err error
	}
	dyingDone := make(chan res, 1)
	go func() {
		d, err := cl.Decide(dyingID, governor.Observation{})
		dyingDone <- res{d, err}
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("dying replica never received the relayed decide")
	}
	healthyDone := make(chan res, 1)
	go func() {
		d, err := cl.Decide(healthyID, governor.Observation{})
		healthyDone <- res{d, err}
	}()

	// Kill the replica with its batch still pending.
	dying.closeConns()

	r := <-dyingDone
	if r.err != nil {
		t.Fatalf("dying-lane decide returned a transport error (%v); the failure must stay per-entry", r.err)
	}
	if r.d.Err == "" || !strings.Contains(r.d.Err, "replica") {
		t.Fatalf("dying-lane decide = %+v, want a replica-named per-entry error", r.d)
	}
	r = <-healthyDone
	if r.err != nil || r.d.Err != "" || r.d.OPPIdx != 1 {
		t.Fatalf("healthy-lane decide = %+v err %v, want OPP 1 (other lanes must be untouched)", r.d, r.err)
	}

	// The client connection survived; later decides on the healthy
	// replica still answer.
	d, err := cl.Decide(healthyID, governor.Observation{})
	if err != nil || d.Err != "" || d.OPPIdx != 1 {
		t.Fatalf("post-failure decide = %+v err %v, want OPP 1", d, err)
	}
	if cl.Err() != nil {
		t.Fatalf("client poisoned by a replica-side failure: %v", cl.Err())
	}
}
