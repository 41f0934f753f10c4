// Package client speaks the rtmd binary wire protocol: persistent
// multiplexed TCP connections carrying observe→decide frames plus the
// control plane (session create, checkpoint, delete, info, metrics,
// list) as control frames. Many goroutines may share one Client —
// requests are tagged with ids, writes of a batch coalesce into one
// flush, and a reader goroutine per connection routes responses back to
// their callers. The router drives every replica through one Client;
// the serve benchmarks and the cross-transport equivalence tests drive
// their sessions through it too.
//
// A Client holds DialOptions.Conns TCP connections to its endpoint
// (default 1). Batches stripe across the connections round-robin — on
// big-core-count hosts one stream's write mutex and single reader
// serialise at the socket, and sharding removes that ceiling — while
// control frames always travel on the first connection.
//
// Ordering: frames written on one connection are executed by the server
// in write order, with control frames acting as barriers — a Control
// create issued before a Decide for the same session is applied first
// (controls and any following calls from the same goroutine are safe
// with Conns > 1 too, because every call blocks until the server has
// answered it). Two concurrent calls on different connections have no
// relative order, exactly like two concurrent calls on one connection.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qgov/internal/governor"
	"qgov/internal/wire"
)

// Decision is one answered request. Err mirrors the per-entry error of
// the JSON batch API: non-empty means this request failed (unknown
// session, rejected observation) while others in the batch may have
// succeeded.
type Decision struct {
	OPPIdx  int
	FreqMHz int
	Err     string
}

// Request ids pack a batch handle and an index: the high 20 bits name
// the DecideBatch call, the low 12 its entry. One routing-table insert
// covers a whole batch, so the per-decision client cost is a shared-map
// read — not an insert/delete pair — which matters at 500k decisions/s.
// Handles are scoped per connection: replies arrive on the connection
// that carried the request, so two connections may use the same handle
// concurrently without ambiguity.
const (
	indexBits = 12
	// MaxBatch bounds one DecideBatch call (it must fit the index bits);
	// it equals the server's per-fan-out coalescing limit.
	MaxBatch = 1 << indexBits
)

// batchCall tracks one DecideBatch in flight. The reader fills out
// entries as frames arrive (any order) and closes done when the last
// one lands. answered is a bitset over out: a duplicate of an
// already-answered id is dropped instead of decrementing remaining a
// second time — otherwise a hostile or buggy server could close the
// batch early and unfilled entries would come back as zero-valued
// decisions, indistinguishable from the real thing.
type batchCall struct {
	out       []Decision
	answered  []uint64
	remaining int
	done      chan struct{}
}

// DefaultTimeout bounds one round trip (batch or control) on a Client
// when neither DialOptions.Timeout nor the Timeout field set one: a
// server that stops answering — hung process, blackholed network with
// the TCP session still open — must surface as a transport error, not
// wedge every caller forever. A router holds its membership lock across
// these waits, so an unbounded hang there would stall a whole fleet. A
// healthy replica answers in microseconds; 30 s only ever fires on a
// genuinely stuck peer.
const DefaultTimeout = 30 * time.Second

// Client is a multiplexed client of an rtmd binary listener, holding
// one or more TCP connections to it.
type Client struct {
	// Timeout bounds each round trip; 0 selects DefaultTimeout and a
	// negative value disables the bound. DialOptions.Timeout seeds it;
	// set before sharing the client.
	Timeout time.Duration

	conns []*conn
	next  atomic.Uint32 // round-robin batch striping across conns
}

// conn is one TCP connection of a Client: its write half, its pending
// request tables, and its sticky transport error. Request routing is
// per connection — the server answers on the connection a request
// arrived on — so connections fail independently: a poisoned conn
// releases only its own waiters.
type conn struct {
	nc net.Conn

	// wmu serialises the write half: frame encoding into enc and the
	// buffered writer.
	wmu sync.Mutex
	bw  *bufio.Writer
	enc []byte

	// mu guards the routing tables and the sticky transport error.
	mu          sync.Mutex
	pending     map[uint32]*batchCall // keyed by batch handle (id >> indexBits)
	pendingCtrl map[uint32]*ctrlCall  // keyed by full control request id
	nextBatch   uint32
	nextCtrl    uint32
	err         error

	readerDone chan struct{}
}

// ctrlCall tracks one Control round trip. The reader copies the reply
// out (the frame buffer is reused) and closes done.
type ctrlCall struct {
	status uint16
	body   []byte
	done   chan struct{}
}

// DialOptions tunes a Client connection.
type DialOptions struct {
	// Conns is the number of TCP connections to hold to the endpoint;
	// <= 0 selects 1. Batches stripe across them round-robin; controls
	// stay on the first.
	Conns int
	// Timeout seeds Client.Timeout: the per-round-trip bound. 0 selects
	// DefaultTimeout; negative disables the bound.
	Timeout time.Duration
}

// Dial connects to an rtmd -listen-tcp address with default options
// (one connection).
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, DialOptions{})
}

// DialOpts connects to an rtmd -listen-tcp address, opening
// opt.Conns connections.
func DialOpts(addr string, opt DialOptions) (*Client, error) {
	n := opt.Conns
	if n < 1 {
		n = 1
	}
	c := &Client{Timeout: opt.Timeout, conns: make([]*conn, 0, n)}
	for i := 0; i < n; i++ {
		nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			c.Close()
			return nil, err
		}
		cn := &conn{
			nc:          nc,
			bw:          bufio.NewWriterSize(nc, 64<<10),
			pending:     make(map[uint32]*batchCall),
			pendingCtrl: make(map[uint32]*ctrlCall),
			readerDone:  make(chan struct{}),
		}
		c.conns = append(c.conns, cn)
		go cn.readLoop()
	}
	return c, nil
}

// NumConns returns how many TCP connections the client holds.
func (c *Client) NumConns() int { return len(c.conns) }

// pick selects the connection for the next batch: round-robin across
// the conns, so concurrent batches spread over all sockets.
func (c *Client) pick() *conn {
	if len(c.conns) == 1 {
		return c.conns[0]
	}
	return c.conns[int(c.next.Add(1))%len(c.conns)]
}

// ctrlConn is the connection control frames travel on. Pinning them to
// one connection preserves the single-conn barrier ordering for any
// caller that writes control frames back to back.
func (c *Client) ctrlConn() *conn { return c.conns[0] }

// Err returns the client's sticky transport error — nil while every
// connection is healthy. Once non-nil the client is degraded (calls
// striped onto the failed connection error); the owner should redial.
func (c *Client) Err() error {
	for _, cn := range c.conns {
		cn.mu.Lock()
		err := cn.err
		cn.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close tears every connection down; in-flight requests fail with a
// transport error.
func (c *Client) Close() error {
	var firstErr error
	for _, cn := range c.conns {
		if err := cn.nc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, cn := range c.conns {
		<-cn.readerDone
	}
	return firstErr
}

// CloseWrite half-closes every connection: the server sees end of
// stream, drains what it already received, answers, and closes. Callers
// read their remaining responses through in-flight DecideBatch calls.
func (c *Client) CloseWrite() error {
	var firstErr error
	for _, cn := range c.conns {
		cn.wmu.Lock()
		err := cn.bw.Flush()
		if err == nil {
			if tc, ok := cn.nc.(*net.TCPConn); ok {
				err = tc.CloseWrite()
			} else {
				err = errors.New("client: connection does not support half-close")
			}
		}
		cn.wmu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Decide serves one observation for one session and returns the
// operating-point decision.
func (c *Client) Decide(session string, obs governor.Observation) (Decision, error) {
	var out [1]Decision
	if err := decideBatch(c, []string{session}, []governor.Observation{obs}, out[:], nil); err != nil {
		return Decision{}, err
	}
	return out[0], nil
}

// DecideBatch serves one observation per session — the binary twin of
// POST /v1/decide. All frames are written under one flush; the call
// returns when every response has arrived, filling out[i] for
// sessions[i]. A returned error is transport-level and poisons the
// carrying connection; per-request failures land in out[i].Err instead.
func (c *Client) DecideBatch(sessions []string, obs []governor.Observation, out []Decision) error {
	if len(sessions) != len(obs) || len(sessions) != len(out) {
		return fmt.Errorf("client: mismatched batch slices (%d sessions, %d observations, %d outputs)",
			len(sessions), len(obs), len(out))
	}
	if len(sessions) == 0 {
		return nil
	}
	return decideBatch(c, sessions, obs, out, nil)
}

// DecideBatchTraced is DecideBatch with per-request trace ids: a
// nonzero traces[i] rides request i as the wire trace extension, so the
// server's decide span stitches to the caller's trace. traces may be
// nil (all untraced); zero entries leave their requests untraced.
func (c *Client) DecideBatchTraced(sessions []string, obs []governor.Observation, out []Decision, traces []uint64) error {
	if len(sessions) != len(obs) || len(sessions) != len(out) || (traces != nil && len(traces) != len(sessions)) {
		return fmt.Errorf("client: mismatched batch slices (%d sessions, %d observations, %d outputs, %d traces)",
			len(sessions), len(obs), len(out), len(traces))
	}
	if len(sessions) == 0 {
		return nil
	}
	return decideBatch(c, sessions, obs, out, traces)
}

// reserve claims a batch handle on this connection and publishes bc
// under it, before any frame can be answered. Handles wrap after 2^20
// batches; a handle whose previous holder is still waiting (a slow
// batch outliving 2^20 successors) is skipped — overwriting it would
// strand that waiter until timeout and misroute its replies into the
// new batch.
func (cn *conn) reserve(bc *batchCall) (uint32, error) {
	const handleMask = 1<<(32-indexBits) - 1
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return 0, cn.err
	}
	handle := cn.nextBatch & handleMask
	for cn.pending[handle] != nil {
		if len(cn.pending) > handleMask {
			return 0, fmt.Errorf("client: all %d batch handles in flight", handleMask+1)
		}
		cn.nextBatch++
		handle = cn.nextBatch & handleMask
	}
	cn.nextBatch++
	cn.pending[handle] = bc
	return handle, nil
}

// unreserve abandons a handle whose frames never made it onto the wire.
func (cn *conn) unreserve(handle uint32) {
	cn.mu.Lock()
	delete(cn.pending, handle)
	cn.mu.Unlock()
}

func decideBatch(c *Client, sessions []string, obs []governor.Observation, out []Decision, traces []uint64) error {
	n := len(sessions)
	if n > MaxBatch {
		return fmt.Errorf("client: batch of %d exceeds the %d-request limit", n, MaxBatch)
	}
	cn := c.pick()
	bc := &batchCall{
		out:       out,
		answered:  make([]uint64, (n+63)/64),
		remaining: n,
		done:      make(chan struct{}),
	}
	handle, err := cn.reserve(bc)
	if err != nil {
		return err
	}
	base := handle << indexBits

	// Encode every frame and flush once.
	cn.wmu.Lock()
	for i := 0; i < n && err == nil; i++ {
		var trace uint64
		if traces != nil {
			trace = traces[i]
		}
		cn.enc, err = wire.AppendObserveTraced(cn.enc[:0], base|uint32(i), 0, trace, sessions[i], &obs[i])
		if err == nil {
			_, err = cn.bw.Write(cn.enc)
		}
	}
	if err == nil {
		err = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if err != nil {
		cn.unreserve(handle)
		return err
	}

	return finishBatch(c, cn, bc)
}

// finishBatch waits a dispatched batch out and reports a mid-batch
// transport failure (fail() released the waiter with entries missing).
func finishBatch(c *Client, cn *conn, bc *batchCall) error {
	if err := c.wait(cn, bc.done); err != nil {
		return err
	}
	cn.mu.Lock()
	err := cn.err
	cn.mu.Unlock()
	if bc.remaining != 0 { // released by fail(), not by the last response
		return fmt.Errorf("client: transport failed mid-batch: %w", err)
	}
	return nil
}

// Relay is one in-flight relayed batch started with StartRelay: the
// frames are on the wire and the replies are being collected by the
// connection's reader. Wait blocks until the batch completes.
type Relay struct {
	c  *Client
	cn *conn
	bc *batchCall
}

// StartRelay forwards already-encoded MsgObserve payloads to the server
// and returns without waiting for the replies — the asynchronous,
// zero-copy half of the router's relay path. Each payload's request id
// is rewritten in place to this batch's id space (payloads[i] answers
// into out[i]); nothing else in the payload is read or re-encoded, so
// the observation bytes travel through the relay untouched. The caller
// must keep payloads and out alive and unmodified until Wait returns.
//
// Several relays may be in flight on one Client concurrently — that is
// the point: fan-out to one replica overlaps reply collection from
// another, and with Conns > 1 the batches stripe across sockets too.
func (c *Client) StartRelay(payloads [][]byte, out []Decision) (*Relay, error) {
	n := len(payloads)
	if n != len(out) {
		return nil, fmt.Errorf("client: mismatched relay slices (%d payloads, %d outputs)", n, len(out))
	}
	if n > MaxBatch {
		return nil, fmt.Errorf("client: batch of %d exceeds the %d-request limit", n, MaxBatch)
	}
	cn := c.pick()
	bc := &batchCall{
		out:       out,
		answered:  make([]uint64, (n+63)/64),
		remaining: n,
		done:      make(chan struct{}),
	}
	if n == 0 {
		close(bc.done)
		return &Relay{c: c, cn: cn, bc: bc}, nil
	}
	handle, err := cn.reserve(bc)
	if err != nil {
		return nil, err
	}
	base := handle << indexBits

	cn.wmu.Lock()
	for i := 0; i < n && err == nil; i++ {
		if err = wire.SetObserveID(payloads[i], base|uint32(i)); err != nil {
			break
		}
		cn.enc, err = wire.AppendFrame(cn.enc[:0], wire.MsgObserve, payloads[i])
		if err == nil {
			_, err = cn.bw.Write(cn.enc)
		}
	}
	if err == nil {
		err = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if err != nil {
		cn.unreserve(handle)
		return nil, err
	}
	return &Relay{c: c, cn: cn, bc: bc}, nil
}

// Wait blocks until every reply of the relayed batch has arrived
// (landing in the out slice given to StartRelay) or the carrying
// connection fails. Like DecideBatch, a returned error is
// transport-level; per-request failures land in out[i].Err.
func (r *Relay) Wait() error {
	return finishBatch(r.c, r.cn, r.bc)
}

// timerPool recycles round-trip timers: wait runs once per batch or
// control round trip, and allocating a fresh timer each time is
// measurable churn at hundreds of thousands of round trips per second.
var timerPool = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// wait blocks on done up to the client's timeout. On expiry it cuts the
// carrying connection — its reader then fails every waiter on that conn
// (including this one), so a poisoned connection degrades to per-call
// transport errors instead of unbounded hangs.
func (c *Client) wait(cn *conn, done <-chan struct{}) error {
	d := c.Timeout
	if d == 0 {
		d = DefaultTimeout
	}
	if d < 0 {
		<-done
		return nil
	}
	t := timerPool.Get().(*time.Timer)
	t.Reset(d)
	defer func() {
		t.Stop()
		timerPool.Put(t)
	}()
	select {
	case <-done:
		return nil
	case <-t.C:
		cn.nc.Close()
		<-done // released by fail() once the reader sees the closed conn
		return fmt.Errorf("client: no response within %v; connection dropped", d)
	}
}

// Control runs one control-plane operation (a wire.Op* constant) against
// the server and returns its HTTP-vocabulary status code and JSON body.
// The returned body is the caller's to keep. A returned error is
// transport-level and poisons the control connection; application
// failures (unknown session, invalid create) come back as non-2xx
// statuses with an {"error": ...} body, exactly like the HTTP control
// plane.
func (c *Client) Control(op byte, session string, body []byte) (int, []byte, error) {
	cn := c.ctrlConn()
	cc := &ctrlCall{done: make(chan struct{})}

	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return 0, nil, err
	}
	id := cn.nextCtrl
	cn.nextCtrl++
	cn.pendingCtrl[id] = cc
	cn.mu.Unlock()

	cn.wmu.Lock()
	var err error
	cn.enc, err = wire.AppendControl(cn.enc[:0], id, op, session, body)
	if err == nil {
		if _, err = cn.bw.Write(cn.enc); err == nil {
			err = cn.bw.Flush()
		}
	}
	cn.wmu.Unlock()
	if err != nil {
		cn.mu.Lock()
		delete(cn.pendingCtrl, id)
		cn.mu.Unlock()
		return 0, nil, err
	}

	if err := c.wait(cn, cc.done); err != nil {
		return 0, nil, err
	}
	cn.mu.Lock()
	err = cn.err
	cn.mu.Unlock()
	if cc.status == 0 { // released by fail(), not by a reply
		return 0, nil, fmt.Errorf("client: transport failed mid-control: %w", err)
	}
	return int(cc.status), cc.body, nil
}

// CreateSession creates a session from a JSON create-request body and
// returns the session-info JSON.
func (c *Client) CreateSession(body []byte) (int, []byte, error) {
	return c.Control(wire.OpCreate, "", body)
}

// CheckpointSession freezes the session's learnt state now; the reply
// body carries {"session": ..., "state": ...}.
func (c *Client) CheckpointSession(id string) (int, []byte, error) {
	return c.Control(wire.OpCheckpoint, id, nil)
}

// DeleteSession drops the session and its checkpoint.
func (c *Client) DeleteSession(id string) (int, []byte, error) {
	return c.Control(wire.OpDelete, id, nil)
}

// SessionInfo returns the session's info JSON.
func (c *Client) SessionInfo(id string) (int, []byte, error) {
	return c.Control(wire.OpInfo, id, nil)
}

// Metrics returns the server's /v1/metrics JSON: the fixed-size
// document, plus the top busiest learning sessions when top > 0 (the
// server caps it at 64).
func (c *Client) Metrics(top int) (int, []byte, error) {
	return c.Control(wire.OpMetrics, "", metricsQuery(top))
}

// ListSessions returns one page of session infos sorted by id: the
// sessions whose ids sort after the cursor, at most limit of them
// (<= 0 selects the server's default of 100; the cap is 1,000). The
// reply's "next" field is the cursor for the following page, empty on
// the last one.
func (c *Client) ListSessions(after string, limit int) (int, []byte, error) {
	return c.Control(wire.OpList, "", listQuery(after, limit))
}

// metricsQuery encodes the OpMetrics request body; nil asks for the
// default document.
func metricsQuery(top int) []byte {
	if top <= 0 {
		return nil
	}
	b, _ := json.Marshal(struct {
		Top int `json:"top"`
	}{top})
	return b
}

// listQuery encodes the OpList request body.
func listQuery(after string, limit int) []byte {
	b, _ := json.Marshal(struct {
		After string `json:"after,omitempty"`
		Limit int    `json:"limit,omitempty"`
	}{after, limit})
	return b
}

// Health returns the server's /healthz JSON (O(1) on the server).
func (c *Client) Health() (int, []byte, error) {
	return c.Control(wire.OpHealth, "", nil)
}

// TraceSpans fetches recent decide-path spans from the server's trace
// ring. filter is the JSON filter document (/v1/trace's query params:
// min_us, session, trace, limit); nil fetches everything. The reply
// body is the JSON span array — how a router stitches fleet-wide traces
// over the binary control plane.
func (c *Client) TraceSpans(filter []byte) (int, []byte, error) {
	return c.Control(wire.OpTrace, "", filter)
}

func (cn *conn) readLoop() {
	defer close(cn.readerDone)
	r := wire.NewReader(cn.nc)
	var m wire.Decide
	var cm wire.ControlReply
	for {
		typ, payload, err := r.Next()
		if err != nil {
			cn.fail(err)
			return
		}
		switch typ {
		case wire.MsgDecide:
			if err := m.Decode(payload); err != nil {
				cn.fail(err)
				return
			}
			handle, idx := m.ID>>indexBits, int(m.ID&(MaxBatch-1))
			cn.mu.Lock()
			bc := cn.pending[handle]
			if bc == nil {
				// A decide for a batch we never issued (or one already fully
				// answered): the stream is inconsistent — request ids are
				// ours, a correct server only ever echoes them back once.
				cn.mu.Unlock()
				cn.fail(fmt.Errorf("client: decide for unknown batch (id %#x)", m.ID))
				return
			}
			if idx >= len(bc.out) {
				cn.mu.Unlock()
				cn.fail(fmt.Errorf("client: decide index %d beyond batch of %d (id %#x)", idx, len(bc.out), m.ID))
				return
			}
			if bc.answered[idx/64]&(1<<(idx%64)) != 0 {
				// Duplicate of an already-answered id: the first answer
				// stands. Decrementing remaining again would close the batch
				// early and return zero-valued decisions for entries never
				// answered at all.
				cn.mu.Unlock()
				continue
			}
			bc.answered[idx/64] |= 1 << (idx % 64)
			d := &bc.out[idx]
			d.OPPIdx = int(m.OPPIdx)
			d.FreqMHz = int(m.FreqMHz)
			if len(m.Err) > 0 {
				d.Err = string(m.Err)
			} else {
				d.Err = ""
			}
			bc.remaining--
			if bc.remaining == 0 {
				delete(cn.pending, handle)
				close(bc.done)
			}
			cn.mu.Unlock()
		case wire.MsgControlReply:
			if err := cm.Decode(payload); err != nil {
				cn.fail(err)
				return
			}
			cn.mu.Lock()
			cc := cn.pendingCtrl[cm.ID]
			if cc != nil {
				delete(cn.pendingCtrl, cm.ID)
				cc.status = cm.Status
				cc.body = append([]byte(nil), cm.Body...) // the frame buffer is reused
				close(cc.done)
			}
			cn.mu.Unlock()
		default:
			cn.fail(fmt.Errorf("client: unexpected frame type 0x%02x", typ))
			return
		}
	}
}

// fail records the connection's transport error and releases every
// waiter on this connection. Other connections of the same Client are
// untouched — their batches complete normally.
func (cn *conn) fail(err error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err == nil {
		cn.err = err
	}
	for handle, bc := range cn.pending {
		delete(cn.pending, handle)
		close(bc.done)
	}
	for id, cc := range cn.pendingCtrl {
		delete(cn.pendingCtrl, id)
		close(cc.done)
	}
}
