package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"hash/maphash"
	"log/slog"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qgov/internal/trace"
	"qgov/internal/wire"
)

// TCPServer serves the binary wire protocol on persistent multiplexed
// connections — the transport fast path. The HTTP endpoint pays ~500 µs
// of connection and JSON handling per 64-decision batch; a wire frame
// costs ~100 bytes and decodes allocation-free, so a persistent
// connection pushes decisions/s toward the governor's own throughput.
//
// Each connection runs three goroutines. A reader decodes frames into
// pooled requests. A dispatcher drains everything the reader has queued
// into one batch (connection-level batching: requests that arrive while
// earlier batches are deciding coalesce into the next fan-out) and
// starts it through the backend's startBatch, keeping up to
// pipelineDepth batches in flight. A writer answers the batches strictly
// in dispatch order, which equals arrival order, flushing whenever the
// next batch is not ready yet. Requests fail independently, exactly like
// entries of the JSON batch.
//
// Connections carry the whole protocol: the observe→decide hot loop
// plus MsgControl session-lifecycle frames (create, checkpoint, delete,
// info, metrics, list) that execute as ordering barriers inside a
// drain. The HTTP JSON API stays up beside it as the human-facing
// control plane, built over the same connBackend (http.go), so the two
// differ only in framing; a router drives a replica purely over this
// transport.
//
// The listener is generic over a connBackend: a Server answers locally
// (NewTCP); a Router answers by forwarding to the replica that owns
// each session (NewRouterTCP). Connection handling — batching, barrier
// ordering, drain — is one code path either way, which is what keeps the
// routed path's semantics equal to the flat server's by construction.
type TCPServer struct {
	b   connBackend
	lis net.Listener
	log *slog.Logger
	// relay marks a listener whose backend forwards observes verbatim (a
	// router): the reader then keeps each observe's raw payload instead
	// of decoding it.
	relay bool

	mu     sync.Mutex
	conns  map[*tcpConn]struct{}
	closed bool

	wg sync.WaitGroup // one per live connection
}

// connBackend answers the two frame families a binary connection
// carries — and, through the one HTTP mux (http.go), every HTTP route
// too.
type connBackend interface {
	// startBatch answers every request of the batch in place and returns
	// a channel that closes once all are answered. A Server decides the
	// batch before returning (the channel is answered, already closed);
	// a Router relays it and closes the channel from a completion
	// goroutine, so a connection overlaps a relay's round trips with the
	// next drain. Requests off a relay listener carry their raw observe
	// payload; JSON decides and a Server's requests carry the decoded m.
	startBatch(batch []*observeReq) <-chan struct{}
	// control executes one lifecycle op and returns an HTTP-vocabulary
	// status with a JSON body. Both planes call it through callControl.
	control(op byte, session string, body []byte) (status uint16, resp []byte)
	// metrics is the document OpMetrics serves, unencoded, so the
	// Prometheus scrape renders it without a JSON round trip. top, as
	// normalised into [0, maxTopSessions], adds that many of the busiest
	// learning sessions.
	metrics(top int) (metricsJSON, error)
}

// answered is an already-closed channel: the done of a synchronous
// startBatch and of every control flight, whose answers are in place
// when it is handed out.
var answered = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// pipelineDepth is how many dispatched batches a connection keeps
// waiting for answers before the dispatcher stops pulling new frames off
// it.
const pipelineDepth = 4

// NewTCP wraps srv with a binary-transport listener. Call Serve to
// accept; Shutdown (or Close) before srv.Close so the final checkpoint
// sees every drained decision.
func NewTCP(srv *Server, lis net.Listener) *TCPServer {
	return newTCPListener(srv, lis, srv.log, false)
}

func newTCPListener(b connBackend, lis net.Listener, log *slog.Logger, relay bool) *TCPServer {
	return &TCPServer{
		b:     b,
		lis:   lis,
		log:   log,
		relay: relay,
		conns: make(map[*tcpConn]struct{}),
	}
}

// Addr returns the listener's address.
func (t *TCPServer) Addr() net.Addr { return t.lis.Addr() }

// Serve accepts connections until the listener closes. It returns nil
// after Shutdown/Close, the accept error otherwise.
func (t *TCPServer) Serve() error {
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			if t.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := &tcpConn{
			t:    t,
			conn: conn,
			reqs: make(chan *observeReq, maxDecideBatch),
		}
		if !t.register(c) {
			conn.Close()
			return nil
		}
		t.wg.Add(1)
		go c.run()
	}
}

func (t *TCPServer) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *TCPServer) register(c *tcpConn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *TCPServer) unregister(c *tcpConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, c)
}

// snapshot returns the live connections and marks the server closed.
func (t *TCPServer) snapshotAndClose() []*tcpConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	all := make([]*tcpConn, 0, len(t.conns))
	for c := range t.conns {
		all = append(all, c)
	}
	return all
}

// drainQuiet is how long a draining connection keeps reading after
// Shutdown begins. Frames the client had written when shutdown started
// are in the kernel buffer and arrive within milliseconds; a persistent
// connection has no request boundary that would mark it "idle" (the way
// http.Server.Shutdown detects idle conns), so reading stops after this
// quiet window rather than holding every restart for the full grace.
const drainQuiet = time.Second

// Shutdown drains gracefully: the listener closes, every connection
// keeps reading for drainQuiet (bounded by ctx's deadline) so frames
// already in flight are decided and answered, responses flush, and the
// call returns once all connections have closed. When ctx expires
// first, remaining connections are cut and ctx.Err() returned. Call the
// owning Server's Close afterwards so the final checkpoint includes
// every drained decision.
func (t *TCPServer) Shutdown(ctx context.Context) error {
	conns := t.snapshotAndClose()
	t.lis.Close()

	deadline := time.Now().Add(drainQuiet)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for _, c := range conns {
		// Reads past the deadline fail; the reader goroutine then stops
		// accepting frames and the worker drains what was queued.
		_ = c.conn.SetReadDeadline(deadline)
	}

	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range conns {
			c.conn.Close()
		}
		<-done
		return ctx.Err()
	}
}

// Close cuts every connection immediately. Tests and error paths use it;
// production shutdown goes through Shutdown.
func (t *TCPServer) Close() error {
	conns := t.snapshotAndClose()
	err := t.lis.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	t.wg.Wait()
	return err
}

// observeReq is one in-flight binary request: a decoded observe message
// (or, when ctrl is set, a decoded control message) and, once handled,
// its answer. Pooled so a steady decision stream allocates nothing.
type observeReq struct {
	m       wire.Observe
	oppIdx  int32
	freqMHz int32
	errMsg  string
	// unknown marks a request whose session this server does not hold —
	// the forwarding pass may still answer it via the ring owner.
	unknown bool

	// raw is the encoded observe payload, captured only on a relay
	// listener's connections: the backend forwards these bytes to the
	// owning replica with just the request id rewritten, never decoding
	// the observation. When raw is set, m carries only the relay metadata
	// (ID, Flags, Session — the session aliases raw); m.Obs is stale.
	raw []byte

	ctrl       bool
	cm         wire.Control
	ctrlStatus uint16
	ctrlBody   []byte
}

var observePool = sync.Pool{New: func() any { return new(observeReq) }}

// putObserveReq resets a request's per-use state and returns it to the
// pool. raw keeps its capacity (truncated to zero) so relay connections
// stop allocating in steady state.
func putObserveReq(r *observeReq) {
	r.errMsg = ""
	r.unknown = false
	r.ctrlBody = nil
	r.raw = r.raw[:0]
	observePool.Put(r)
}

// maxWireErrLen truncates per-request error messages on the wire; real
// governor errors are a line, anything longer is a recovered panic dump.
const maxWireErrLen = 1024

type tcpConn struct {
	t    *TCPServer
	conn net.Conn
	reqs chan *observeReq
}

func (c *tcpConn) run() {
	defer c.t.wg.Done()
	defer c.t.unregister(c)
	defer c.conn.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.dispatch()
	}()
	c.read()
	close(c.reqs) // reader is done; let the worker drain and exit
	<-done
}

// read decodes frames until the stream ends. Any protocol error (bad
// magic, truncated message, unexpected frame type) drops the connection
// — framing is byte-exact, so there is no way to resynchronise. On a
// relay listener, observe payloads are copied verbatim instead of
// decoded: the relay needs only the id and session, which ObserveMeta
// reads at fixed offsets.
func (c *tcpConn) read() {
	r := wire.NewReader(c.conn)
	for {
		typ, payload, err := r.Next()
		if err != nil {
			// EOF (client went away), read-deadline expiry (drain), or a
			// poisoned stream: all end the reading half.
			return
		}
		req := observePool.Get().(*observeReq)
		switch typ {
		case wire.MsgObserve:
			req.ctrl = false
			if c.t.relay {
				// The reader's payload buffer is reused next frame; the
				// request owns a copy, and the decoded session aliases it.
				req.raw = append(req.raw[:0], payload...)
				req.m.ID, req.m.Flags, req.m.Session, err = wire.ObserveMeta(req.raw)
			} else {
				err = req.m.Decode(payload)
			}
		case wire.MsgControl:
			req.ctrl = true
			err = req.cm.Decode(payload)
		default:
			putObserveReq(req)
			c.t.log.Warn("dropping connection on unexpected frame type",
				"remote", c.conn.RemoteAddr().String(), "type", typ)
			return
		}
		if err != nil {
			putObserveReq(req)
			c.t.log.Warn("dropping connection on malformed frame",
				"remote", c.conn.RemoteAddr().String(), "err", err)
			return
		}
		c.reqs <- req
	}
}

// flight is one dispatched unit of the worker: a run of requests whose
// answers land when done closes. Control frames ride as single-request
// flights with done already closed (they execute synchronously at their
// barrier), so the reply writer emits everything in dispatch order
// without telling the two kinds apart. A drain's last flight also
// carries the drain's whole queue, which the writer hands back for reuse
// once that flight is answered.
type flight struct {
	queue []*observeReq
	done  <-chan struct{}
	drain []*observeReq
}

// dispatch is the connection's batching worker: it blocks for one
// request, coalesces everything else already queued into the same
// drain, starts each maximal run of observes as one batch, and moves on
// to the next drain instead of waiting for the answers — up to
// pipelineDepth batches overlap, so a slow lane (one stalled replica
// behind a router) does not gate frames bound elsewhere. A separate
// writer goroutine answers the batches strictly in dispatch order.
//
// Control frames are ordering barriers within the drain: every
// outstanding batch completes before the control executes, so a create
// queued before an observe is applied before that observe decides, and
// "create session, start deciding" works over one connection without a
// round trip between the two.
func (c *tcpConn) dispatch() {
	flights := make(chan flight, pipelineDepth)
	// free recycles drain queues; a queue is back once the writer has
	// answered the drain's last flight. At most pipelineDepth+2 drains
	// exist at once (the queued flights, the one the writer holds, the one
	// being filled), so a buffer that size never drops a queue.
	free := make(chan []*observeReq, pipelineDepth+2)
	wfail := make(chan struct{}) // closed by the writer when the conn's write half dies
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		c.writeReplies(flights, free, wfail)
	}()

	// outstanding tracks dispatched flights whose done has not been seen
	// closed yet; the control barrier waits them out. Bounded: the
	// flights channel applies backpressure at pipelineDepth, and answered
	// entries are pruned each drain.
	var outstanding []<-chan struct{}
	failed := false

	send := func(f flight) {
		if !failed {
			select {
			case flights <- f:
				outstanding = append(outstanding, f.done)
				return
			case <-wfail:
				failed = true
			}
		}
		// The writer is gone; the backend still owns the requests until
		// done closes, then they pool here.
		<-f.done
		for _, r := range f.queue {
			putObserveReq(r)
		}
	}

	for {
		req, ok := <-c.reqs
		if !ok {
			close(flights)
			<-wdone
			return
		}
		var queue []*observeReq
		select {
		case queue = <-free:
		default:
			queue = make([]*observeReq, 0, 16)
		}
		queue = append(queue, req)
	coalesce:
		for len(queue) < maxDecideBatch {
			select {
			case more, ok := <-c.reqs:
				if !ok {
					break coalesce
				}
				queue = append(queue, more)
			default:
				break coalesce
			}
		}

		n := 0
	prune:
		for ; n < len(outstanding); n++ {
			select {
			case <-outstanding[n]:
			default:
				break prune
			}
		}
		outstanding = append(outstanding[:0], outstanding[n:]...)
		if !failed {
			select {
			case <-wfail:
				failed = true
			default:
			}
		}

		// Dispatch the drain in arrival order: each maximal observe run
		// is one flight, each control frame a barrier between runs.
		for i := 0; i < len(queue); {
			j := i + 1
			f := flight{queue: queue[i:j], done: answered}
			if r := queue[i]; r.ctrl {
				for _, d := range outstanding {
					<-d
				}
				outstanding = outstanding[:0]
				if !failed {
					r.ctrlStatus, r.ctrlBody = callControl(c.t.b, c.t.log, r.cm.Op, string(r.cm.Session), r.cm.Body)
				}
			} else {
				for j < len(queue) && !queue[j].ctrl {
					j++
				}
				f.queue = queue[i:j]
				if !failed {
					f.done = c.t.b.startBatch(f.queue)
				}
			}
			if j == len(queue) {
				f.drain = queue
			}
			send(f)
			i = j
		}
	}
}

// writeReplies is the worker's write half: it waits each flight out in
// dispatch order and answers it. Replies accumulate while a completed
// flight is immediately next, and flush when the pipeline has nothing
// ready — so a caller blocked on the oldest batch is never left waiting
// behind an unflushed buffer. Decide replies carry 0 in the wire
// format's member-epoch field.
func (c *tcpConn) writeReplies(flights <-chan flight, free chan<- []*observeReq, wfail chan struct{}) {
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	var scratch []byte
	failed := false
	fail := func() {
		if !failed {
			failed = true
			// Close so the reader unblocks; the dispatcher sees wfail and
			// stops dispatching.
			c.conn.Close()
			close(wfail)
		}
	}
	writeFlight := func(f flight) {
		<-f.done
		for _, r := range f.queue {
			if failed {
				break
			}
			var err error
			if r.ctrl {
				scratch, err = wire.AppendControlReply(scratch[:0], r.cm.ID, r.ctrlStatus, r.ctrlBody)
				if err != nil {
					// The response body alone can exceed the frame bound
					// (a very large checkpoint): answer with an error
					// instead of silently dropping the request id.
					scratch, err = wire.AppendControlReply(scratch[:0], r.cm.ID,
						500, errorBody(errf("control response exceeds the frame bound")))
				}
			} else {
				// Cap the error message below the codec's 64 KiB field
				// bound: a failed AppendDecide would otherwise drop the
				// response and leave the client waiting on that id forever.
				if len(r.errMsg) > maxWireErrLen {
					r.errMsg = r.errMsg[:maxWireErrLen]
				}
				scratch, err = wire.AppendDecide(scratch[:0], r.m.ID, 0, r.oppIdx, r.freqMHz, r.errMsg)
			}
			if err == nil {
				_, err = bw.Write(scratch)
			}
			if err != nil {
				fail() // cannot answer → the connection must die
			}
		}
		for _, r := range f.queue {
			putObserveReq(r)
		}
		if f.drain != nil {
			clear(f.drain)
			select {
			case free <- f.drain[:0]:
			default:
			}
		}
	}
	flush := func() {
		if !failed && bw.Flush() != nil {
			fail()
		}
	}

	for f := range flights {
		writeFlight(f)
	next:
		for !failed {
			select {
			case f2, ok := <-flights:
				if !ok {
					break next
				}
				select {
				case <-f2.done:
					// Already answered — write it under the same flush.
				default:
					// The next flight is still in the air: flush what the
					// oldest callers are waiting on before blocking on it.
					flush()
				}
				writeFlight(f2)
			default:
				break next
			}
		}
		flush()
	}
}

// startBatch implements connBackend for the Server: every request in
// the batch — a binary drain or a JSON /v1/decide body — is answered
// through fanOut and the session lock before it returns, so the channel
// it returns is answered, already closed. Requests for sessions this
// replica does not hold are then offered to the forwarding pass — with a
// fleet table installed, the ring owner answers them on behalf of a
// stale direct client.
//
// Tracing rides the same pass. A request that arrived with a wire trace
// id (a router or client sampled it upstream) always records a "decide"
// span; otherwise the batch's own head-sampling decision applies. Tail
// capture times the whole batch when the tracer is enabled and records
// a slow "decide.batch" span plus a structured warning when the batch
// crosses the threshold — that is what catches the outlier the head
// sample almost always misses.
func (s *Server) startBatch(batch []*observeReq) <-chan struct{} {
	tr := s.tracer
	batchTrace, _ := tr.Sample()
	timed := tr.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	fanOut(batch, func(r *observeReq) {
		tid := trace.TraceID(r.m.TraceID)
		if tid == 0 {
			tid = batchTrace
		}
		if tid == 0 {
			s.decideReq(r)
			return
		}
		t0 := time.Now()
		s.decideReq(r)
		tr.Record(trace.Span{
			Trace:     tid,
			Stage:     "decide",
			Origin:    s.originName(),
			Session:   string(r.m.Session),
			Start:     t0.UnixNano(),
			DurUS:     float64(time.Since(t0)) / float64(time.Microsecond),
			Forwarded: r.m.Flags&wire.FlagForwarded != 0,
			Err:       r.errMsg,
		})
	})
	s.forwardMisrouted(batch, batchTrace)
	if !timed {
		return answered
	}
	dur := time.Since(start)
	if tr.Slow(dur) {
		id := batchTrace
		if id == 0 {
			id = tr.ID()
		}
		tr.Record(trace.Span{
			Trace:  id,
			Stage:  "decide.batch",
			Origin: s.originName(),
			Start:  start.UnixNano(),
			DurUS:  float64(dur) / float64(time.Microsecond),
			Batch:  len(batch),
			Slow:   true,
		})
		s.log.Warn("slow decide batch",
			"trace", id.String(),
			"dur_us", float64(dur)/float64(time.Microsecond),
			"batch", len(batch))
	} else if batchTrace != 0 {
		tr.Record(trace.Span{
			Trace:  batchTrace,
			Stage:  "decide.batch",
			Origin: s.originName(),
			Start:  start.UnixNano(),
			DurUS:  float64(dur) / float64(time.Microsecond),
			Batch:  len(batch),
		})
	}
	return answered
}

// decideReq answers one binary request in place — the per-request body
// startBatch fans out, shared by its traced and untraced arms.
func (s *Server) decideReq(r *observeReq) {
	sess := s.sessionFor(r.m.Session)
	if sess == nil {
		r.unknown = true
		r.oppIdx, r.freqMHz = -1, 0
		r.errMsg = errUnknownSession(string(r.m.Session)).Error()
		return
	}
	r.unknown = false
	idx, err := sess.decide(r.m.Obs)
	if err != nil {
		r.oppIdx, r.freqMHz = -1, 0
		r.errMsg = err.Error()
		return
	}
	r.oppIdx = int32(idx)
	r.freqMHz = int32(sess.plat.table[idx].FreqMHz)
	s.decisions.Add(1)
}

// parallelDecideThreshold is the batch size past which fanning entries
// out across workers beats a serial loop (a single decision is a few
// microseconds of governor work).
const parallelDecideThreshold = 32

// fanOutChunks is how many runs a parallel fan-out splits a batch into
// for its workers to claim: enough that they steal work evenly, few
// enough that partitioning stays a rounding error.
const fanOutChunks = 64

// fanOut runs f on every request of the batch, in parallel across
// min(GOMAXPROCS, n) workers when the batch is big enough to amortise
// the goroutine hand-off. Sessions lock independently, so entries for
// different sessions run concurrently — but one session's entries must
// apply in arrival order, or its learning diverges from the sequence the
// caller sent. So the batch splits into contiguous arrival-order chunks,
// except that an entry whose session already appeared earlier in the
// batch joins that first occurrence's chunk; a stable counting sort
// keeps arrival order within each chunk, and workers claim whole chunks.
// (Bucketing by session hash alone is also correct, but deciding in hash
// order rather than arrival order measured 10–20% slower on 256-entry
// batches: it scatters the sessions' memory accesses.)
func fanOut(batch []*observeReq, f func(r *observeReq)) {
	n := len(batch)
	workers := min(runtime.GOMAXPROCS(0), n, fanOutChunks)
	if n < parallelDecideThreshold || workers < 2 {
		for _, r := range batch {
			f(r)
		}
		return
	}
	sc := fanScratchPool.Get().(*fanScratch)
	// seen is an open-addressed set of the batch's sessions at load ≤ 1/2:
	// a slot holds the index+1 of the session's first occurrence.
	size := 2 << bits.Len(uint(n-1))
	seen := slices.Grow(sc.seen[:0], size)[:size]
	clear(seen)
	mask := uint64(len(seen) - 1)
	chunk := slices.Grow(sc.chunk[:0], n)[:n]
	start := &sc.start
	*start = [fanOutChunks + 1]int{}
	for i, r := range batch {
		c := uint8(i * fanOutChunks / n)
		for h := maphash.Bytes(fanSeed, r.m.Session) & mask; ; h = (h + 1) & mask {
			j := seen[h]
			if j == 0 {
				seen[h] = int32(i + 1)
				break
			}
			if bytes.Equal(batch[j-1].m.Session, r.m.Session) {
				c = chunk[j-1]
				break
			}
		}
		chunk[i] = c
		start[c+1]++
	}
	for c := 1; c <= fanOutChunks; c++ {
		start[c] += start[c-1]
	}
	order := slices.Grow(sc.order[:0], n)[:n]
	fill := *start
	for i, r := range batch {
		order[fill[chunk[i]]] = r
		fill[chunk[i]]++
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= fanOutChunks {
					return
				}
				for _, r := range order[start[c]:start[c+1]] {
					f(r)
				}
			}
		}()
	}
	wg.Wait()
	clear(order) // the requests return to their own pool
	sc.seen, sc.chunk, sc.order = seen, chunk, order
	fanScratchPool.Put(sc)
}

// fanScratch is one parallel fan-out's partition state, pooled so a
// steady decide stream does not turn every batch into garbage.
type fanScratch struct {
	seen  []int32
	chunk []uint8
	order []*observeReq
	start [fanOutChunks + 1]int
}

var fanScratchPool = sync.Pool{New: func() any { return new(fanScratch) }}

// fanSeed keys fanOut's session set. The partition does not depend on
// hash values (only on which entry came first), so any seed will do.
var fanSeed = maphash.MakeSeed()
