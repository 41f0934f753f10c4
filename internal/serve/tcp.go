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
// Each connection runs two goroutines. A reader decodes MsgObserve
// frames into pooled requests; a worker drains everything the reader has
// queued into one batch (connection-level batching: requests that arrive
// while the previous batch is deciding coalesce into the next fan-out),
// decides the batch through the same fanOut/session path as HTTP, and
// writes the MsgDecide responses back with a single flush. Requests fail
// independently, exactly like entries of the JSON batch.
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
// ordering, drain — is identical either way, which is what keeps the
// routed path's semantics equal to the flat server's by construction.
type TCPServer struct {
	b   connBackend
	lis net.Listener
	log *slog.Logger

	mu     sync.Mutex
	conns  map[*tcpConn]struct{}
	closed bool

	wg sync.WaitGroup // one per live connection
}

// connBackend answers the two frame families a binary connection
// carries — and, through the one HTTP mux (http.go), every HTTP route
// too. decideBatch fills each request's answer in place; control
// executes one lifecycle op and returns an HTTP-vocabulary status with
// a JSON body.
type connBackend interface {
	decideBatch(batch []*observeReq)
	control(op byte, session string, body []byte) (status uint16, resp []byte)
	// metrics is the document OpMetrics serves, unencoded, so the
	// Prometheus scrape renders it without a JSON round trip. top, as
	// normalised into [0, maxTopSessions], adds that many of the busiest
	// learning sessions.
	metrics(top int) (metricsJSON, error)
	// memberEpoch is the fleet membership epoch stamped into every decide
	// reply (0 outside any fleet).
	memberEpoch() uint32
}

// batchStarter is the optional pipelined refinement of connBackend: the
// backend dispatches a batch asynchronously and returns a channel that
// closes when every entry is answered. A connection whose backend
// implements it overlaps batches — up to pipelineDepth dispatched
// batches wait for answers while the reader keeps coalescing the next —
// instead of blocking the respond worker on each batch in turn. The
// router implements it: a relay's round trips to the replicas are
// exactly the waits worth overlapping, and one slow replica then stalls
// only its own lane instead of the connection.
//
// Requests reaching startBatch carry their raw observe payload (the
// reader captures it), so a relaying backend forwards the encoded bytes
// without re-encoding. Replies still go back in dispatch order — the
// client-visible stream is indistinguishable from the serial worker's.
type batchStarter interface {
	startBatch(batch []*observeReq) <-chan struct{}
}

// pipelineDepth is how many decide batches a pipelined connection keeps
// in flight toward the replicas before the reader stops pulling new
// frames off it.
const pipelineDepth = 4

// NewTCP wraps srv with a binary-transport listener. Call Serve to
// accept; Shutdown (or Close) before srv.Close so the final checkpoint
// sees every drained decision.
func NewTCP(srv *Server, lis net.Listener) *TCPServer {
	return newTCPListener(srv, lis, srv.log)
}

func newTCPListener(b connBackend, lis net.Listener, log *slog.Logger) *TCPServer {
	return &TCPServer{
		b:     b,
		lis:   lis,
		log:   log,
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

	// raw is the encoded observe payload, captured only on pipelined
	// (relaying) connections: the backend forwards these bytes to the
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

	// A backend that can dispatch batches asynchronously gets the
	// pipelined worker; everything else keeps the serial one. The mode is
	// fixed per connection — the reader captures raw payloads only when a
	// relaying backend will forward them.
	bs, pipelined := c.t.b.(batchStarter)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if pipelined {
			c.respondPipelined(bs)
		} else {
			c.respond()
		}
	}()
	c.read(pipelined)
	close(c.reqs) // reader is done; let the worker drain and exit
	<-done
}

// read decodes frames until the stream ends. Any protocol error (bad
// magic, truncated message, unexpected frame type) drops the connection
// — framing is byte-exact, so there is no way to resynchronise. With
// raw set (a relaying backend), observe payloads are copied verbatim
// instead of decoded: the relay needs only the id and session, which
// ObserveMeta reads at fixed offsets.
func (c *tcpConn) read(raw bool) {
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
			if raw {
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

// respond is the connection's batching worker: it blocks for one request,
// coalesces everything else already queued into the same drain, decides
// runs of observes in one fan-out each, and writes all responses under
// one flush. Control frames are ordering barriers within the drain: a
// create queued before an observe is applied before that observe
// decides, so "create session, start deciding" works over one
// connection without a round trip between the two.
func (c *tcpConn) respond() {
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	var queue []*observeReq
	var scratch []byte
	for {
		req, ok := <-c.reqs
		if !ok {
			return
		}
		queue = append(queue[:0], req)
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

		// Handle the drain strictly in arrival order: each maximal run of
		// observes decides as one fan-out, and each control frame executes
		// at its position between runs (so a create queued before an
		// observe is visible to that observe's decide).
		for i := 0; i < len(queue); {
			if r := queue[i]; r.ctrl {
				r.ctrlStatus, r.ctrlBody = c.t.b.control(r.cm.Op, string(r.cm.Session), r.cm.Body)
				i++
				continue
			}
			j := i
			for j < len(queue) && !queue[j].ctrl {
				j++
			}
			c.t.b.decideBatch(queue[i:j])
			i = j
		}

		writeErr := false
		epoch := c.t.b.memberEpoch()
		for _, r := range queue {
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
				scratch, err = wire.AppendDecide(scratch[:0], r.m.ID, epoch, r.oppIdx, r.freqMHz, r.errMsg)
			}
			if err != nil {
				writeErr = true // cannot answer → the connection must die
			} else if !writeErr {
				if _, werr := bw.Write(scratch); werr != nil {
					writeErr = true
				}
			}
			putObserveReq(r)
		}
		if !writeErr {
			writeErr = bw.Flush() != nil
		}
		if writeErr {
			// The write half is gone. Close the connection so the reader
			// unblocks, then drain its queue so it never blocks sending.
			c.conn.Close()
			for r := range c.reqs {
				putObserveReq(r)
			}
			return
		}
	}
}

// flight is one dispatched unit of the pipelined worker: a run of
// requests whose answers land when done closes. Control frames ride as
// single-request flights with an already-closed done (they execute
// synchronously at their barrier), so the reply writer emits everything
// in dispatch order without telling the two kinds apart.
type flight struct {
	queue []*observeReq
	done  <-chan struct{}
}

// respondPipelined is the pipelined twin of respond: it coalesces
// arrivals exactly the same way, but dispatches each observe run
// through startBatch and moves on to the next drain instead of blocking
// for the answers — up to pipelineDepth dispatched batches overlap, so
// a slow lane (one stalled replica behind a router) no longer gates
// frames bound elsewhere. A separate writer goroutine emits replies strictly
// in dispatch order, which equals arrival order: the client-visible
// stream is the serial worker's, byte for byte.
//
// Control frames keep their barrier semantics: every outstanding flight
// completes before the control executes, and its reply takes its place
// in the dispatch order.
func (c *tcpConn) respondPipelined(bs batchStarter) {
	flights := make(chan flight, pipelineDepth)
	wfail := make(chan struct{}) // closed by the writer when the conn's write half dies
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		c.writeReplies(flights, wfail)
	}()

	ctrlDone := make(chan struct{})
	close(ctrlDone)

	// outstanding tracks dispatched flights whose done has not been seen
	// closed yet; the control barrier waits them out. Bounded: the
	// flights channel applies backpressure at pipelineDepth, and completed
	// entries are pruned each drain.
	var outstanding []<-chan struct{}
	failed := false

	dispatch := func(f flight) {
		if failed {
			// The writer is gone; the backend still owns the requests
			// until done closes, then they pool here.
			<-f.done
			for _, r := range f.queue {
				putObserveReq(r)
			}
			return
		}
		select {
		case flights <- f:
			outstanding = append(outstanding, f.done)
		case <-wfail:
			failed = true
			<-f.done
			for _, r := range f.queue {
				putObserveReq(r)
			}
		}
	}

	for {
		req, ok := <-c.reqs
		if !ok {
			close(flights)
			<-wdone
			return
		}
		// Fresh slice per drain: its sub-slices fly as flights that
		// outlive this loop iteration.
		queue := make([]*observeReq, 0, 16)
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

		for len(outstanding) > 0 {
			select {
			case <-outstanding[0]:
				outstanding = outstanding[1:]
				continue
			default:
			}
			break
		}
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
			if r := queue[i]; r.ctrl {
				for _, d := range outstanding {
					<-d
				}
				outstanding = outstanding[:0]
				if failed {
					putObserveReq(r)
				} else {
					r.ctrlStatus, r.ctrlBody = c.t.b.control(r.cm.Op, string(r.cm.Session), r.cm.Body)
					dispatch(flight{queue: queue[i : i+1], done: ctrlDone})
				}
				i++
				continue
			}
			j := i
			for j < len(queue) && !queue[j].ctrl {
				j++
			}
			if failed {
				for _, r := range queue[i:j] {
					putObserveReq(r)
				}
			} else {
				run := queue[i:j]
				dispatch(flight{queue: run, done: bs.startBatch(run)})
			}
			i = j
		}
	}
}

// writeReplies is the pipelined worker's write half: it waits each
// flight out in dispatch order and answers it. The flush policy matches
// the serial worker's one-flush-per-drain instinct: replies accumulate
// while a completed flight is immediately next, and flush when the
// pipeline has nothing ready — so a caller blocked on the oldest batch
// is never left waiting behind an unflushed buffer.
func (c *tcpConn) writeReplies(flights <-chan flight, wfail chan struct{}) {
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
		if !failed {
			epoch := c.t.b.memberEpoch()
			for _, r := range f.queue {
				var err error
				if r.ctrl {
					scratch, err = wire.AppendControlReply(scratch[:0], r.cm.ID, r.ctrlStatus, r.ctrlBody)
					if err != nil {
						scratch, err = wire.AppendControlReply(scratch[:0], r.cm.ID,
							500, errorBody(errf("control response exceeds the frame bound")))
					}
				} else {
					if len(r.errMsg) > maxWireErrLen {
						r.errMsg = r.errMsg[:maxWireErrLen]
					}
					scratch, err = wire.AppendDecide(scratch[:0], r.m.ID, epoch, r.oppIdx, r.freqMHz, r.errMsg)
				}
				if err != nil {
					fail() // cannot answer → the connection must die
				} else if !failed {
					if _, werr := bw.Write(scratch); werr != nil {
						fail()
					}
				}
			}
		}
		for _, r := range f.queue {
			putObserveReq(r)
		}
	}

	for {
		f, ok := <-flights
		if !ok {
			if !failed && bw.Flush() != nil {
				fail()
			}
			return
		}
		writeFlight(f)
	next:
		for !failed {
			select {
			case f2, ok2 := <-flights:
				if !ok2 {
					if !failed && bw.Flush() != nil {
						fail()
					}
					return
				}
				select {
				case <-f2.done:
					// Already answered — write it under the same flush.
				default:
					// The next flight is still in the air: flush what the
					// oldest callers are waiting on before blocking on it.
					if bw.Flush() != nil {
						fail()
					}
				}
				writeFlight(f2)
			default:
				break next
			}
		}
		if !failed && bw.Flush() != nil {
			fail()
		}
	}
}

// decideBatch implements connBackend for the Server: every request in
// the batch — a binary drain or a JSON /v1/decide body — is answered
// through fanOut and the session lock. Requests for sessions this replica does not hold are
// then offered to the forwarding pass — with a fleet table installed,
// the ring owner answers them on behalf of a stale direct client.
//
// Tracing rides the same pass. A request that arrived with a wire trace
// id (a router or client sampled it upstream) always records a "decide"
// span; otherwise the batch's own head-sampling decision applies. Tail
// capture times the whole batch when the tracer is enabled and records
// a slow "decide.batch" span plus a structured warning when the batch
// crosses the threshold — that is what catches the outlier the head
// sample almost always misses.
func (s *Server) decideBatch(batch []*observeReq) {
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
		return
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
}

// decideReq answers one binary request in place — the per-request body
// decideBatch fans out, shared by its traced and untraced arms.
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
