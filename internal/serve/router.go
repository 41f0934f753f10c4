package serve

import (
	"cmp"
	crand "crypto/rand"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qgov/internal/ring"
	"qgov/internal/serve/client"
	"qgov/internal/stats"
	"qgov/internal/trace"
	"qgov/internal/wire"
)

// Router is the fleet-facing front of a sharded rtmd deployment: it
// owns no sessions itself, maps every session id onto a replica with a
// consistent-hash ring, and forwards traffic over persistent
// multiplexed binary connections (ConnsPerReplica of them per member,
// relayed batches striped round-robin). The decide path is a zero-copy
// pipelined relay: observe payloads coming off the binary listener are
// forwarded as raw bytes — only the request id is rewritten — grouped
// by owner, and dispatched without waiting for the previous batch's
// replies, so up to pipelineDepth batches stay in flight per inbound
// connection while each replica's slice still travels as one flush on
// that replica's connection (the connection-level batch coalescing the
// flat server relies on, preserved per replica). Per-batch grouping
// state is pooled.
// Control operations (create, checkpoint, delete, info) follow the
// same ring; metrics and list aggregate across the fleet — fixed-size
// documents and bounded pages merge into documents and pages of the same
// bounds — and metrics adds a per-replica relay hop histogram and
// in-flight gauge.
//
// The router serves the same two fronts as a replica — Handler (the
// HTTP API, built by the same code as the flat server's) and
// NewRouterTCP (the binary transport, whose connections run the flat
// server's worker; only startBatch differs, asynchronous here and
// synchronous there). Clients cannot tell a router
// from a flat server — the router equivalence test holds routed
// decision streams byte-identical to a single server over the same
// session set.
//
// The ring is built once, in NewRouter, and never changes: resharding
// is a restart of the fleet over shared checkpoint storage (see the
// rtmd package doc), not a live operation. NewRouter pushes the table
// (a wire.Members document at routerEpoch) to every replica, so
// replicas can forward decides that a direct client (client.Fleet) sent
// to a member that does not own the session. A background prober
// health-checks every member, redials dropped connections (a replica
// restart does not poison its client forever), re-pushes the table to
// replicas that restarted, and feeds per-member up/down status into
// /healthz and the members table.
type Router struct {
	opt    RouterOptions
	log    *slog.Logger
	tracer *trace.Tracer

	// ring is immutable after NewRouter, so placement takes no lock.
	ring *ring.Ring

	// mu guards clients: the prober swaps in a fresh client when it
	// redials a restarted replica, and Close closes them all.
	mu       sync.RWMutex
	clients  map[string]*client.Client
	closeErr error

	// stmu guards status: the prober's per-member up/down view. Separate
	// from mu so health reporting never contends with the decide path.
	stmu   sync.Mutex
	status map[string]memberStatus

	nextID    atomic.Int64
	decisions atomic.Int64

	// relayWG counts relay completion goroutines, so Close can wait for
	// them to finish writing their batches. Add runs under mu.RLock, Wait
	// under mu.Lock — mutually exclusive, so a Wait never races an Add.
	relayWG  sync.WaitGroup
	inflight atomic.Int64

	// hopmu guards hops: per-replica routed round-trip latency, recorded
	// by relay completion goroutines and snapshotted by metrics.
	hopmu sync.Mutex
	hops  map[string]*stats.Histogram

	done      chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// memberStatus is the prober's last verdict on one member.
type memberStatus struct {
	up  bool
	err string
}

// routerEpoch is the membership epoch of the router's table. The ring
// never changes, so neither does the epoch; a replica reporting another
// one (0 after a restart) gets the table re-pushed.
const routerEpoch = 1

// defaultProbeEvery is the replica health-check cadence when
// RouterOptions.ProbeEvery is zero.
const defaultProbeEvery = 2 * time.Second

// Routed hop latency histogram shape: 0–20ms in 400µs bins covers
// loopback and rack-local round trips; slower hops land in overflow,
// which the exposition still counts.
const (
	routeHopHiUS = 20000
	routeHopBins = 50
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// VirtualNodes is the ring's virtual-node count per replica; <= 0
	// selects ring.DefaultVirtualNodes.
	VirtualNodes int
	// ProbeEvery is the replica health-check cadence: every interval the
	// router probes each member, redials the unreachable ones, and marks
	// them up/down for /healthz and the members table. Zero selects
	// defaultProbeEvery; negative disables probing.
	ProbeEvery time.Duration
	// Log receives operational and slow-request log records; nil
	// discards them.
	Log *slog.Logger
	// Tracer head-samples routed decide batches (tagging relayed frames
	// so replica spans stitch under the same id) and tail-captures slow
	// routed batches. Nil builds a default tracer with sampling off.
	Tracer *trace.Tracer
	// ConnsPerReplica is how many binary connections the router opens to
	// each replica; batches stripe across them. <= 0 selects 1.
	ConnsPerReplica int
}

// NewRouter dials every replica's binary address and builds the ring
// over them. Replica addresses are the ring's member names: every
// router given the same replica set computes the same placement.
func NewRouter(replicas []string, opt RouterOptions) (*Router, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	lg := opt.Log
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	tr := opt.Tracer
	if tr == nil {
		tr = trace.New(trace.Options{})
	}
	rt := &Router{
		opt:     opt,
		log:     lg,
		tracer:  tr,
		ring:    ring.New(opt.VirtualNodes),
		clients: make(map[string]*client.Client, len(replicas)),
		status:  make(map[string]memberStatus, len(replicas)),
		done:    make(chan struct{}),
	}
	for _, addr := range replicas {
		if _, dup := rt.clients[addr]; dup {
			continue
		}
		cl, err := rt.dialReplica(addr)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("serve: dialing replica %s: %w", addr, err)
		}
		rt.clients[addr] = cl
		rt.ring.Add(addr)
		rt.status[addr] = memberStatus{up: true}
	}
	for addr, cl := range rt.clients {
		rt.pushTable(addr, cl)
	}
	every := opt.ProbeEvery
	if every == 0 {
		every = defaultProbeEvery
	}
	if every > 0 {
		rt.probeWG.Add(1)
		go rt.probeLoop(every)
	}
	return rt, nil
}

// dialReplica opens the router's client to one replica, honoring the
// configured connection count. Every replica dial goes through here so
// redials get the same sharding as the initial fleet.
func (rt *Router) dialReplica(addr string) (*client.Client, error) {
	return client.DialOpts(addr, client.DialOptions{Conns: rt.opt.ConnsPerReplica})
}

// Close stops the prober and closes every replica connection; later
// decides and controls fail with the closed connection's error.
// Idempotent.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() {
		close(rt.done)
		rt.probeWG.Wait()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		for _, cl := range rt.clients {
			if err := cl.Close(); err != nil && rt.closeErr == nil {
				rt.closeErr = err
			}
		}
		// Closing the clients failed any in-flight relays; wait for their
		// completion goroutines to finish writing their batches.
		rt.relayWG.Wait()
	})
	return rt.closeErr
}

// Replicas returns the member addresses, sorted.
func (rt *Router) Replicas() []string { return rt.ring.Members() }

// Owner returns the replica address that owns the session id.
func (rt *Router) Owner(id string) (string, bool) { return rt.ring.Owner(id) }

// client returns the current connection to one member.
func (rt *Router) client(addr string) *client.Client {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.clients[addr]
}

// setStatus records the prober's verdict on one member.
func (rt *Router) setStatus(addr string, up bool, errMsg string) {
	rt.stmu.Lock()
	rt.status[addr] = memberStatus{up: up, err: errMsg}
	rt.stmu.Unlock()
}

// downMembers returns the members the prober currently reports
// unreachable, sorted.
func (rt *Router) downMembers() []string {
	rt.stmu.Lock()
	defer rt.stmu.Unlock()
	var down []string
	for addr, st := range rt.status {
		if !st.up {
			down = append(down, addr)
		}
	}
	sort.Strings(down)
	return down
}

// membersInfo answers an OpMembers fetch (and GET /v1/members): the
// current table plus the prober's down list, so a direct client routes
// keys owned by a dead member via the router instead of dialing it.
func (rt *Router) membersInfo() wire.Members {
	return wire.Members{
		Epoch:   routerEpoch,
		VNodes:  rt.ring.VirtualNodes(),
		Members: rt.ring.Members(),
		Down:    rt.downMembers(),
	}
}

// pushTable installs the membership table on one replica via OpMembers.
// Failures are logged, not fatal: the prober re-pushes as soon as the
// replica answers health checks again — a replica without the table
// still serves its own sessions, it just cannot forward for others
// until the push lands.
func (rt *Router) pushTable(addr string, cl *client.Client) {
	body := jsonBody(wire.Members{Epoch: routerEpoch, VNodes: rt.ring.VirtualNodes(), Members: rt.ring.Members(), Self: addr})
	if status, resp, err := cl.Control(wire.OpMembers, "", body); err != nil || status != http.StatusOK {
		rt.log.Warn("pushing membership failed",
			"replica", addr, "status", status, "err", err, "body", string(resp))
	}
}

// probeLoop health-checks the fleet every interval until Close.
func (rt *Router) probeLoop(every time.Duration) {
	defer rt.probeWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-t.C:
			rt.probeOnce()
		}
	}
}

// probeOnce probes every member. A member whose client answers health
// is up (and gets a table re-push if its installed epoch is not the
// router's — a restarted replica comes back with epoch 0). A member
// whose client is poisoned or gone is redialed: on success the fresh
// connection replaces the dead one, so a replica restart heals without
// a router restart; on failure the member is marked down for /healthz
// and the members table.
func (rt *Router) probeOnce() {
	for _, addr := range rt.ring.Members() {
		cl := rt.client(addr)
		if st, body, err := cl.Health(); err == nil && st == http.StatusOK {
			var h healthJSON
			_ = json.Unmarshal(body, &h)
			if h.MemberEpoch != routerEpoch {
				rt.pushTable(addr, cl)
			}
			rt.setStatus(addr, true, "")
			continue
		}
		// Poisoned or unresponsive: redial.
		nc, err := rt.dialReplica(addr)
		if err != nil {
			rt.setStatus(addr, false, err.Error())
			continue
		}
		if st, _, err := nc.Health(); err != nil || st != http.StatusOK {
			nc.Close()
			rt.setStatus(addr, false, fmt.Sprintf("health status %d err %v", st, err))
			continue
		}
		rt.pushTable(addr, nc)
		rt.mu.Lock()
		rt.clients[addr] = nc
		rt.mu.Unlock()
		cl.Close()
		rt.setStatus(addr, true, "")
		rt.log.Info("reconnected to replica", "replica", addr)
	}
}

// routeGroup is one replica's slice of a relayed batch: the original
// batch positions, the observe payloads aliased straight out of the
// requests, and the decision slots the relay fills.
type routeGroup struct {
	addr     string
	idx      []int
	payloads [][]byte
	out      []client.Decision
	rel      *client.Relay
	start    time.Time
}

// routeScratch holds one batch's grouping state. Pooled: the routed hot
// path reuses the map and every group's slices across batches instead
// of allocating them per call.
type routeScratch struct {
	groups map[string]*routeGroup
	used   []*routeGroup // groups in dispatch order
	free   []*routeGroup
}

var routeScratchPool = sync.Pool{New: func() any {
	return &routeScratch{groups: make(map[string]*routeGroup)}
}}

// group returns the (possibly recycled) group for one replica.
func (s *routeScratch) group(addr string) *routeGroup {
	g := s.groups[addr]
	if g == nil {
		if n := len(s.free); n > 0 {
			g, s.free = s.free[n-1], s.free[:n-1]
		} else {
			g = &routeGroup{}
		}
		g.addr = addr
		s.groups[addr] = g
		s.used = append(s.used, g)
	}
	return g
}

// release clears payload and error references (they alias pooled
// request buffers and per-batch strings) and returns the scratch.
func (s *routeScratch) release() {
	for _, g := range s.used {
		delete(s.groups, g.addr)
		g.idx = g.idx[:0]
		clear(g.payloads)
		g.payloads = g.payloads[:0]
		for i := range g.out {
			g.out[i] = client.Decision{}
		}
		g.out = g.out[:0]
		g.rel = nil
		s.free = append(s.free, g)
	}
	s.used = s.used[:0]
	routeScratchPool.Put(s)
}

// startBatch implements connBackend: it relays the batch's already-
// encoded observe payloads to their owning replicas — no decode, no
// re-encode, only the request id is rewritten per frame — and returns a
// channel that closes when every entry is answered. Grouping and
// dispatch run on the caller's goroutine (so per-replica frame order
// follows arrival order); waiting moves to a completion goroutine, so
// the connection keeps further batches in flight. JSON decides wait on
// the channel.
func (rt *Router) startBatch(batch []*observeReq) <-chan struct{} {
	done := make(chan struct{})
	s := routeScratchPool.Get().(*routeScratch)

	// Head-sample the batch. A sampled batch tags every relayed frame
	// with the trace id (the replicas then record their "decide" spans
	// under it); frames that arrived already traced keep their upstream
	// id — propagated ids relay untouched even when this tracer is off.
	tr := rt.tracer
	tid, _ := tr.Sample()
	timed := tr.Enabled()
	var batchStart time.Time
	if timed {
		batchStart = time.Now()
	}
	var propagated trace.TraceID

	relayed := 0
	for i, r := range batch {
		if r.ctrl {
			continue // callers split controls out; defensive
		}
		owner, _ := rt.ring.OwnerBytes(r.m.Session) // never empty: NewRouter needs a replica
		payload := r.raw
		if len(payload) == 0 {
			// JSON-path requests carry no wire payload; encode one. The id
			// is rewritten at relay time, so zero is fine here.
			var err error
			r.raw, err = wire.AppendObserveBytes(r.raw[:0], 0, r.m.Flags, r.m.Session, &r.m.Obs)
			if err != nil {
				r.oppIdx, r.freqMHz = -1, 0
				r.errMsg = err.Error()
				continue
			}
			payload = r.raw[wire.HeaderSize:]
		}
		if r.m.Flags&wire.FlagTraced != 0 {
			if propagated == 0 {
				if id, ok := wire.ObserveTraceID(payload); ok {
					propagated = trace.TraceID(id)
				}
			}
		} else if tid != 0 {
			// The tagged slice (possibly reallocated) lives in the group's
			// payload list until the batch is answered; r.raw can stay on
			// the shorter untagged bytes.
			if tagged, terr := wire.AppendObserveTrace(payload, uint64(tid)); terr == nil {
				payload = tagged
			}
		}
		g := s.group(owner)
		g.idx = append(g.idx, i)
		// The payload bytes stay owned by their pooled request until the
		// whole batch is answered (the transport pools a request only
		// after done closes), so the group aliases them.
		g.payloads = append(g.payloads, payload)
		relayed++
	}
	spanTrace := tid
	if spanTrace == 0 {
		spanTrace = propagated
	}

	rt.mu.RLock()
	for _, g := range s.used {
		n := len(g.idx)
		if cap(g.out) < n {
			g.out = make([]client.Decision, n)
		} else {
			g.out = g.out[:n]
		}
		g.start = time.Now()
		rel, err := rt.clients[g.addr].StartRelay(g.payloads, g.out)
		if err != nil {
			for _, i := range g.idx {
				batch[i].oppIdx, batch[i].freqMHz = -1, 0
				batch[i].errMsg = fmt.Sprintf("replica %s: %v", g.addr, err)
			}
			relayed -= n
			continue
		}
		g.rel = rel
	}
	rt.inflight.Add(int64(relayed))
	rt.relayWG.Add(1)
	rt.mu.RUnlock()

	go func() {
		for _, g := range s.used {
			if g.rel == nil {
				continue
			}
			err := g.rel.Wait()
			rt.recordHop(g.addr, time.Since(g.start))
			if timed && spanTrace != 0 {
				errMsg := ""
				if err != nil {
					errMsg = err.Error()
				}
				tr.Record(trace.Span{
					Trace:   spanTrace,
					Stage:   "relay",
					Origin:  "router",
					Replica: g.addr,
					Start:   g.start.UnixNano(),
					DurUS:   float64(time.Since(g.start)) / float64(time.Microsecond),
					Batch:   len(g.idx),
					Err:     errMsg,
				})
			}
			for k, i := range g.idx {
				r := batch[i]
				if err != nil {
					r.oppIdx, r.freqMHz = -1, 0
					r.errMsg = fmt.Sprintf("replica %s: %v", g.addr, err)
					continue
				}
				r.oppIdx = int32(g.out[k].OPPIdx)
				r.freqMHz = int32(g.out[k].FreqMHz)
				r.errMsg = g.out[k].Err
				if g.out[k].Err == "" {
					rt.decisions.Add(1)
				}
			}
		}
		rt.inflight.Add(int64(-relayed))
		s.release()
		rt.relayWG.Done()
		if timed {
			dur := time.Since(batchStart)
			durUS := float64(dur) / float64(time.Microsecond)
			if tr.Slow(dur) {
				id := spanTrace
				if id == 0 {
					id = tr.ID()
				}
				tr.Record(trace.Span{
					Trace:  id,
					Stage:  "route",
					Origin: "router",
					Start:  batchStart.UnixNano(),
					DurUS:  durUS,
					Batch:  len(batch),
					Slow:   true,
				})
				rt.log.Warn("slow routed batch",
					"trace", id.String(),
					"dur_us", durUS,
					"batch", len(batch))
			} else if spanTrace != 0 {
				tr.Record(trace.Span{
					Trace:  spanTrace,
					Stage:  "route",
					Origin: "router",
					Start:  batchStart.UnixNano(),
					DurUS:  durUS,
					Batch:  len(batch),
				})
			}
		}
		close(done)
	}()
	return done
}

// recordHop folds one replica round trip into that replica's hop
// histogram (microseconds, same unit as session decide latency).
func (rt *Router) recordHop(addr string, d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	rt.hopmu.Lock()
	if rt.hops == nil {
		rt.hops = make(map[string]*stats.Histogram)
	}
	h := rt.hops[addr]
	if h == nil {
		h = stats.NewHistogram(0, routeHopHiUS, routeHopBins)
		rt.hops[addr] = h
	}
	h.Add(us)
	rt.hopmu.Unlock()
}

// hopSnapshot renders the per-replica hop histograms for /v1/metrics.
func (rt *Router) hopSnapshot() map[string]latencyJSON {
	rt.hopmu.Lock()
	defer rt.hopmu.Unlock()
	if len(rt.hops) == 0 {
		return nil
	}
	out := make(map[string]latencyJSON, len(rt.hops))
	for addr, h := range rt.hops {
		out[addr] = latencyFromHistogram(h)
	}
	return out
}

// control implements connBackend: session-scoped ops forward to the
// owning replica; fleet-scoped ops aggregate across every replica.
func (rt *Router) control(op byte, session string, body []byte) (uint16, []byte) {
	switch op {
	case wire.OpMetrics, wire.OpList:
		q, err := parseControlQuery(body)
		if err != nil {
			return http.StatusBadRequest, errorBody(err)
		}
		if op == wire.OpList {
			return rt.aggregateList(q)
		}
		// A partial answer is still 200 (scrapers keep their time series
		// through a replica outage) with the gap named in
		// degraded_replicas.
		merged, err := rt.metrics(q.Top)
		if err != nil {
			return http.StatusBadGateway, errorBody(err)
		}
		return http.StatusOK, jsonBody(merged)
	case wire.OpHealth:
		return rt.aggregateHealth()
	case wire.OpTrace:
		return rt.aggregateTrace(body)
	case wire.OpMembers:
		if len(body) > 0 {
			return http.StatusBadRequest, errorBody(errf("the router is the membership authority; pushes go router→replica"))
		}
		return http.StatusOK, jsonBody(rt.membersInfo())
	case wire.OpCreate:
		id := session
		if id == "" {
			// The id decides placement, so the router must know it before
			// forwarding; parse it out of the body and assign one if the
			// caller left naming to the server.
			var req struct {
				ID string `json:"id"`
			}
			if len(body) > 0 {
				if err := json.Unmarshal(body, &req); err != nil {
					return http.StatusBadRequest, errorBody(err)
				}
			}
			id = req.ID
		}
		if id == "" {
			// The router is stateless and replicas outlive it, so
			// auto-assigned ids must not repeat across router restarts
			// (a counter would collide with sessions the fleet still
			// holds) or across two routers fronting the same fleet.
			var rnd [6]byte
			if _, err := crand.Read(rnd[:]); err != nil {
				return http.StatusInternalServerError, errorBody(err)
			}
			id = fmt.Sprintf("r%d-%x", rt.nextID.Add(1), rnd)
		}
		if !validSessionID(id) {
			return http.StatusBadRequest, errorBody(errBadSessionID(id))
		}
		return rt.forward(wire.OpCreate, id, body)
	default:
		return rt.forward(op, session, body)
	}
}

// forward routes one session-scoped control op to the session's owner.
// The op travels with the session id in the frame's session field, so
// the replica applies it to the right session whatever the body says.
func (rt *Router) forward(op byte, session string, body []byte) (uint16, []byte) {
	owner, _ := rt.ring.Owner(session)
	status, resp, err := rt.client(owner).Control(op, session, body)
	if err != nil {
		return http.StatusBadGateway, errorBody(fmt.Errorf("replica %s: %w", owner, err))
	}
	return uint16(status), resp
}

// fleetCall runs one fleet-scoped control op on every replica in
// parallel and decodes each reply into a T, in member order. A transport
// error, a non-200 status or an undecodable body fails only that
// replica's slot — each caller decides whether a partial fleet answer
// degrades (name the gap, aggregate the rest) or fails outright.
func fleetCall[T any](rt *Router, op byte, body []byte) (members []string, out []T, errs []error) {
	members = rt.ring.Members()
	out = make([]T, len(members))
	errs = make([]error, len(members))
	var wg sync.WaitGroup
	for i, addr := range members {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			status, resp, err := cl.Control(op, "", body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("control op 0x%02x returned %d", op, status)
			} else if err == nil {
				err = json.Unmarshal(resp, &out[i])
			}
			if err != nil {
				errs[i] = fmt.Errorf("replica %s: %w", members[i], err)
			}
		}(i, rt.client(addr))
	}
	wg.Wait()
	return members, out, errs
}

// failures names the replicas a fleetCall could not use, and returns an
// error (the first failure) only when none answered at all.
func failures(members []string, errs []error) (failed []string, none error) {
	for i, err := range errs {
		if err != nil {
			failed = append(failed, members[i])
			none = cmp.Or(none, err)
		}
	}
	if len(failed) < len(members) {
		return failed, nil
	}
	return failed, cmp.Or(none, errf("router has no replicas"))
}

// metrics implements connBackend: it merges the reachable replicas'
// /v1/metrics documents: counters and session counts sum, latency bins
// add, each replica's top entries merge down to the fleet's top (ids are
// globally unique — the ring sends each to one replica), and unreachable
// members are named in DegradedReplicas rather than failing the whole
// aggregate. The error is non-nil only when zero replicas answered.
func (rt *Router) metrics(top int) (metricsJSON, error) {
	members, ms, errs := fleetCall[metricsJSON](rt, wire.OpMetrics, jsonBody(controlQuery{Top: top}))
	failed, err := failures(members, errs)
	if err != nil {
		return metricsJSON{}, err
	}
	merged := metricsJSON{DegradedReplicas: failed}
	for i, m := range ms {
		if errs[i] != nil {
			continue
		}
		merged.Decisions += m.Decisions
		merged.Sessions += m.Sessions
		merged.Top = append(merged.Top, m.Top...)
		merged.CheckpointWrites += m.CheckpointWrites
		merged.CheckpointSkipped += m.CheckpointSkipped
		merged.QTablePoolPages += m.QTablePoolPages
		merged.QTablePoolSharedBytes += m.QTablePoolSharedBytes
		merged.QTableCowFaults += m.QTableCowFaults
		merged.DecideLatency = mergeLatencyJSON(merged.DecideLatency, m.DecideLatency)
	}
	sortBusiest(merged.Top)
	merged.Top = merged.Top[:min(len(merged.Top), top)]
	merged.RouteHops = rt.hopSnapshot()
	inflight := rt.inflight.Load()
	merged.RouteInflight = &inflight
	rs := stats.ReadRuntime()
	merged.Runtime = &rs // the router's own process, not the fleet's
	return merged, nil
}

// aggregateList answers one page of the fleet's session list. Every
// replica serves its own first page after the cursor; the fleet's page
// is the first limit ids of their union (each replica's share of it is a
// prefix of that replica's page), so the merge is exact. A partial
// answer is 206 — callers that must see every session (a migration
// script) treat that as failure; observability callers keep the
// majority view. Zero answers is 502.
func (rt *Router) aggregateList(q controlQuery) (uint16, []byte) {
	n := q.Limit
	members, pages, errs := fleetCall[sessionPage](rt, wire.OpList, jsonBody(controlQuery{After: q.After, Limit: n}))
	failed, err := failures(members, errs)
	if err != nil {
		return http.StatusBadGateway, errorBody(err)
	}
	page := sessionPage{Sessions: []sessionInfo{}}
	more := false
	for _, p := range pages {
		page.Sessions = append(page.Sessions, p.Sessions...)
		more = more || p.Next != ""
	}
	slices.SortFunc(page.Sessions, func(a, b sessionInfo) int { return strings.Compare(a.ID, b.ID) })
	if len(page.Sessions) > n {
		page.Sessions, more = page.Sessions[:n], true
	}
	if more {
		page.Next = page.Sessions[len(page.Sessions)-1].ID
	}
	if len(failed) > 0 {
		return http.StatusPartialContent, jsonBody(page)
	}
	return http.StatusOK, jsonBody(page)
}

// NewRouterTCP wraps a Router with a binary-transport listener — the
// routed twin of NewTCP. Clients speak the identical protocol; the
// router forwards each frame to the replica that owns its session, so
// the reader keeps observe payloads raw for the relay.
func NewRouterTCP(rt *Router, lis net.Listener) *TCPServer {
	return newTCPListener(rt, lis, rt.log, true)
}

// memberHealthJSON is one member's slot in the fleet health document.
type memberHealthJSON struct {
	Up        bool   `json:"up"`
	Sessions  int    `json:"sessions"`
	Decisions int64  `json:"decisions"`
	Error     string `json:"error,omitempty"`
}

// aggregateHealth sums fleet liveness: one O(1) health op per replica —
// a probe never enumerates sessions. Both control planes serve it (GET
// /healthz and binary OpHealth return the same body). One dead replica
// degrades the answer instead of failing it: status "degraded", the
// failed members named, per-member detail under "members", counters
// aggregated over the reachable majority. Only zero reachable replicas
// is non-200 (503 "down").
func (rt *Router) aggregateHealth() (uint16, []byte) {
	members, hs, errs := fleetCall[healthJSON](rt, wire.OpHealth, nil)
	var sessions int
	var decisions int64
	detail := make(map[string]memberHealthJSON, len(members))
	for i, h := range hs {
		if errs[i] != nil {
			detail[members[i]] = memberHealthJSON{Up: false, Error: errs[i].Error()}
			continue
		}
		sessions += h.Sessions
		decisions += h.Decisions
		detail[members[i]] = memberHealthJSON{Up: true, Sessions: h.Sessions, Decisions: h.Decisions}
	}
	degraded, _ := failures(members, errs) // members are sorted
	up := len(members) - len(degraded)
	status, code := "ok", http.StatusOK
	switch {
	case up == 0:
		status, code = "down", http.StatusServiceUnavailable
	case len(degraded) > 0:
		status = "degraded"
	}
	body := map[string]any{
		"status":           status,
		"sessions":         sessions,
		"replicas":         len(members),
		"replicas_up":      up,
		"epoch":            routerEpoch,
		"decisions":        decisions, // fleet total, direct traffic included
		"routed_decisions": rt.decisions.Load(),
		"members":          detail,
	}
	if len(degraded) > 0 {
		body["degraded"] = degraded
	}
	return uint16(code), jsonBody(body)
}
