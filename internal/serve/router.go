package serve

import (
	crand "crypto/rand"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
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
// same ring; metrics and list aggregate across the fleet, including a
// per-replica relay hop histogram and in-flight gauge.
//
// The router serves the same two fronts as a replica — Handler (the
// HTTP API, built by the same code as the flat server's) and
// NewRouterTCP (the binary transport). Clients cannot tell a router
// from a flat server — the router equivalence test holds routed
// decision streams byte-identical to a single server over the same
// session set.
//
// RemoveReplica drains a member: its sessions hand off to their new
// owners by checkpoint/restore (freeze on the leaving replica, re-create
// warm from that state on the ring's new placement), so learnt policies
// survive resharding. AddReplica is the inverse: the grown ring steals
// ≈1/N of the keys for the newcomer and only those sessions move.
//
// Every ring change bumps the membership epoch and pushes the new table
// (a wire.Members document) to every replica, so replicas can forward
// decides that a stale direct client (client.Fleet) sent to the wrong
// member. A background prober keeps membership honest at runtime: it
// health-checks every member, redials dropped connections (a replica
// restart no longer poisons its client forever), re-pushes the table to
// replicas that restarted, and feeds per-member up/down status into
// /healthz and the members table.
type Router struct {
	opt    RouterOptions
	log    *slog.Logger
	tracer *trace.Tracer

	// mu guards membership: the ring and the client set. Decide and
	// control traffic holds it for read; Add/RemoveReplica hold it for
	// write across the whole hand-off, so no decision can land on a
	// session mid-move.
	mu      sync.RWMutex
	ring    *ring.Ring
	clients map[string]*client.Client

	// epoch is the membership generation, bumped on every ring change
	// and stamped into every decide reply the fleet sends.
	epoch atomic.Uint32

	// stmu guards status: the prober's per-member up/down view. Separate
	// from mu so health reporting never contends with the decide path.
	stmu   sync.Mutex
	status map[string]memberStatus

	nextID    atomic.Int64
	decisions atomic.Int64

	// relayWG counts in-flight relayed decide batches. Add runs under
	// mu.RLock, Wait under mu.Lock — mutually exclusive, so a Wait never
	// races a fresh Add. Ring changes Wait on it so that no decision
	// lands on a session mid-move.
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
	rt.epoch.Store(1)
	rt.pushMembershipLocked()
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
// redials and joins get the same sharding as the initial fleet.
func (rt *Router) dialReplica(addr string) (*client.Client, error) {
	return client.DialOpts(addr, client.DialOptions{Conns: rt.opt.ConnsPerReplica})
}

// memberEpoch implements connBackend: routed decide replies carry the
// fleet epoch, exactly as replies straight off a replica do.
func (rt *Router) memberEpoch() uint32 { return rt.epoch.Load() }

// Epoch returns the current membership epoch (bumped on every ring
// change).
func (rt *Router) Epoch() uint32 { return rt.epoch.Load() }

// Tracer exposes the router's span ring, for embedding harnesses and
// the /v1/trace handlers. Never nil.
func (rt *Router) Tracer() *trace.Tracer { return rt.tracer }

// Close stops the prober and drops every replica connection. Idempotent.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.probeWG.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var firstErr error
	for addr, cl := range rt.clients {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(rt.clients, addr)
		rt.ring.Remove(addr)
	}
	// Closing the clients failed any in-flight relays; wait for their
	// completion goroutines to finish writing their batches.
	rt.relayWG.Wait()
	return firstErr
}

// Replicas returns the current member addresses, sorted.
func (rt *Router) Replicas() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Members()
}

// Owner returns the replica address that owns the session id.
func (rt *Router) Owner(id string) (string, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Owner(id)
}

// setStatus records the prober's verdict on one member.
func (rt *Router) setStatus(addr string, up bool, errMsg string) {
	rt.stmu.Lock()
	rt.status[addr] = memberStatus{up: up, err: errMsg}
	rt.stmu.Unlock()
}

func (rt *Router) clearStatus(addr string) {
	rt.stmu.Lock()
	delete(rt.status, addr)
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
	rt.mu.RLock()
	m := wire.Members{
		Epoch:   rt.epoch.Load(),
		VNodes:  rt.ring.VirtualNodes(),
		Members: rt.ring.Members(),
	}
	rt.mu.RUnlock()
	m.Down = rt.downMembers()
	return m
}

// pushMembershipLocked pushes the current table to every connected
// member. Callers hold the write lock (or own the router exclusively,
// as NewRouter does). Push failures are logged, not fatal: the prober
// re-pushes as soon as the replica answers health checks again — a
// replica with a stale table still serves its own sessions correctly,
// it just cannot forward for others until the re-push lands.
func (rt *Router) pushMembershipLocked() {
	epoch := rt.epoch.Load()
	members := rt.ring.Members()
	vnodes := rt.ring.VirtualNodes()
	for _, addr := range members {
		if cl := rt.clients[addr]; cl != nil {
			rt.pushTable(addr, cl, epoch, vnodes, members)
		}
	}
}

// pushTable installs the membership table on one replica via OpMembers.
func (rt *Router) pushTable(addr string, cl *client.Client, epoch uint32, vnodes int, members []string) {
	body := jsonBody(wire.Members{Epoch: epoch, VNodes: vnodes, Members: members, Self: addr})
	if status, resp, err := cl.Control(wire.OpMembers, "", body); err != nil || status != http.StatusOK {
		rt.log.Warn("pushing membership failed",
			"replica", addr, "epoch", epoch, "status", status, "err", err, "body", string(resp))
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
// is up (and gets a table re-push if its installed epoch is stale — a
// restarted replica comes back with epoch 0). A member whose client is
// poisoned or gone is redialed: on success the fresh connection replaces
// the dead one, so a replica restart heals without a router restart; on
// failure the member is marked down for /healthz and the members table.
func (rt *Router) probeOnce() {
	rt.mu.RLock()
	members := rt.ring.Members()
	vnodes := rt.ring.VirtualNodes()
	clients := make([]*client.Client, len(members))
	for i, m := range members {
		clients[i] = rt.clients[m]
	}
	rt.mu.RUnlock()
	epoch := rt.epoch.Load()

	for i, addr := range members {
		if cl := clients[i]; cl != nil {
			if st, body, err := cl.Health(); err == nil && st == http.StatusOK {
				var h healthJSON
				_ = json.Unmarshal(body, &h)
				if h.MemberEpoch != epoch {
					rt.pushTable(addr, cl, epoch, vnodes, members)
				}
				rt.setStatus(addr, true, "")
				continue
			}
			// Poisoned or unresponsive: fall through to a redial.
		}
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
		rt.pushTable(addr, nc, epoch, vnodes, members)
		rt.mu.Lock()
		if !rt.ring.Has(addr) { // removed while we were redialing
			rt.mu.Unlock()
			nc.Close()
			continue
		}
		old := rt.clients[addr]
		rt.clients[addr] = nc
		rt.mu.Unlock()
		if old != nil {
			old.Close()
		}
		rt.setStatus(addr, true, "")
		rt.log.Info("reconnected to replica", "replica", addr)
	}
}

// decideBatch implements connBackend: it relays the batch through
// startBatch and blocks until every entry is answered. The JSON decide
// path comes through here; the binary transport calls startBatch
// directly, so the connection's reader keeps pulling frames while a
// batch is in flight.
func (rt *Router) decideBatch(batch []*observeReq) { <-rt.startBatch(batch) }

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

// startBatch implements batchStarter: it relays the batch's already-
// encoded observe payloads to their owning replicas — no decode, no
// re-encode, only the request id is rewritten per frame — and returns a
// channel that closes when every entry is answered. Grouping and
// dispatch run on the caller's goroutine under the read lock (so the
// ring cannot change under the batch, and per-replica frame order
// follows arrival order); waiting moves to a completion goroutine, so
// the transport can keep further batches in flight.
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

	rt.mu.RLock()
	relayed := 0
	for i, r := range batch {
		if r.ctrl {
			continue // callers split controls out; defensive
		}
		owner, ok := rt.ring.OwnerBytes(r.m.Session)
		if !ok {
			r.oppIdx, r.freqMHz = -1, 0
			r.errMsg = "router has no replicas"
			continue
		}
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

// HopLatency merges the per-replica relay-hop histograms into one
// router-wide histogram (microseconds), or nil before the first relayed
// batch. The merge is a copy; the caller owns the result.
func (rt *Router) HopLatency() *stats.Histogram {
	rt.hopmu.Lock()
	defer rt.hopmu.Unlock()
	var merged *stats.Histogram
	for _, h := range rt.hops {
		if merged == nil {
			merged = stats.NewHistogram(0, routeHopHiUS, routeHopBins)
		}
		if err := merged.Merge(h); err != nil {
			// Same fixed shape by construction; a mismatch is a bug.
			panic("serve: merging hop histograms: " + err.Error())
		}
	}
	return merged
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
	case wire.OpMetrics:
		// A partial answer is still 200 (scrapers keep their time series
		// through a replica outage) with the gap named in
		// degraded_replicas.
		merged, err := rt.metrics()
		if err != nil {
			return http.StatusBadGateway, errorBody(err)
		}
		return http.StatusOK, jsonBody(merged)
	case wire.OpList:
		return rt.aggregateList()
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
// The read lock is held across the round trip: a control op must not
// land on a replica after RemoveReplica has enumerated its sessions —
// the drain would miss it and strand the session off-ring.
func (rt *Router) forward(op byte, session string, body []byte) (uint16, []byte) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	owner, ok := rt.ring.Owner(session)
	cl := rt.clients[owner]
	if !ok || cl == nil {
		return http.StatusServiceUnavailable, errorBody(errf("router has no replicas"))
	}
	status, resp, err := cl.Control(op, session, body)
	if err != nil {
		return http.StatusBadGateway, errorBody(fmt.Errorf("replica %s: %w", owner, err))
	}
	return uint16(status), resp
}

// eachReplica runs f per replica in parallel, collecting per-replica
// results in member order. A failing replica fails only its own slot —
// each caller decides whether a partial fleet answer degrades (name the
// gap, aggregate the rest) or fails outright (zero replicas answered).
// The read lock is held across the fan-out so the member set cannot
// shrink under it.
func (rt *Router) eachReplica(f func(addr string, cl *client.Client) ([]byte, error)) (bodies [][]byte, members []string, errs []error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	members = rt.ring.Members()
	clients := make([]*client.Client, len(members))
	for i, m := range members {
		clients[i] = rt.clients[m]
	}

	bodies = make([][]byte, len(members))
	errs = make([]error, len(members))
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if clients[i] == nil {
				errs[i] = errf("no connection")
				return
			}
			bodies[i], errs[i] = f(members[i], clients[i])
		}(i)
	}
	wg.Wait()
	return bodies, members, errs
}

// metrics implements connBackend: it merges the reachable replicas'
// /v1/metrics documents:
// session entries union (ids are globally unique — the ring sends each
// to one replica), decision counters sum, and unreachable members are
// named in DegradedReplicas rather than failing the whole aggregate.
// The error is non-nil only when zero replicas answered.
func (rt *Router) metrics() (metricsJSON, error) {
	bodies, members, errs := rt.eachReplica(func(addr string, cl *client.Client) ([]byte, error) {
		status, body, err := cl.Metrics()
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("metrics returned %d", status)
		}
		return body, nil
	})
	merged := metricsJSON{Sessions: make(map[string]sessionMetricsJSON)}
	var firstErr error
	answered := 0
	for i := range members {
		err := errs[i]
		if err == nil {
			var m metricsJSON
			if derr := json.Unmarshal(bodies[i], &m); derr != nil {
				err = fmt.Errorf("decoding replica metrics: %w", derr)
			} else {
				answered++
				merged.Decisions += m.Decisions
				merged.CheckpointWrites += m.CheckpointWrites
				merged.CheckpointSkipped += m.CheckpointSkipped
				merged.QTablePoolPages += m.QTablePoolPages
				merged.QTablePoolSharedBytes += m.QTablePoolSharedBytes
				merged.QTableCowFaults += m.QTableCowFaults
				merged.DecideLatency = mergeLatencyJSON(merged.DecideLatency, m.DecideLatency)
				for id, sm := range m.Sessions {
					merged.Sessions[id] = sm
				}
				continue
			}
		}
		merged.DegradedReplicas = append(merged.DegradedReplicas, members[i])
		if firstErr == nil {
			firstErr = fmt.Errorf("replica %s: %w", members[i], err)
		}
	}
	if answered == 0 {
		if firstErr == nil {
			firstErr = errf("router has no replicas")
		}
		return metricsJSON{}, firstErr
	}
	merged.RouteHops = rt.hopSnapshot()
	inflight := rt.inflight.Load()
	merged.RouteInflight = &inflight
	rs := stats.ReadRuntime()
	merged.Runtime = &rs // the router's own process, not the fleet's
	return merged, nil
}

// aggregateList concatenates the reachable replicas' session lists,
// sorted by id. A partial answer is 206 — callers that must see every
// session (a drain) treat that as failure; observability callers keep
// the majority view. Zero answers is 502.
func (rt *Router) aggregateList() (uint16, []byte) {
	bodies, members, errs := rt.eachReplica(func(addr string, cl *client.Client) ([]byte, error) {
		status, body, err := cl.ListSessions()
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("list returned %d", status)
		}
		return body, nil
	})
	var all []sessionInfo
	var firstErr error
	answered := 0
	for i := range members {
		err := errs[i]
		if err == nil {
			var infos []sessionInfo
			if derr := json.Unmarshal(bodies[i], &infos); derr != nil {
				err = fmt.Errorf("decoding replica list: %w", derr)
			} else {
				answered++
				all = append(all, infos...)
				continue
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("replica %s: %w", members[i], err)
		}
	}
	if answered == 0 {
		if firstErr == nil {
			firstErr = errf("router has no replicas")
		}
		return http.StatusBadGateway, errorBody(firstErr)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if answered < len(members) {
		return http.StatusPartialContent, jsonBody(all)
	}
	return http.StatusOK, jsonBody(all)
}

// RemoveReplica drains one member: every session it owns is frozen
// there, re-created warm from that state on the replica the shrunk ring
// now places it on, and deleted from the leaver. The write lock is held
// throughout, so no decide observes a session mid-move; callers pause
// their decision loops at an epoch boundary around this call (decides
// issued during the move simply block, they do not fail).
//
// The drain is abort-on-failure: if any session cannot move, the
// sessions already moved are moved back, the ring is restored, and the
// replica stays connected — the router never ends up routing a session
// away from the only replica that holds it. It returns the moved
// session ids.
func (rt *Router) RemoveReplica(addr string) ([]string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Quiesce the pipelined relay: in-flight batches dispatched under the
	// read lock must land before any session moves, or a decision could
	// reach a replica after the drain enumerated its sessions.
	rt.relayWG.Wait()

	leaving := rt.clients[addr]
	if leaving == nil {
		return nil, fmt.Errorf("serve: %s is not a replica", addr)
	}
	if len(rt.clients) == 1 {
		return nil, fmt.Errorf("serve: cannot remove the last replica")
	}

	status, body, err := leaving.ListSessions()
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("serve: listing sessions on %s: status %d err %v", addr, status, err)
	}
	var infos []sessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, fmt.Errorf("serve: decoding session list from %s: %w", addr, err)
	}

	rt.ring.Remove(addr)
	var moved []string
	for _, info := range infos {
		owner, ok := rt.ring.Owner(info.ID)
		if !ok {
			// Unreachable with ≥ 1 survivor; guard anyway.
			rt.ring.Add(addr)
			return nil, fmt.Errorf("serve: ring is empty")
		}
		if err := rt.moveSession(leaving, addr, rt.clients[owner], owner, info); err != nil {
			rt.log.Warn("moving session failed; aborting drain",
				"session", info.ID, "replica", addr, "err", err)
			rt.undoDrain(leaving, addr, infos, moved)
			rt.ring.Add(addr)
			return nil, fmt.Errorf("serve: draining %s: moving %s: %w", addr, info.ID, err)
		}
		moved = append(moved, info.ID)
	}

	delete(rt.clients, addr)
	rt.clearStatus(addr)
	closeErr := leaving.Close()
	epoch := rt.epoch.Add(1)
	rt.pushMembershipLocked()
	rt.log.Info("drained replica", "replica", addr, "sessions_moved", len(moved), "epoch", epoch)
	return moved, closeErr
}

// AddReplica joins a new member to a live fleet — the inverse of
// RemoveReplica. The grown ring steals ≈1/N of the keys for the
// newcomer; exactly the sessions whose owner changed move there by the
// same checkpoint/restore hand-off a drain uses, under the write lock,
// so no decide observes a session mid-move. The join is
// abort-on-failure: a failed move puts already-moved sessions back,
// restores the ring, and leaves the fleet exactly as it was. On success
// the membership epoch bumps and the new table is pushed fleet-wide; it
// returns the moved session ids.
func (rt *Router) AddReplica(addr string) ([]string, error) {
	cl, err := rt.dialReplica(addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dialing replica %s: %w", addr, err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Same quiesce as RemoveReplica: no relayed decision may straddle the
	// ring change.
	rt.relayWG.Wait()
	if rt.ring.Has(addr) {
		cl.Close()
		return nil, fmt.Errorf("serve: %s is already a replica", addr)
	}

	// Enumerate every member's sessions before growing the ring; the
	// grown ring then tells us which of them the newcomer owns.
	type source struct {
		addr string
		cl   *client.Client
		info sessionInfo
	}
	var candidates []source
	for _, m := range rt.ring.Members() {
		mc := rt.clients[m]
		if mc == nil {
			cl.Close()
			return nil, fmt.Errorf("serve: no connection to %s", m)
		}
		status, body, err := mc.ListSessions()
		if err != nil || status != http.StatusOK {
			cl.Close()
			return nil, fmt.Errorf("serve: listing sessions on %s: status %d err %v", m, status, err)
		}
		var infos []sessionInfo
		if err := json.Unmarshal(body, &infos); err != nil {
			cl.Close()
			return nil, fmt.Errorf("serve: decoding session list from %s: %w", m, err)
		}
		for _, info := range infos {
			candidates = append(candidates, source{addr: m, cl: mc, info: info})
		}
	}

	rt.ring.Add(addr)
	var moved []source
	for _, c := range candidates {
		if owner, _ := rt.ring.Owner(c.info.ID); owner != addr {
			continue
		}
		if err := rt.moveSession(c.cl, c.addr, cl, addr, c.info); err != nil {
			rt.log.Warn("moving session failed; aborting join",
				"session", c.info.ID, "replica", addr, "err", err)
			for _, m := range moved {
				if uerr := rt.moveSession(cl, addr, m.cl, m.addr, m.info); uerr != nil {
					rt.log.Warn("moving session back failed",
						"session", m.info.ID, "replica", m.addr, "err", uerr)
				}
			}
			rt.ring.Remove(addr)
			cl.Close()
			return nil, fmt.Errorf("serve: joining %s: moving %s: %w", addr, c.info.ID, err)
		}
		moved = append(moved, c)
	}

	rt.clients[addr] = cl
	rt.setStatus(addr, true, "")
	epoch := rt.epoch.Add(1)
	rt.pushMembershipLocked()
	rt.log.Info("added replica", "replica", addr, "sessions_moved", len(moved), "epoch", epoch)
	ids := make([]string, len(moved))
	for i, m := range moved {
		ids[i] = m.info.ID
	}
	return ids, nil
}

// undoDrain moves already-moved sessions back onto the replica whose
// drain is being aborted. The ring is still shrunk here, so each moved
// session's current holder is its ring owner. Undo failures are logged
// and skipped — at that point the fleet is degraded either way, and
// leaving the session where it is beats deleting it.
func (rt *Router) undoDrain(leaving *client.Client, addr string, infos []sessionInfo, moved []string) {
	byID := make(map[string]sessionInfo, len(infos))
	for _, info := range infos {
		byID[info.ID] = info
	}
	for _, id := range moved {
		owner, ok := rt.ring.Owner(id)
		if !ok {
			continue
		}
		if err := rt.moveSession(rt.clients[owner], owner, leaving, addr, byID[id]); err != nil {
			rt.log.Warn("moving session back failed", "session", id, "replica", addr, "err", err)
		}
	}
}

// moveSession hands one session between replicas by checkpoint/restore:
// freeze on the source, re-create warm on the destination, delete from
// the source, then persist on the destination. The delete runs after
// the create so the session always exists somewhere; the final
// checkpoint runs after the delete because deleting the source session
// garbage-collects its checkpoint — on shared checkpoint storage that
// would otherwise leave the moved session with no durable state until
// the destination's next periodic sweep. Callers hold the write lock.
func (rt *Router) moveSession(src *client.Client, srcAddr string, dst *client.Client, dstAddr string, info sessionInfo) error {
	if dst == nil {
		return fmt.Errorf("no client for %s", dstAddr)
	}

	// Freeze the learnt state. Governors that keep none (400) move cold;
	// a governor that has not decided yet (409) moves cold too.
	var state json.RawMessage
	status, body, err := src.CheckpointSession(info.ID)
	switch {
	case err != nil:
		return fmt.Errorf("freezing on %s: %w", srcAddr, err)
	case status == http.StatusOK:
		var ck checkpointResponse
		if err := json.Unmarshal(body, &ck); err != nil {
			return fmt.Errorf("decoding checkpoint: %w", err)
		}
		state = ck.State
	case status == http.StatusBadRequest || status == http.StatusConflict:
		// stateless governor / nothing learnt yet
	default:
		return fmt.Errorf("freezing on %s: status %d: %s", srcAddr, status, body)
	}

	// The moved session keeps its identity: workload and cap re-apply,
	// and the manifest it originally warm-started from rides along as
	// provenance (the state itself travels inline). A ThermalCap's
	// ceiling is transient protective state and is not carried — the
	// destination starts at the full ladder and re-throttles within an
	// epoch per over-budget step, exactly as after a restart.
	create := createRequest{
		ID:           info.ID,
		Governor:     info.Governor,
		Platform:     info.Platform,
		Workload:     info.Workload,
		PeriodS:      info.PeriodS,
		Seed:         info.Seed,
		ThermalCapMW: info.ThermalCapMW,
		WarmStart:    info.WarmManifest,
		State:        state,
	}
	status, body, err = dst.CreateSession(jsonBody(create))
	if err != nil {
		return fmt.Errorf("re-creating on %s: %w", dstAddr, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("re-creating on %s: status %d: %s", dstAddr, status, body)
	}

	if status, body, err = src.DeleteSession(info.ID); err != nil || status != http.StatusNoContent {
		// The move failed with the session live on BOTH replicas. Remove
		// the destination copy so the source (which the aborting caller
		// will restore to the ring) stays the single authority — an
		// orphaned dst copy would keep checkpointing stale state over the
		// live session's on shared storage.
		if st, b, derr := dst.DeleteSession(info.ID); derr != nil || st != http.StatusNoContent {
			rt.log.Warn("removing duplicate after failed move failed",
				"session", info.ID, "replica", dstAddr, "status", st, "err", derr, "body", string(b))
		} else if state != nil {
			// That delete garbage-collected the checkpoint; on shared
			// storage it was the survivor's too. Re-freeze on the source
			// (best-effort — its periodic sweep retries).
			if st, _, cerr := src.CheckpointSession(info.ID); cerr != nil || st != http.StatusOK {
				rt.log.Warn("re-freezing after aborted move failed",
					"session", info.ID, "replica", srcAddr, "status", st, "err", cerr)
			}
		}
		return fmt.Errorf("deleting from %s: status %d err %v (%s)", srcAddr, status, err, body)
	}

	// Re-persist on the destination; best-effort (the periodic sweep
	// retries), but without it a crash before the next sweep would lose
	// the learnt state the move just carried.
	if state != nil {
		if status, body, err := dst.CheckpointSession(info.ID); err != nil || status != http.StatusOK {
			rt.log.Warn("persisting moved session failed",
				"session", info.ID, "replica", dstAddr, "status", status, "err", err, "body", string(body))
		}
	}
	return nil
}

// NewRouterTCP wraps a Router with a binary-transport listener — the
// routed twin of NewTCP. Clients speak the identical protocol; the
// router forwards each frame to the replica that owns its session.
func NewRouterTCP(rt *Router, lis net.Listener) *TCPServer {
	return newTCPListener(rt, lis, rt.log)
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
	bodies, members, errs := rt.eachReplica(func(addr string, cl *client.Client) ([]byte, error) {
		status, body, err := cl.Health()
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("health returned %d", status)
		}
		return body, nil
	})
	var sessions int
	var decisions int64
	var degraded []string
	detail := make(map[string]memberHealthJSON, len(members))
	up := 0
	for i := range members {
		err := errs[i]
		if err == nil {
			var h healthJSON
			if derr := json.Unmarshal(bodies[i], &h); derr != nil {
				err = fmt.Errorf("decoding health: %w", derr)
			} else {
				up++
				sessions += h.Sessions
				decisions += h.Decisions
				detail[members[i]] = memberHealthJSON{Up: true, Sessions: h.Sessions, Decisions: h.Decisions}
				continue
			}
		}
		degraded = append(degraded, members[i])
		detail[members[i]] = memberHealthJSON{Up: false, Error: err.Error()}
	}
	sort.Strings(degraded)
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
		"epoch":            rt.epoch.Load(),
		"decisions":        decisions, // fleet total, direct traffic included
		"routed_decisions": rt.decisions.Load(),
		"members":          detail,
	}
	if len(degraded) > 0 {
		body["degraded"] = degraded
	}
	return uint16(code), jsonBody(body)
}
