package serve

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"qgov/internal/governor"
	"qgov/internal/ring"
	"qgov/internal/serve/client"
	"qgov/internal/trace"
	"qgov/internal/wire"
)

// This file is the replica's side of fleet membership. The router pushes
// the membership table (a wire.Members document) to every replica via
// OpMembers when it starts and whenever a replica restarts; the replica
// installs it, stamps its epoch into every decide reply, and — when a
// direct client sends a decide for a session the ring places elsewhere
// — forwards the request to the owner instead of failing it. Forwarded
// frames carry wire.FlagForwarded and are never relayed a second time,
// so a disagreement between two replicas' tables costs one extra hop,
// not a loop. A flat server outside any fleet has no table: epoch 0, no
// forwarding.

// fleetView is one installed membership table with the ring built from
// it. Immutable once installed; installs swap the whole view.
type fleetView struct {
	table wire.Members
	ring  *ring.Ring
}

// memberEpoch implements connBackend: the installed membership epoch,
// stamped into every decide reply (0 outside any fleet).
func (s *Server) memberEpoch() uint32 { return s.fleetEpoch.Load() }

// originName is the span origin this replica stamps on its traces: its
// own fleet address, or "" for a flat server outside any fleet (a
// router aggregating spans fills empty origins with the member address
// it fetched them from).
func (s *Server) originName() string {
	s.fleetMu.RLock()
	defer s.fleetMu.RUnlock()
	if s.fleet == nil {
		return ""
	}
	return s.fleet.table.Self
}

// membersTable answers an OpMembers fetch: the installed table, or a
// zero-epoch empty table outside any fleet.
func (s *Server) membersTable() wire.Members {
	s.fleetMu.RLock()
	defer s.fleetMu.RUnlock()
	if s.fleet == nil {
		return wire.Members{}
	}
	return s.fleet.table
}

// installMembers answers an OpMembers push: it installs the table if it
// is newer than the current one, or has the same epoch and a different
// ring — every router pushes one fixed epoch, so that is a router
// restarted over a new -replicas list while the replicas stayed up.
// Older epochs and identical re-pushes are ignored; the reply body
// always carries the table now in force.
func (s *Server) installMembers(msg wire.Members) (uint16, []byte) {
	if msg.Epoch == 0 || len(msg.Members) == 0 {
		return http.StatusBadRequest, errorBody(errf("members push needs a non-zero epoch and at least one member"))
	}
	self := false
	for _, m := range msg.Members {
		if m == msg.Self {
			self = true
			break
		}
	}
	if !self {
		return http.StatusBadRequest, errorBody(errf("self %q is not in the member list", msg.Self))
	}

	s.fleetMu.Lock()
	// Members arrive sorted (ring.Members), so equal rings compare equal.
	if cur := s.fleet; cur != nil && (msg.Epoch < cur.table.Epoch || msg.Epoch == cur.table.Epoch &&
		msg.VNodes == cur.table.VNodes && msg.Self == cur.table.Self && slices.Equal(msg.Members, cur.table.Members)) {
		s.fleetMu.Unlock()
		return http.StatusOK, jsonBody(cur.table)
	}
	s.fleet = &fleetView{table: msg, ring: ring.New(msg.VNodes, msg.Members...)}
	s.fleetEpoch.Store(msg.Epoch)
	s.fleetMu.Unlock()
	s.log.Info("installed membership", "epoch", msg.Epoch, "members", len(msg.Members), "self", msg.Self)
	return http.StatusOK, jsonBody(msg)
}

// peer returns the multiplexed connection to another replica, dialing on
// first use. Peers are only ever other fleet members — the forwarding
// targets.
func (s *Server) peer(addr string) (*client.Client, error) {
	s.fleetMu.RLock()
	cl := s.peers[addr]
	s.fleetMu.RUnlock()
	if cl != nil {
		return cl, nil
	}
	nc, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	s.fleetMu.Lock()
	if s.peers == nil { // server closed under us
		s.fleetMu.Unlock()
		nc.Close()
		return nil, errf("server is closed")
	}
	if cur := s.peers[addr]; cur != nil {
		s.fleetMu.Unlock()
		nc.Close()
		return cur, nil
	}
	s.peers[addr] = nc
	s.fleetMu.Unlock()
	return nc, nil
}

// dropPeer forgets a peer connection after a transport error, so the
// next forward redials instead of reusing a poisoned client.
func (s *Server) dropPeer(addr string, cl *client.Client) {
	s.fleetMu.Lock()
	if s.peers[addr] == cl {
		delete(s.peers, addr)
	}
	s.fleetMu.Unlock()
	cl.Close()
}

// closePeers tears down every peer connection; part of Server.Close.
func (s *Server) closePeers() {
	s.fleetMu.Lock()
	peers := s.peers
	s.peers = nil
	s.fleetMu.Unlock()
	for _, cl := range peers {
		cl.Close()
	}
}

// forwardMisrouted is the second pass of the binary decide path: any
// request whose session this replica does not hold, and whose ring owner
// is another live member, is relayed there and answered with the owner's
// decision. Only first-hop requests are relayed (FlagForwarded bounds
// the relay depth at one), and without a fleet table the pass is a
// no-op — the "unknown session" error from the first pass stands.
func (s *Server) forwardMisrouted(batch []*observeReq, batchTrace trace.TraceID) {
	s.fleetMu.RLock()
	fl := s.fleet
	s.fleetMu.RUnlock()
	if fl == nil {
		return
	}
	var groups map[string][]*observeReq
	for _, r := range batch {
		if !r.unknown || r.m.Flags&wire.FlagForwarded != 0 {
			continue
		}
		owner, ok := fl.ring.OwnerBytes(r.m.Session)
		if !ok || owner == fl.table.Self {
			continue
		}
		if groups == nil {
			groups = make(map[string][]*observeReq)
		}
		groups[owner] = append(groups[owner], r)
	}
	if groups == nil {
		return
	}
	var wg sync.WaitGroup
	for owner, reqs := range groups {
		wg.Add(1)
		go func(owner string, reqs []*observeReq) {
			defer wg.Done()
			s.forwardTo(owner, reqs, batchTrace)
		}(owner, reqs)
	}
	wg.Wait()
}

// forwardTo relays one owner's worth of misrouted requests and copies
// the owner's decisions back into them. A transport failure fails only
// these requests (per-entry errors, like any batch) and drops the peer
// connection so the next batch redials. Traced requests (their own wire
// id, or the batch's sampled id) carry the id across the hop and record
// a "forward" span on this — the misrouting — side.
func (s *Server) forwardTo(owner string, reqs []*observeReq, batchTrace trace.TraceID) {
	fail := func(err error) {
		for _, r := range reqs {
			r.oppIdx, r.freqMHz = -1, 0
			r.errMsg = fmt.Sprintf("forwarding to owner %s: %v", owner, err)
		}
	}
	var traces []uint64
	for i, r := range reqs {
		tid := r.m.TraceID
		if tid == 0 {
			tid = uint64(batchTrace)
		}
		if tid != 0 && traces == nil {
			traces = make([]uint64, len(reqs))
		}
		if traces != nil {
			traces[i] = tid
		}
	}
	if traces != nil {
		start := time.Now()
		origin := s.originName()
		defer func() {
			durUS := float64(time.Since(start)) / float64(time.Microsecond)
			for i, r := range reqs {
				if traces[i] == 0 {
					continue
				}
				s.tracer.Record(trace.Span{
					Trace:   trace.TraceID(traces[i]),
					Stage:   "forward",
					Origin:  origin,
					Session: string(r.m.Session),
					Replica: owner,
					Start:   start.UnixNano(),
					DurUS:   durUS,
					Err:     r.errMsg,
				})
			}
		}()
	}
	cl, err := s.peer(owner)
	if err != nil {
		fail(err)
		return
	}
	sessions := make([][]byte, len(reqs))
	obs := make([]governor.Observation, len(reqs))
	out := make([]client.Decision, len(reqs))
	for i, r := range reqs {
		sessions[i] = r.m.Session
		obs[i] = r.m.Obs
	}
	if err := cl.ForwardBatch(sessions, obs, out, traces); err != nil {
		s.dropPeer(owner, cl)
		fail(err)
		return
	}
	for i, r := range reqs {
		r.oppIdx = int32(out[i].OPPIdx)
		r.freqMHz = int32(out[i].FreqMHz)
		r.errMsg = out[i].Err
	}
	s.forwarded.Add(int64(len(reqs)))
}
