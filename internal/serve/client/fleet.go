package client

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"qgov/internal/governor"
	"qgov/internal/ring"
	"qgov/internal/wire"
)

// Fleet is a ring-aware direct client: it fetches the membership table
// from the router once, builds the same consistent-hash ring the router
// uses for placement, and sends each decide batch straight to the
// replica that owns the session — the router stays out of the data
// path entirely. Against N replicas the direct path scales with N
// instead of being capped by the router's single decode/re-encode
// loop.
//
// The router remains the control plane: session create/delete/info,
// metrics, listing, and membership all go through it, so a Fleet never
// disagrees with the router about where a session *should* live — only,
// transiently, about which members are reachable. Two mechanisms bound
// that window:
//
//   - a replica that does not hold a session forwards the decide to the
//     ring owner itself (one hop, never a loop),
//   - any owner that cannot be reached directly falls back to the
//     router for that group, which also triggers a refetch.
//
// Methods are safe for concurrent use.
type Fleet struct {
	routerAddr string

	// refreshMu serialises table refetches so a burst of stale replies
	// causes one refresh, not one per batch.
	refreshMu sync.Mutex

	// mu guards the installed view: the router client, the table's ring,
	// and the per-replica connections.
	mu     sync.RWMutex
	router *Client
	ring   *ring.Ring
	conns  map[string]*Client
}

// DialFleet connects to a router's binary listener, fetches its
// membership table, and dials every live replica. Against a flat
// server (no fleet) the table is empty and every call transparently
// uses the single connection — a Fleet degrades to a plain Client.
func DialFleet(routerAddr string) (*Fleet, error) {
	rc, err := Dial(routerAddr)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		routerAddr: routerAddr,
		router:     rc,
		conns:      map[string]*Client{},
	}
	if err := f.Refresh(); err != nil {
		f.Close()
		return nil, fmt.Errorf("client: fetching membership from %s: %w", routerAddr, err)
	}
	return f, nil
}

// Refresh refetches the membership table from the router and
// reconciles the per-replica connections: new members are dialed,
// removed members' connections closed, and connections with a sticky
// transport error are redialed. Members the router reports down are
// not dialed — their sessions route through the router, which degrades
// them the same way. Concurrent calls coalesce.
func (f *Fleet) Refresh() error {
	f.refreshMu.Lock()
	defer f.refreshMu.Unlock()

	msg, err := f.fetchMembers()
	if err != nil {
		return err
	}

	f.mu.RLock()
	cur := make(map[string]*Client, len(f.conns))
	for a, c := range f.conns {
		cur[a] = c
	}
	f.mu.RUnlock()

	down := make(map[string]bool, len(msg.Down))
	for _, a := range msg.Down {
		down[a] = true
	}

	next := make(map[string]*Client, len(msg.Members))
	for _, a := range msg.Members {
		if c := cur[a]; c != nil && c.Err() == nil {
			next[a] = c
			continue
		}
		if down[a] {
			continue // the router will answer for it (degraded), or has reconnected by the next refresh
		}
		c, err := Dial(a)
		if err != nil {
			continue // same: fall back to the router for this member's keys
		}
		next[a] = c
	}
	var rg *ring.Ring
	if len(msg.Members) > 0 {
		rg = ring.New(msg.VNodes, msg.Members...)
	}

	f.mu.Lock()
	old := f.conns
	f.conns = next
	f.ring = rg
	f.mu.Unlock()
	for a, c := range old {
		if next[a] != c {
			c.Close()
		}
	}
	return nil
}

// fetchMembers asks the router for its table, redialing the router
// connection once if it has gone stale.
func (f *Fleet) fetchMembers() (wire.Members, error) {
	f.mu.RLock()
	rc := f.router
	f.mu.RUnlock()
	st, body, err := rc.Members()
	if err != nil {
		nc, derr := Dial(f.routerAddr)
		if derr != nil {
			return wire.Members{}, fmt.Errorf("members fetch failed (%v) and redial failed: %w", err, derr)
		}
		f.mu.Lock()
		old := f.router
		f.router = nc
		f.mu.Unlock()
		old.Close()
		if st, body, err = nc.Members(); err != nil {
			return wire.Members{}, err
		}
	}
	if st != http.StatusOK {
		return wire.Members{}, fmt.Errorf("members fetch: status %d: %s", st, body)
	}
	var msg wire.Members
	if err := json.Unmarshal(body, &msg); err != nil {
		return wire.Members{}, fmt.Errorf("members fetch: bad body: %w", err)
	}
	return msg, nil
}

// Replicas returns the members of the installed table the Fleet
// currently holds a direct connection to, in no particular order.
func (f *Fleet) Replicas() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.conns))
	for a := range f.conns {
		out = append(out, a)
	}
	return out
}

// Decide serves one observation for one session through the ring owner.
func (f *Fleet) Decide(session string, obs governor.Observation) (Decision, error) {
	var out [1]Decision
	if err := f.DecideBatch([]string{session}, []governor.Observation{obs}, out[:]); err != nil {
		return Decision{}, err
	}
	return out[0], nil
}

// DecideBatch groups the batch by ring owner and sends each group
// directly to its replica, all groups in parallel; out[i] answers
// sessions[i]. Sessions whose owner has no live direct connection go
// through the router, and a direct send that fails at the transport
// level retries that group through the router before giving up — so a
// dead replica costs the batch its direct-path speed, not its answers.
// A returned error is transport-level (router and owner both
// unreachable); per-request failures land in out[i].Err.
func (f *Fleet) DecideBatch(sessions []string, obs []governor.Observation, out []Decision) error {
	if len(sessions) != len(obs) || len(sessions) != len(out) {
		return fmt.Errorf("client: mismatched batch slices (%d sessions, %d observations, %d outputs)",
			len(sessions), len(obs), len(out))
	}
	if len(sessions) == 0 {
		return nil
	}

	f.mu.RLock()
	rg := f.ring
	router := f.router
	type group struct {
		cl  *Client
		idx []int
	}
	var groups map[string]*group
	var viaRouter []int
	for i, id := range sessions {
		var cl *Client
		var owner string
		if rg != nil {
			if o, ok := rg.Owner(id); ok {
				owner, cl = o, f.conns[o]
			}
		}
		if cl == nil {
			viaRouter = append(viaRouter, i)
			continue
		}
		if groups == nil {
			groups = make(map[string]*group)
		}
		g := groups[owner]
		if g == nil {
			g = &group{cl: cl}
			groups[owner] = g
		}
		g.idx = append(g.idx, i)
	}
	f.mu.RUnlock()

	// Fast path: the whole batch lands on one replica.
	if len(viaRouter) == 0 && len(groups) == 1 {
		for _, g := range groups {
			err := g.cl.DecideBatch(sessions, obs, out)
			if err != nil {
				err = router.DecideBatch(sessions, obs, out)
				f.Refresh() //nolint:errcheck // best effort, as below
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fellBack := false
	send := func(cl *Client, idx []int, direct bool) {
		defer wg.Done()
		ss := make([]string, len(idx))
		oo := make([]governor.Observation, len(idx))
		res := make([]Decision, len(idx))
		for k, i := range idx {
			ss[k], oo[k] = sessions[i], obs[i]
		}
		err := cl.DecideBatch(ss, oo, res)
		if err != nil && direct {
			errMu.Lock()
			fellBack = true
			errMu.Unlock()
			err = router.DecideBatch(ss, oo, res)
		}
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		for k, i := range idx {
			out[i] = res[k]
		}
	}
	for _, g := range groups {
		wg.Add(1)
		go send(g.cl, g.idx, true)
	}
	if len(viaRouter) > 0 {
		wg.Add(1)
		go send(router, viaRouter, false)
	}
	wg.Wait()

	// A fallback is how a Fleet notices a member that went down (or came
	// back): refetch the table. Refresh errors are dropped — the batch
	// already has its answers, and the next fallback retries.
	if fellBack {
		f.Refresh() //nolint:errcheck // best effort
	}
	return firstErr
}

// Control runs one control-plane operation through the router — the
// membership authority owns session placement, so creates and deletes
// must route through it.
func (f *Fleet) Control(op byte, session string, body []byte) (int, []byte, error) {
	f.mu.RLock()
	rc := f.router
	f.mu.RUnlock()
	return rc.Control(op, session, body)
}

// CreateSession creates a session via the router (which places it on
// the ring owner).
func (f *Fleet) CreateSession(body []byte) (int, []byte, error) {
	return f.Control(wire.OpCreate, "", body)
}

// CheckpointSession freezes the session's learnt state via the router.
func (f *Fleet) CheckpointSession(id string) (int, []byte, error) {
	return f.Control(wire.OpCheckpoint, id, nil)
}

// DeleteSession drops the session via the router.
func (f *Fleet) DeleteSession(id string) (int, []byte, error) {
	return f.Control(wire.OpDelete, id, nil)
}

// SessionInfo returns the session's info JSON via the router.
func (f *Fleet) SessionInfo(id string) (int, []byte, error) {
	return f.Control(wire.OpInfo, id, nil)
}

// Metrics returns the fleet-merged /v1/metrics JSON via the router, with
// the fleet's top busiest learning sessions when top > 0.
func (f *Fleet) Metrics(top int) (int, []byte, error) {
	return f.Control(wire.OpMetrics, "", metricsQuery(top))
}

// Close tears down the router connection and every replica connection.
func (f *Fleet) Close() error {
	f.mu.Lock()
	rc := f.router
	conns := f.conns
	f.conns = map[string]*Client{}
	f.mu.Unlock()
	var err error
	if rc != nil {
		err = rc.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}
