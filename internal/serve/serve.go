// Package serve hosts governors as an online decision service — the
// deployment shape the paper's RTM has on real hardware, where the
// learning manager lives inside the OS and is fed one epoch's
// PMU/power/timing observation at a time. A serve.Server holds many
// independent sessions (one per controlled cluster, each with its own
// governor instance and learning state) behind an HTTP JSON API:
//
//	POST   /v1/sessions                 create a session (optionally
//	                                    calibrated and/or warm-started)
//	POST   /v1/decide                   batched: one observation per
//	                                    session, one OPP decision back
//	GET    /v1/sessions                 one page of session infos,
//	                                    by id (?after=&limit=)
//	GET    /v1/sessions/{id}            session info + learning stats
//	POST   /v1/sessions/{id}/checkpoint freeze the learnt state now
//	DELETE /v1/sessions/{id}            drop the session and its
//	                                    checkpoint
//	GET    /v1/metrics                  fixed-size fleet view (JSON,
//	                                    or ?format=prometheus; ?top=K
//	                                    adds the K busiest learners)
//	GET    /v1/trace                    sampled decide-path spans
//	GET    /healthz                     liveness + counters
//
// A Router serves the same routes from the same mux (http.go): every
// HTTP route runs the code the binary transport's frames run.
//
// Sessions are independent and internally locked: decisions for
// different sessions run concurrently, decisions for one session
// serialise in arrival order — within one batch too — so each
// session's governor sees a strict observation sequence and remains
// exactly as deterministic as under sim.Run (the serve tests drive a
// sim.Session through this API and require byte-identical physical
// aggregates). The session map itself lives in
// a sessionstore.Sharded store — mutex-striped shards, so two decides
// for different sessions rarely touch the same lock even on the lookup.
//
// Learning state is frozen through governor.Checkpointer into a
// sessionstore.CheckpointStore when one is configured: periodically, on
// demand, and one final time on Close. Sessions warm-start from their
// checkpoint on re-creation — a restarted server resumes its learnt
// policies, and a replica fleet pointing at shared checkpoint storage
// can hand sessions between members the same way. Deleting a session
// deletes its checkpoint (no more orphaned state files), and New sweeps
// the store for unrestorable state left by crashed or ancient writers.
//
// The Server also speaks the binary wire protocol (TCPServer): the
// observe→decide hot loop and, since the control frames landed, the
// whole session lifecycle, so a router can drive a replica entirely
// over one binary connection.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"qgov/internal/core"
	"qgov/internal/governor"
	"qgov/internal/platform"
	"qgov/internal/qpage"
	"qgov/internal/registry"
	"qgov/internal/scenario"
	"qgov/internal/sessionstore"
	"qgov/internal/stats"
	"qgov/internal/trace"
	"qgov/internal/workload"
)

// Decision-latency histogram geometry: log-width bins over [100 ns, 1 s],
// ten bins per decade. Governor decisions are sub-microsecond to sub-10 µs
// when the server is quiet, but under session churn the tail stretches
// through scheduler delay, stripe contention and checkpoint I/O into the
// milliseconds — a fixed 50 µs range piled all of that into the overflow
// bucket and the exported quantiles silently lied. Log bins keep 26%
// relative resolution everywhere from the fast path to a 1 s stall, so
// p99-under-churn is a real number.
const (
	latHistLoUS = 0.1
	latHistHiUS = 1e6
	latHistBins = 70
)

// newLatHist builds one empty histogram in the decision-latency geometry.
func newLatHist() *stats.Histogram {
	return stats.NewLogHistogram(latHistLoUS, latHistHiUS, latHistBins)
}

// latStripes is the server-wide aggregate latency histogram's stripe
// count. Every decide lands one sample in its session's assigned stripe
// (round-robin at create), so the aggregate costs one uncontended mutex
// per decision instead of one global hot lock — and the Prometheus
// scrape renders 70 buckets total, not 70 × sessions.
const latStripes = 64

// latStripe is one shard of the aggregate decision-latency histogram.
// The histogram is built lazily: an idle server carries 64 nil pointers,
// not 64 histograms of zero bins.
type latStripe struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// add records one decision latency (µs) into the stripe.
func (st *latStripe) add(us float64) {
	st.mu.Lock()
	if st.h == nil {
		st.h = newLatHist()
	}
	st.h.Add(us)
	st.mu.Unlock()
}

// Options configures a Server. The zero value serves on the paper's
// defaults: platform "a15", 25 fps decision epochs, no checkpointing.
type Options struct {
	// DefaultPlatform names the scenario platform variant used when a
	// session create omits one. Empty selects "a15".
	DefaultPlatform string
	// DefaultPeriodS is the decision-epoch deadline used when a session
	// create omits one. Zero selects 0.040 s (25 fps).
	DefaultPeriodS float64
	// Checkpoints, when non-nil, is where session learning state is
	// frozen and looked up again when a session of the same id is
	// re-created. Replicas sharing one store can hand sessions off.
	Checkpoints sessionstore.CheckpointStore
	// CheckpointDir is the convenience form of Checkpoints: a non-empty
	// directory builds a sessionstore.Dir when Checkpoints is nil. New
	// panics if the directory cannot be created.
	CheckpointDir string
	// CheckpointEvery is the period of the background checkpoint sweep;
	// <= 0 disables the sweep (explicit /checkpoint calls and the final
	// sweep on Close still run when a checkpoint store is configured).
	CheckpointEvery time.Duration
	// Registry, when non-nil, resolves warm_start references on session
	// create: "auto" picks the nearest published manifest for the
	// session's governor/workload/platform fingerprint (exact match
	// first, then same-platform/different-workload — the cross-workload
	// transfer fallback), and a manifest id selects exactly that
	// checkpoint. Replicas sharing one registry warm-start from the
	// fleet's pooled training.
	Registry *registry.Registry
	// CompactionFilter, when non-nil, restricts the startup compaction
	// sweep to checkpoint ids it returns true for. A routed replica sets
	// it to its own consistent-hash shards so a starting member reads
	// only the fraction of a fleet-sized shared store it owns instead of
	// every file in it.
	CompactionFilter func(id string) bool
	// StoreShards overrides the session store's stripe count; <= 0 uses
	// the sessionstore default.
	StoreShards int
	// Log receives operational and slow-request log records; nil
	// discards them.
	Log *slog.Logger
	// Tracer samples decide batches into the server's span ring (see
	// internal/trace). Nil builds a default tracer with sampling off —
	// propagated trace ids from a router still record, and /v1/trace
	// serves the ring, but the server originates no traces of its own.
	Tracer *trace.Tracer
}

// Server is the concurrent session store behind the HTTP API.
type Server struct {
	opt    Options
	ckpt   sessionstore.CheckpointStore
	log    *slog.Logger
	tracer *trace.Tracer

	sessions sessionstore.Store[*session]
	// qpool is the process-wide content-interned Q-table page pool:
	// every learning governor on this server builds its value tables
	// through it, so identical starting state (cold tables, shared
	// warm-start manifests) is stored once and diverges copy-on-write.
	qpool  *qpage.Pool
	closed atomic.Bool

	// plats caches, per platform name, the pieces of a cluster a session
	// actually retains — the OPP table, its normalised-frequency axis and
	// the core count. All three are immutable, so every session on one
	// platform shares one copy instead of building (and mostly
	// discarding) a full Cluster per create: the table and axis were two
	// of the larger identical-by-construction lines in the per-session
	// live profile, and the platform registry is small and static, so
	// the cache is bounded.
	plats sync.Map // platform name -> *platInfo

	nextID    atomic.Int64
	decisions atomic.Int64

	// latAgg is the server-wide decision-latency histogram, striped so
	// the per-decide sample never contends on one lock. Sessions are
	// assigned a stripe round-robin at create via stripeCtr.
	latAgg    [latStripes]latStripe
	stripeCtr atomic.Uint64

	// Checkpoint write-amplification accounting: how many session states
	// the sweeps actually wrote vs skipped because nothing had decided
	// since the last write. Under a mostly-idle million-session fleet the
	// skip count is the I/O the dirty-flag fix saves each interval.
	ckptWrites  atomic.Int64
	ckptSkipped atomic.Int64

	done      chan struct{}
	loopWG    sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// session is one controlled cluster's governor with its serving state.
// mu serialises governor access: a governor mutates learning state in
// Decide, and its determinism contract is a strict observation sequence.
type session struct {
	mu sync.Mutex

	id       string
	govName  string
	platName string
	workload string // metadata: what the session controls (warm-start matching)
	periodS  float64
	seed     int64
	capMW    float64 // thermal_cap_mw; 0 when uncapped
	warmFrom string  // manifest id the session warm-started from, if any

	// gov is what decides: the raw governor, or its ThermalCap wrapper
	// when the session is capped. learner is always the unwrapped
	// governor — checkpointing, warm-starting and learning-stats
	// assertions go through it, so a capped learner keeps its full
	// checkpoint/metrics surface.
	gov     governor.Governor
	learner governor.Governor
	// plat is the session's share of the per-platform immutables (OPP
	// table, normalised-frequency axis, core count) — read-only, owned
	// by the server's platform cache.
	plat   *platInfo
	epochs int64
	// ckptEpochs is the value of epochs when the session's state was last
	// written to the checkpoint store — the dirty flag, expressed as a
	// generation so a decide racing a checkpoint can never mark clean
	// state that was not captured. Guarded by mu.
	ckptEpochs int64
	// stripe is the server-wide aggregate histogram shard this session's
	// decision latencies land in — assigned at create, immutable after.
	// A session keeps no latency state of its own.
	stripe *latStripe
	// dead marks a deleted session whose pooled learning state has been
	// released. Guarded by mu: an in-flight decide that still holds the
	// pointer must observe it and error instead of faulting released
	// pages back out of the pool.
	dead bool
}

// New builds a Server, sweeps its checkpoint store of unrestorable
// state, and starts the periodic checkpoint loop when configured.
// Callers must Close it.
func New(opt Options) *Server {
	if opt.DefaultPlatform == "" {
		opt.DefaultPlatform = "a15"
	}
	if opt.DefaultPeriodS <= 0 {
		opt.DefaultPeriodS = 0.040
	}
	ckpt := opt.Checkpoints
	if ckpt == nil && opt.CheckpointDir != "" {
		d, err := sessionstore.NewDir(opt.CheckpointDir)
		if err != nil {
			panic(fmt.Sprintf("serve: %v", err))
		}
		ckpt = d
	}
	store := sessionstore.NewSharded[*session](opt.StoreShards)
	lg := opt.Log
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	tr := opt.Tracer
	if tr == nil {
		tr = trace.New(trace.Options{})
	}
	s := &Server{
		opt:      opt,
		ckpt:     ckpt,
		log:      lg,
		tracer:   tr,
		sessions: store,
		qpool:    qpage.NewPool(),
		done:     make(chan struct{}),
	}
	if ckpt != nil {
		if n, err := s.CompactCheckpoints(); err != nil {
			s.log.Warn("checkpoint compaction failed", "err", err)
		} else if n > 0 {
			s.log.Info("compacted unrestorable checkpoints", "count", n)
		}
	}
	if ckpt != nil && opt.CheckpointEvery > 0 {
		s.loopWG.Add(1)
		go s.checkpointLoop()
	}
	return s
}

// QPoolStats reports the Q-table page pool: distinct shared pages and
// their bytes right now, and cumulative copy-on-write faults — the
// memory-floor observability /v1/metrics exports.
func (s *Server) QPoolStats() (pages, bytes, faults int64) { return s.qpool.Stats() }

// decideLatency merges the aggregate latency stripes into one fresh
// histogram (µs, the shared log geometry) — the O(1)-in-sessions figure
// /v1/metrics and the Prometheus exposition report. Returns nil when no
// decision has been recorded yet.
func (s *Server) decideLatency() *stats.Histogram {
	var merged *stats.Histogram
	for i := range s.latAgg {
		st := &s.latAgg[i]
		st.mu.Lock()
		if st.h != nil {
			if merged == nil {
				merged = newLatHist()
			}
			if err := merged.Merge(st.h); err != nil {
				st.mu.Unlock()
				panic(fmt.Sprintf("serve: latency stripe geometry drifted: %v", err))
			}
		}
		st.mu.Unlock()
	}
	return merged
}

// Close stops the checkpoint sweep and, when a checkpoint store is
// configured, freezes every session one final time — the graceful-
// shutdown half of warm restarts. It is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.loopWG.Wait()
		s.closed.Store(true)
		if s.ckpt != nil {
			n, e := s.CheckpointAll()
			s.log.Info("final checkpoint", "sessions", n)
			s.closeErr = e
		}
	})
	return s.closeErr
}

func (s *Server) checkpointLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(s.opt.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if n, err := s.CheckpointAll(); err != nil {
				s.log.Warn("checkpoint sweep failed", "err", err)
			} else if n > 0 {
				s.log.Info("checkpoint sweep", "sessions", n)
			}
		}
	}
}

// SessionCount reports the live session count (what /healthz serves).
func (s *Server) SessionCount() int { return s.sessions.Len() }

// snapshotSessions copies the live session set out of the store (Range
// holds shard locks; the work happens on the copy).
func (s *Server) snapshotSessions() []*session {
	all := make([]*session, 0, s.sessions.Len())
	s.sessions.Range(func(_ string, sess *session) bool {
		all = append(all, sess)
		return true
	})
	return all
}

// CheckpointAll freezes every checkpointable session into the checkpoint
// store and returns how many were written. The first error is returned
// after attempting the rest. Every session is encoded into one buffer,
// reset between sessions, so a sweep allocates its encode space once
// (the store's Save does not retain it).
func (s *Server) CheckpointAll() (int, error) {
	var n int
	var firstErr error
	var buf bytes.Buffer
	for _, sess := range s.snapshotSessions() {
		buf.Reset()
		wrote, err := s.checkpointSession(sess, &buf)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if wrote {
			n++
		}
	}
	return n, firstErr
}

// checkpointSession freezes one session's state to the store, encoding
// it into buf; sessions whose governor keeps no learnt state (or that
// have not decided yet) are skipped without error. Sessions whose state is already on disk —
// no decide since the last write — are skipped too and counted: under a
// mostly-idle fleet the periodic sweep would otherwise re-serialise and
// re-write every session every interval, and that write amplification
// was the dominant I/O at session scale. The epochs counter read under
// the same lock as SaveState is the dirty generation, so a decide
// landing after the capture re-dirties the session rather than being
// marked clean.
func (s *Server) checkpointSession(sess *session, buf *bytes.Buffer) (bool, error) {
	cp, ok := sess.learner.(governor.Checkpointer)
	if !ok || s.ckpt == nil {
		return false, nil
	}
	sess.mu.Lock()
	if sess.dead {
		// Deleted since the sweep snapshot: state released, checkpoint
		// being GC'd by the delete — nothing to write.
		sess.mu.Unlock()
		return false, nil
	}
	epochs := sess.epochs
	if epochs == 0 {
		sess.mu.Unlock()
		return false, nil // nothing observed yet; keep any prior state
	}
	if epochs == sess.ckptEpochs {
		sess.mu.Unlock()
		s.ckptSkipped.Add(1)
		return false, nil // clean: the stored checkpoint already has this state
	}
	err := cp.SaveState(buf)
	sess.mu.Unlock()
	if err != nil {
		return false, fmt.Errorf("serve: freezing %s: %w", sess.id, err)
	}
	if err := s.ckpt.Save(sess.id, buf.Bytes()); err != nil {
		return false, fmt.Errorf("serve: writing %s checkpoint: %w", sess.id, err)
	}
	s.ckptWrites.Add(1)
	sess.mu.Lock()
	if epochs > sess.ckptEpochs {
		sess.ckptEpochs = epochs
	}
	sess.mu.Unlock()
	s.undoSaveIfDeleted(sess)
	return true, nil
}

// undoSaveIfDeleted closes the sweep-vs-DELETE race: a checkpoint
// captured before a concurrent delete must not survive it (it would
// resurrect "gone" learnt state on the next create). The check is by
// session identity, not id — if the id was deleted AND re-created
// inside the save window, the store holds a different *session and the
// file we just wrote is still the deleted one's state. Re-checking
// after the save makes every interleaving end with the stale file
// absent: whichever of the delete's GC and this cleanup runs last
// removes it.
func (s *Server) undoSaveIfDeleted(sess *session) {
	if cur, live := s.sessions.Get(sess.id); !live || cur != sess {
		if err := s.ckpt.Delete(sess.id); err != nil {
			s.log.Warn("removing checkpoint of deleted session failed", "session", sess.id, "err", err)
		}
	}
}

// restorableHeader reports whether frozen state opens with a checkpoint
// envelope some learner could restore: a JSON object carrying a kind tag
// and a positive version — the two fields every governor.Checkpointer
// format in the program leads with. State that fails this check (torn
// writes, truncation, a stray file) can never warm-start a session.
//
// The decode streams and stops at the two header fields (both formats
// emit them first), so a sweep over a large store pays two token reads
// per checkpoint, not a full parse of every value table. Stopping early
// cannot mistake a torn tail for a good checkpoint: a file truncated
// mid-document that still opens with a valid header would fail its real
// LoadState at warm-start, which handles it exactly like a cold create.
func restorableHeader(state []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(state))
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return false
	}
	var kind string
	var version float64
	var seenKind, seenVersion bool
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := keyTok.(string)
		switch key {
		case "kind":
			if dec.Decode(&kind) != nil {
				return false
			}
			seenKind = true
		case "version":
			if dec.Decode(&version) != nil {
				return false
			}
			seenVersion = true
		default:
			var skip json.RawMessage
			if dec.Decode(&skip) != nil {
				return false
			}
		}
		if seenKind && seenVersion {
			return kind != "" && version >= 1
		}
	}
	return false
}

// CompactCheckpoints is the dead-state sweep: it deletes checkpoints no
// session could ever restore from (no restorable header — torn or
// foreign files). It runs automatically in New; replicas sharing a
// store can also invoke it on demand. When a CompactionFilter is
// configured the sweep reads only the ids it owns — on a fleet-sized
// shared store each member pays for its own shards, not the whole
// directory. It returns how many were removed.
func (s *Server) CompactCheckpoints() (int, error) {
	if s.ckpt == nil {
		return 0, nil
	}
	ids, err := s.ckpt.List()
	if err != nil {
		return 0, err
	}
	removed := 0
	var firstErr error
	for _, id := range ids {
		if s.opt.CompactionFilter != nil && !s.opt.CompactionFilter(id) {
			continue // another member's shard; its owner sweeps it
		}
		state, err := s.ckpt.Load(id)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // raced with a delete; already gone
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if restorableHeader(state) {
			continue
		}
		if err := s.ckpt.Delete(id); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.log.Info("compacted unrestorable checkpoint", "session", id)
		removed++
	}
	return removed, firstErr
}

// Session ids validate through sessionstore.ValidID — the same rule the
// registry applies to blob-key segments, so no id the serving layer
// accepts can be rejected (or worse, swept as a temp file) downstream
// by a checkpoint store. Both control planes (flat create and the
// router's id assignment) use it.
func validSessionID(id string) bool { return sessionstore.ValidID(id) }

// errBadSessionID is the one copy of the id-rule error message.
func errBadSessionID(id string) error {
	return fmt.Errorf("session id %q must match %s and not start with '.'", id, sessionstore.IDPattern)
}

// platInfo is the per-platform immutable trio a session retains: the OPP
// table, its normalised-frequency axis, and the core count. One instance
// per platform name, shared read-only by every session on it.
type platInfo struct {
	table    platform.OPPTable
	normFreq []float64
	cores    int
}

// platformInfo resolves a platform name to its shared immutables,
// building them once per name from a throwaway cluster (the table and
// core count do not depend on the cluster seed).
func (s *Server) platformInfo(name string) (*platInfo, error) {
	if v, ok := s.plats.Load(name); ok {
		return v.(*platInfo), nil
	}
	plat, err := scenario.PlatformByName(name)
	if err != nil {
		return nil, err
	}
	c := plat.NewCluster(0)
	t := c.Table()
	pi := &platInfo{table: t, normFreq: t.NormFreqs(), cores: c.NumCores()}
	v, _ := s.plats.LoadOrStore(name, pi)
	return v.(*platInfo), nil
}

// createSession builds, optionally calibrates and warm-starts, and
// registers a session. It returns an HTTP status on failure.
func (s *Server) createSession(req createRequest) (*session, int, error) {
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("s%d", s.nextID.Add(1))
	}
	if !validSessionID(id) {
		return nil, 400, errBadSessionID(id)
	}
	if req.Governor == "" {
		return nil, 400, fmt.Errorf("governor is required (one of %v)", governor.Names())
	}
	if req.Governor == "oracle" {
		return nil, 400, fmt.Errorf("the oracle is offline by definition (it needs the whole trace); it cannot serve online")
	}
	gov, err := governor.ByName(req.Governor)
	if err != nil {
		return nil, 400, err
	}

	platName := req.Platform
	if platName == "" {
		platName = s.opt.DefaultPlatform
	}
	plat, err := s.platformInfo(platName)
	if err != nil {
		return nil, 400, err
	}

	periodS := req.PeriodS
	if periodS == 0 {
		periodS = s.opt.DefaultPeriodS
	}
	if !(periodS > 0) || periodS != periodS {
		return nil, 400, fmt.Errorf("period_s %v must be positive", req.PeriodS)
	}

	if req.Workload != "" {
		if _, err := workload.ByName(req.Workload); err != nil {
			return nil, 400, err
		}
	}

	if len(req.CalibrationCC) > 0 {
		rtm, ok := gov.(*core.RTM)
		if !ok {
			return nil, 400, fmt.Errorf("governor %s does not take a workload calibration", req.Governor)
		}
		if err := rtm.Calibrate(req.CalibrationCC); err != nil {
			return nil, 400, err
		}
	}

	// The learner is the raw governor; decisions may go through a
	// ThermalCap wrapper, but checkpointing and stats always reach the
	// learner directly.
	learner := gov
	if req.ThermalCapMW != 0 {
		if !(req.ThermalCapMW > 0) { // rejects negatives and NaN
			return nil, 400, fmt.Errorf("thermal_cap_mw %v must be positive", req.ThermalCapMW)
		}
		// Power-only cap: temperature never trips at +Inf, so the ceiling
		// is governed by the power budget alone.
		gov = &governor.ThermalCap{Inner: gov, TripC: math.Inf(1), PowerCapW: req.ThermalCapMW / 1000}
	}

	// State precedence: inline state, then the session's own checkpoint,
	// then the registry. A session re-created under its old id must
	// resume its exact learnt policy even when the create carries
	// warm_start — its own state is strictly fresher than any published
	// manifest, and "auto" in a steady-state create body must not
	// silently swap it for a foreign policy or a cold start.
	warmFrom := ""
	staged := false
	if len(req.State) > 0 {
		if err := scenario.WarmStart(learner, bytes.NewReader(req.State)); err != nil {
			return nil, 400, err
		}
		staged = true
	}
	if !staged && s.ckpt != nil {
		if state, err := s.ckpt.Load(id); err == nil {
			if err := scenario.WarmStart(learner, bytes.NewReader(state)); err != nil {
				return nil, 500, fmt.Errorf("warm-starting %s from checkpoint: %w", id, err)
			}
			s.log.Info("session warm-started from its checkpoint", "session", id)
			staged = true
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, 500, fmt.Errorf("reading %s checkpoint: %w", id, err)
		}
	}
	if !staged && req.WarmStart != "" {
		state, manifestID, status, err := s.resolveWarmStart(req, platName)
		if err != nil {
			return nil, status, err
		}
		if state != nil {
			if err := scenario.WarmStart(learner, bytes.NewReader(state)); err != nil {
				return nil, 400, fmt.Errorf("warm-starting %s from manifest %s: %w", id, manifestID, err)
			}
			warmFrom = manifestID
			s.log.Info("session warm-started from registry", "session", id, "manifest", manifestID)
		}
	}

	sess := &session{
		id:       id,
		govName:  req.Governor,
		platName: platName,
		workload: req.Workload,
		periodS:  periodS,
		seed:     req.Seed,
		capMW:    req.ThermalCapMW,
		warmFrom: warmFrom,
		gov:      gov,
		learner:  learner,
		plat:     plat,
		stripe:   &s.latAgg[s.stripeCtr.Add(1)%latStripes],
	}
	// Every failure past this point must reap the session: the reset
	// governor holds pooled page references that would otherwise leak.
	if err := resetGovernor(sess, s.qpool); err != nil {
		reapSession(sess)
		return nil, 400, err
	}

	if s.closed.Load() {
		reapSession(sess)
		return nil, 503, fmt.Errorf("server is shutting down")
	}
	if !s.sessions.Put(id, sess) {
		reapSession(sess)
		return nil, 409, fmt.Errorf("session %q already exists", id)
	}
	// A Close racing this create may have missed the session in its
	// final sweep; undo rather than lose learnt state silently.
	if s.closed.Load() {
		s.sessions.Delete(id)
		reapSession(sess)
		return nil, 503, fmt.Errorf("server is shutting down")
	}
	return sess, 0, nil
}

// resolveWarmStart turns a create request's warm_start reference into
// checkpoint state via the registry. "auto" asks for the nearest
// manifest matching the session's fingerprint — exact workload first,
// then any workload trained on the same governor and platform (the
// cross-workload transfer fallback) — and quietly starts cold when the
// registry holds nothing usable ("auto" means warm if the fleet has
// learnt anything, not fail). A manifest id demands exactly that
// checkpoint and errors when it is absent. The returned status is an
// HTTP code on failure.
func (s *Server) resolveWarmStart(req createRequest, platName string) (state []byte, manifestID string, status int, err error) {
	reg := s.opt.Registry
	if reg == nil {
		return nil, "", 400, fmt.Errorf("warm_start %q needs a checkpoint registry, and this server has none configured", req.WarmStart)
	}
	if req.WarmStart == "auto" {
		m, ok, err := reg.Nearest(registry.Fingerprint{
			Governor: req.Governor,
			Workload: req.Workload,
			Platform: platName,
		})
		if err != nil {
			return nil, "", 500, fmt.Errorf("resolving warm_start: %w", err)
		}
		if !ok {
			s.log.Info("no registry manifest near session; starting cold",
				"governor", req.Governor, "workload", req.Workload, "platform", platName)
			return nil, "", 0, nil
		}
		state, err := reg.StateOf(m)
		if err != nil {
			return nil, "", 500, fmt.Errorf("fetching manifest %s state: %w", m.ID, err)
		}
		return state, m.ID, 0, nil
	}
	// Manifest ids are single key segments; rejecting anything else up
	// front keeps client-controlled input from ever reaching the store's
	// path handling (a slash-bearing "id" would otherwise surface as a
	// storage error, not the 400 it is).
	if !sessionstore.ValidID(req.WarmStart) {
		return nil, "", 400, fmt.Errorf("malformed warm_start manifest id %q", req.WarmStart)
	}
	m, err := reg.Manifest(req.WarmStart)
	if err != nil {
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil, "", 404, fmt.Errorf("unknown warm_start manifest %q", req.WarmStart)
		case errors.Is(err, fs.ErrInvalid):
			// A malformed id off the wire is the caller's error, not ours.
			return nil, "", 400, fmt.Errorf("malformed warm_start manifest id %q", req.WarmStart)
		default:
			return nil, "", 500, err
		}
	}
	st, err := reg.StateOf(m)
	if err != nil {
		return nil, "", 500, fmt.Errorf("fetching manifest %s state: %w", m.ID, err)
	}
	return st, m.ID, 0, nil
}

// resetGovernor runs the governor's Reset, converting the panic a
// dimension-mismatched checkpoint raises (the Config.Transfer contract)
// into an error the API can return.
func resetGovernor(sess *session, pool *qpage.Pool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("resetting governor: %v", r)
		}
	}()
	sess.gov.Reset(governor.Context{
		Table:    sess.plat.table,
		NumCores: sess.plat.cores,
		NormFreq: sess.plat.normFreq,
		PeriodS:  sess.periodS,
		Seed:     sess.seed,
		QPool:    pool,
	})
	return nil
}

// reapSession releases a session's pooled learning state exactly once
// (idempotent under the session lock) and marks it dead so an in-flight
// decide still holding the pointer errors instead of touching released
// pages. Called on delete and on every create failure path past Reset.
func reapSession(sess *session) {
	sess.mu.Lock()
	if !sess.dead {
		sess.dead = true
		if rel, ok := sess.learner.(governor.StateReleaser); ok {
			rel.ReleaseState()
		}
	}
	sess.mu.Unlock()
}

func (s *Server) session(id string) *session {
	sess, _ := s.sessions.Get(id)
	return sess
}

// sessionFor is the byte-keyed twin of session for the binary transport:
// the store's byte-keyed lookup needs no conversion allocation, keeping
// the TCP decode→decide path allocation-free.
func (s *Server) sessionFor(id []byte) *session {
	sess, _ := s.sessions.GetBytes(id)
	return sess
}

// deleteSession drops the session, returns its shared Q-table pages to
// the pool, and garbage-collects its checkpoint — DELETE means gone, not
// "resurrectable from a state file the operator must remember to remove".
// Unmapping from the store first means no new decide can find the
// session; reapSession's dead flag closes the race with decides already
// holding the pointer.
func (s *Server) deleteSession(id string) bool {
	sess, ok := s.sessions.Delete(id)
	if !ok {
		return false
	}
	reapSession(sess)
	if s.ckpt != nil {
		if err := s.ckpt.Delete(id); err != nil {
			s.log.Warn("deleting checkpoint failed", "session", id, "err", err)
		}
	}
	return true
}

// decide serialises one decision on the session and, when it succeeds,
// records its latency (µs under the session lock) in the server-wide
// aggregate /v1/metrics reports, so that histogram counts exactly the
// decisions the decisions counter does. A non-finite or out-of-range
// reading is refused before the lock: fed to a learner it would poison
// the Q-table (a NaN makes every later checkpoint of the session fail
// to encode) or skew it silently.
// Governor panics (a malformed observation hitting a harness-bug
// assertion) are contained per call so one bad request cannot take the
// server down.
func (sess *session) decide(obs governor.Observation) (idx int, err error) {
	if err := checkObservation(&obs); err != nil {
		return -1, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.dead {
		// Deleted while this request was in flight: its learning state is
		// back in the pool, so the decide must refuse, exactly as if the
		// lookup had missed.
		return -1, errUnknownSession(sess.id)
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("governor rejected the observation: %v", r)
			return
		}
		if sess.stripe != nil {
			sess.stripe.add(float64(time.Since(start)) / float64(time.Microsecond))
		}
	}()
	idx = sess.gov.Decide(obs)
	sess.epochs++
	return idx, nil
}

// checkObservation names the first reading no real epoch produces: a
// NaN or ±Inf, or in a measured epoch (Epoch -1 is the first call's
// all-zero observation, which every governor ignores) a non-positive
// period, a negative time or power, or a utilisation outside [0, 1].
// Every decide, from either plane or relayed by a router, passes through
// session.decide, so this is the one place that guards all of them.
func checkObservation(obs *governor.Observation) error {
	bad, why := "", "is not finite"
	measured := obs.Epoch >= 0
	switch {
	case !finite(obs.ExecTimeS):
		bad = "exec_time_s"
	case !finite(obs.PeriodS):
		bad = "period_s"
	case !finite(obs.WallTimeS):
		bad = "wall_time_s"
	case !finite(obs.PowerW):
		bad = "power_w"
	case !finite(obs.TempC):
		bad = "temp_c"
	case !measured:
	case obs.PeriodS <= 0:
		bad, why = "period_s", "must be positive"
	case obs.ExecTimeS < 0:
		bad, why = "exec_time_s", "is negative"
	case obs.WallTimeS < 0:
		bad, why = "wall_time_s", "is negative"
	case obs.PowerW < 0:
		bad, why = "power_w", "is negative"
	}
	if bad == "" {
		for _, u := range obs.Util {
			if !finite(u) {
				bad = "util"
				break
			}
			if measured && (u < 0 || u > 1) {
				bad, why = "util", "is outside [0, 1]"
				break
			}
		}
	}
	if bad == "" {
		return nil
	}
	return fmt.Errorf("observation %s %s", bad, why)
}

// finite reports whether x is neither NaN nor ±Inf: x-x is 0 for every
// finite x and NaN otherwise. One subtraction, on every decide.
func finite(x float64) bool { return x-x == 0 }
