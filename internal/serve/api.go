package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"

	"qgov/internal/governor"
	"qgov/internal/stats"
)

// Wire types. Floats round-trip exactly through encoding/json (shortest
// representation that parses back to the same float64), which is what
// lets a served governor reproduce a sim.Run decision for decision.
// Every reply is bounded whatever the session count: /v1/metrics is a
// fixed-size document (plus at most maxTopSessions top-K entries), and
// per-session detail is a sessionInfo, one at a time or in pages of at
// most maxListLimit.

// createRequest creates one session.
type createRequest struct {
	// ID names the session; empty lets the server assign one. It must be
	// filename-safe (it names the checkpoint file).
	ID string `json:"id"`
	// Governor is the registered governor name ("rtm", "mldtm", ...).
	Governor string `json:"governor"`
	// Platform is the scenario platform variant; empty uses the server
	// default.
	Platform string `json:"platform,omitempty"`
	// PeriodS is the decision-epoch deadline Tref; 0 uses the server
	// default.
	PeriodS float64 `json:"period_s,omitempty"`
	// Seed feeds the governor's stochastic policy.
	Seed int64 `json:"seed,omitempty"`
	// CalibrationCC optionally pre-characterises an RTM's workload state
	// range (per-epoch critical-path cycle counts, the paper's design-
	// space exploration).
	CalibrationCC []float64 `json:"calibration_cc,omitempty"`
	// State optionally warm-starts the governor from an inline
	// checkpoint (the body written by /checkpoint or scenario.Freeze).
	// It takes precedence over warm_start and over a checkpoint on disk.
	State json.RawMessage `json:"state,omitempty"`
	// Workload optionally names the workload this session controls
	// (a workload-registry name). It is matching metadata: warm_start
	// "auto" prefers a manifest trained on the same workload before
	// falling back to any same-platform one.
	Workload string `json:"workload,omitempty"`
	// WarmStart resolves learnt state from the checkpoint registry:
	// "auto" picks the nearest manifest for this session's fingerprint,
	// anything else names a manifest id exactly. Inline State and the
	// session's own checkpoint (a re-created id resumes its exact learnt
	// policy) both take precedence; when neither exists the registry
	// resolves it, and the server having no registry is then an error.
	WarmStart string `json:"warm_start,omitempty"`
	// ThermalCapMW, when positive, wraps the governor in a per-session
	// power cap (governor.ThermalCap in power-only form): sensed epoch
	// power above the budget steps the permissible OPP ceiling down, and
	// it recovers once power clears the cap's hysteresis.
	ThermalCapMW float64 `json:"thermal_cap_mw,omitempty"`
}

type sessionInfo struct {
	ID           string  `json:"id"`
	Governor     string  `json:"governor"`
	Platform     string  `json:"platform"`
	Workload     string  `json:"workload,omitempty"`
	PeriodS      float64 `json:"period_s"`
	Seed         int64   `json:"seed"`
	ThermalCapMW float64 `json:"thermal_cap_mw,omitempty"`
	WarmManifest string  `json:"warm_manifest,omitempty"` // registry manifest the session warm-started from
	Epochs       int64   `json:"epochs"`
	Explorations int     `json:"explorations"` // -1 for non-learners
	ConvergedAt  int     `json:"converged_at"` // -1 while learning
	// The ExplorationStats trio: where the ε schedule sits, how much
	// experience the tables hold, and how much of the greedy policy has
	// settled. Present only for learners that expose it.
	Epsilon           *float64 `json:"epsilon,omitempty"`
	VisitTotal        *int     `json:"visit_total,omitempty"`
	ConvergedFraction *float64 `json:"converged_fraction,omitempty"`
}

type decideRequest struct {
	Requests []decideItem `json:"requests"`
}

type decideItem struct {
	Session string          `json:"session"`
	Obs     observationJSON `json:"obs"`
}

// observationJSON mirrors governor.Observation field for field.
type observationJSON struct {
	Epoch     int       `json:"epoch"`
	Cycles    []uint64  `json:"cycles,omitempty"`
	Util      []float64 `json:"util,omitempty"`
	ExecTimeS float64   `json:"exec_time_s"`
	PeriodS   float64   `json:"period_s"`
	WallTimeS float64   `json:"wall_time_s"`
	PowerW    float64   `json:"power_w"`
	TempC     float64   `json:"temp_c"`
	OPPIdx    int       `json:"opp_idx"`
}

func (o observationJSON) observation() governor.Observation {
	return governor.Observation{
		Epoch:     o.Epoch,
		Cycles:    o.Cycles,
		Util:      o.Util,
		ExecTimeS: o.ExecTimeS,
		PeriodS:   o.PeriodS,
		WallTimeS: o.WallTimeS,
		PowerW:    o.PowerW,
		TempC:     o.TempC,
		OPPIdx:    o.OPPIdx,
	}
}

type decideResponse struct {
	Decisions []decisionJSON `json:"decisions"`
}

type decisionJSON struct {
	Session string `json:"session"`
	OPPIdx  int    `json:"opp_idx"`
	FreqMHz int    `json:"freq_mhz,omitempty"`
	Error   string `json:"error,omitempty"`
}

func (s *Server) info(sess *session) sessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	in := sessionInfo{
		ID:           sess.id,
		Governor:     sess.govName,
		Platform:     sess.platName,
		Workload:     sess.workload,
		PeriodS:      sess.periodS,
		Seed:         sess.seed,
		ThermalCapMW: sess.capMW,
		WarmManifest: sess.warmFrom,
		Epochs:       sess.epochs,
		Explorations: -1,
		ConvergedAt:  -1,
	}
	if ls, ok := sess.learner.(governor.LearningStats); ok {
		in.Explorations = ls.Explorations()
		in.ConvergedAt = ls.ConvergedAtEpoch()
	}
	if es, ok := sess.learner.(governor.ExplorationStats); ok {
		eps, visits, frac := es.Epsilon(), es.VisitTotal(), es.ConvergedFraction()
		in.Epsilon, in.VisitTotal, in.ConvergedFraction = &eps, &visits, &frac
	}
	return in
}

// freezeSession captures the session's learnt state now and persists it
// to the checkpoint store when one is configured. Both control planes
// (HTTP and binary) run checkpoints through it. The returned status is
// an HTTP code on failure.
func (s *Server) freezeSession(sess *session) ([]byte, int, error) {
	cp, ok := sess.learner.(governor.Checkpointer)
	if !ok {
		return nil, http.StatusBadRequest, errf("governor %s keeps no learnt state", sess.govName)
	}
	var buf bytes.Buffer
	sess.mu.Lock()
	if sess.dead {
		// Deleted while this request was in flight: its learning state is
		// released, so there is nothing left to freeze.
		sess.mu.Unlock()
		return nil, http.StatusNotFound, errUnknownSession(sess.id)
	}
	epochs := sess.epochs
	err := cp.SaveState(&buf)
	sess.mu.Unlock()
	if err != nil {
		return nil, http.StatusConflict, err
	}
	if s.ckpt != nil {
		if err := s.ckpt.Save(sess.id, buf.Bytes()); err != nil {
			return nil, http.StatusInternalServerError, err
		}
		s.ckptWrites.Add(1)
		// An explicit checkpoint marks the session clean the same way the
		// periodic sweep does, so the next sweep does not re-write it.
		sess.mu.Lock()
		if epochs > sess.ckptEpochs {
			sess.ckptEpochs = epochs
		}
		sess.mu.Unlock()
		s.undoSaveIfDeleted(sess)
	}
	return buf.Bytes(), http.StatusOK, nil
}

// checkpointResponse is the body of a successful checkpoint: the frozen
// state inline, so a caller (a backup job, a migration script) can carry
// it without touching the checkpoint store.
type checkpointResponse struct {
	Session string          `json:"session"`
	State   json.RawMessage `json:"state"`
}

// latencyJSON is one latency histogram: bins over [lo_us, hi_us] with
// out-of-range samples in underflow/overflow, so every decision is
// accounted for exactly once. Fixed-width bins carry bin_width_us;
// log-width bins (scale "log", what serve's decide histograms use) carry
// the per-bin upper edges instead. p99/p999 are estimated from the bins
// and omitted when the rank falls in the overflow bucket — a saturated
// tail must read as "unknown, beyond hi_us", never as a number.
type latencyJSON struct {
	Count      int       `json:"count"`
	SumUS      float64   `json:"sum_us"`
	LoUS       float64   `json:"lo_us"`
	HiUS       float64   `json:"hi_us"`
	BinWidthUS float64   `json:"bin_width_us,omitempty"`
	Scale      string    `json:"scale,omitempty"`
	EdgesUS    []float64 `json:"edges_us,omitempty"`
	Bins       []int     `json:"bins"`
	Underflow  int       `json:"underflow"`
	Overflow   int       `json:"overflow"`
	P99US      *float64  `json:"p99_us,omitempty"`
	P999US     *float64  `json:"p999_us,omitempty"`
}

// latencyFromHistogram renders one histogram in the latencyJSON shape.
func latencyFromHistogram(h *stats.Histogram) latencyJSON {
	lj := latencyJSON{
		Count:      h.Count(),
		SumUS:      h.Sum(),
		LoUS:       h.Lo(),
		HiUS:       h.Hi(),
		BinWidthUS: h.BinWidth(),
		Bins:       h.Bins(),
		Underflow:  h.Underflow(),
		Overflow:   h.Overflow(),
	}
	if h.LogScale() {
		lj.Scale = "log"
		lj.EdgesUS = h.Edges()
	}
	// json.Marshal rejects NaN/Inf, so the quantiles are pointers set
	// only when the estimate is a real number.
	if q := h.Quantile(0.99); !math.IsNaN(q) && !math.IsInf(q, 0) {
		lj.P99US = &q
	}
	if q := h.Quantile(0.999); !math.IsNaN(q) && !math.IsInf(q, 0) {
		lj.P999US = &q
	}
	return lj
}

// metricsJSON is the /v1/metrics document. Its size does not depend on
// the session count: Top holds at most maxTopSessions entries.
type metricsJSON struct {
	Decisions int64 `json:"decisions"`
	// Sessions is the live session count (as /healthz); a router sums.
	Sessions int `json:"sessions"`
	// Top, only when asked for (?top=K), is the K learning sessions with
	// the most epochs, busiest first; a router merges its replicas' tops.
	Top []sessionInfo `json:"top,omitempty"`
	// DecideLatency is the server-wide decision latency histogram — the
	// striped aggregate every session's decides also land in, O(1) in
	// session count. A router reports the fleet-wide bin-sum. Absent
	// until the first decision.
	DecideLatency *latencyJSON `json:"decide_latency,omitempty"`
	// Runtime is this process's Go runtime health snapshot (goroutines,
	// GC pause p99, live heap, scheduler latency p99). Per-process even
	// on a router: the fleet's replicas each report their own.
	Runtime *stats.RuntimeStats `json:"runtime,omitempty"`
	// DegradedReplicas, set only on a router's fleet aggregate, names the
	// members whose metrics could not be collected — the body then covers
	// the reachable majority rather than failing wholesale.
	DegradedReplicas []string `json:"degraded_replicas,omitempty"`
	// RouteHops, set only on a router, is the per-replica routed decide
	// round-trip latency (router→replica→router, microseconds).
	RouteHops map[string]latencyJSON `json:"route_hops,omitempty"`
	// RouteInflight, set only on a router, is the number of relayed
	// decide requests currently awaiting replica replies.
	RouteInflight *int64 `json:"route_inflight,omitempty"`
	// CheckpointWrites / CheckpointSkipped count the periodic sweep's
	// session-state writes and the writes it skipped because nothing had
	// decided since the last one (the dirty-flag fix for checkpoint write
	// amplification). A router reports the fleet-wide sums.
	CheckpointWrites  int64 `json:"checkpoint_writes"`
	CheckpointSkipped int64 `json:"checkpoint_skipped"`
	// The Q-table page pool's memory-floor gauges: distinct shared pages
	// and the bytes they hold right now, plus the cumulative count of
	// copy-on-write faults (first writes that privatised a shared page).
	// A router reports the fleet-wide sums.
	QTablePoolPages       int64 `json:"qtable_pool_pages"`
	QTablePoolSharedBytes int64 `json:"qtable_pool_shared_bytes"`
	QTableCowFaults       int64 `json:"qtable_cow_faults"`
}

// metrics implements connBackend: it snapshots the view /v1/metrics
// serves. The default document reads only server-wide counters and the
// striped latency aggregate, so it takes no session lock and costs the
// same at any session count; top > 0 adds the top busiest learners. It
// never fails; the error is the router's.
func (s *Server) metrics(top int) (metricsJSON, error) {
	out := metricsJSON{
		Decisions:         s.decisions.Load(),
		Sessions:          s.sessions.Len(),
		CheckpointWrites:  s.ckptWrites.Load(),
		CheckpointSkipped: s.ckptSkipped.Load(),
	}
	out.QTablePoolPages, out.QTablePoolSharedBytes, out.QTableCowFaults = s.qpool.Stats()
	if agg := s.decideLatency(); agg != nil {
		lj := latencyFromHistogram(agg)
		out.DecideLatency = &lj
	}
	rs := stats.ReadRuntime()
	out.Runtime = &rs
	if top > 0 {
		out.Top = s.topLearners(top)
	}
	return out, nil
}

// topLearners returns the k learning sessions with the most epochs,
// busiest first (ties by id), from one walk of the store that keeps the
// k busiest in a capped sorted slice.
func (s *Server) topLearners(k int) []sessionInfo {
	type ranked struct {
		sess   *session
		epochs int64
	}
	busier := func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.epochs, a.epochs), strings.Compare(a.sess.id, b.sess.id))
	}
	best := make([]ranked, 0, k+1)
	s.sessions.Range(func(_ string, sess *session) bool {
		if _, ok := sess.learner.(governor.LearningStats); ok {
			sess.mu.Lock()
			r := ranked{sess, sess.epochs}
			sess.mu.Unlock()
			best = insertCapped(best, k, r, busier)
		}
		return true
	})
	infos := make([]sessionInfo, len(best))
	for i, r := range best {
		infos[i] = s.info(r.sess)
	}
	return infos
}

// sortBusiest orders top-K entries by epochs descending, then id: the
// one order both tiers serve.
func sortBusiest(infos []sessionInfo) {
	slices.SortFunc(infos, func(a, b sessionInfo) int {
		return cmp.Or(cmp.Compare(b.Epochs, a.Epochs), strings.Compare(a.ID, b.ID))
	})
}

// insertCapped inserts v into s, which is sorted under cmp and holds at
// most n values, dropping whatever falls past n: one walk over any
// number of candidates keeps the n first, in order, in O(n) space. Give
// s a capacity of n+1 and it never reallocates.
func insertCapped[T any](s []T, n int, v T, cmp func(a, b T) int) []T {
	if len(s) == n && (n == 0 || cmp(v, s[n-1]) >= 0) {
		return s
	}
	i, _ := slices.BinarySearchFunc(s, v, cmp)
	return slices.Insert(s, i, v)[:min(len(s)+1, n)]
}

// mergeLatencyJSON folds one rendered latency histogram into an
// accumulator (bin-wise sums; geometry is trusted equal because every
// server in a fleet runs the same build). The quantile estimates are
// recomputed from the merged bins — quantiles do not sum.
func mergeLatencyJSON(dst, src *latencyJSON) *latencyJSON {
	if src == nil {
		return dst
	}
	if dst == nil {
		cp := *src
		cp.Bins = append([]int(nil), src.Bins...)
		dst = &cp
	} else {
		if len(dst.Bins) != len(src.Bins) {
			return dst // geometry drift: keep what we have rather than corrupt it
		}
		dst.Count += src.Count
		dst.SumUS += src.SumUS
		dst.Underflow += src.Underflow
		dst.Overflow += src.Overflow
		for i, c := range src.Bins {
			dst.Bins[i] += c
		}
	}
	dst.P99US = latencyJSONQuantile(dst, 0.99)
	dst.P999US = latencyJSONQuantile(dst, 0.999)
	return dst
}

// latencyJSONQuantile estimates quantile q from rendered bins, reporting
// the upper edge of the bucket the rank lands in (pessimistic by up to
// one bucket). Nil when the histogram is empty or the rank falls in the
// overflow bucket — a saturated tail reads as "beyond hi_us", never a
// number.
func latencyJSONQuantile(lj *latencyJSON, q float64) *float64 {
	if lj.Count == 0 {
		return nil
	}
	rank := int(math.Ceil(q * float64(lj.Count)))
	if rank < 1 {
		rank = 1
	}
	cum := lj.Underflow
	if cum >= rank {
		v := lj.LoUS
		return &v
	}
	for i, c := range lj.Bins {
		cum += c
		if cum >= rank {
			var hi float64
			if len(lj.EdgesUS) == len(lj.Bins) {
				hi = lj.EdgesUS[i]
			} else {
				hi = lj.LoUS + float64(i+1)*lj.BinWidthUS
			}
			return &hi
		}
	}
	return nil
}

// Session list paging (GET /v1/sessions, OpList): a page holds at most
// maxListLimit sessions, so a reply stays far under wire.MaxPayload at
// any session count (an id is at most 128 bytes, an entry a few hundred).
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// controlQuery is the optional JSON body of OpMetrics ({"top": K}) and
// OpList ({"after": id, "limit": n}); an empty body is the zero value.
type controlQuery struct {
	Top   int    `json:"top,omitempty"`
	After string `json:"after,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// normalized clamps a query to what both tiers serve: Top into
// [0, maxTopSessions], Limit into [1, maxListLimit] (defaultListLimit
// when unset or not positive). Queries are normalised where they arrive
// (urlQuery, parseControlQuery), so no handler sees a negative K or an
// unbounded page.
func (q controlQuery) normalized() controlQuery {
	q.Top = max(0, min(q.Top, maxTopSessions))
	if q.Limit <= 0 {
		q.Limit = defaultListLimit
	}
	q.Limit = min(q.Limit, maxListLimit)
	return q
}

// parseControlQuery decodes and normalises the body of an OpMetrics or
// OpList frame, on either tier.
func parseControlQuery(body []byte) (controlQuery, error) {
	var q controlQuery
	if len(body) > 0 {
		if err := json.Unmarshal(body, &q); err != nil {
			return controlQuery{}, err
		}
	}
	return q.normalized(), nil
}

// sessionPage is one page of the session list, sorted by id. Next is the
// cursor (the after) of the following page, empty on the last one.
type sessionPage struct {
	Sessions []sessionInfo `json:"sessions"`
	Next     string        `json:"next,omitempty"`
}

// listPage answers one page of the session list: one walk of the store
// keeps the limit+1 smallest ids after the cursor, in order (the extra
// one only says whether a next page exists).
func (s *Server) listPage(q controlQuery) sessionPage {
	n := q.Limit
	byID := func(a, b *session) int { return strings.Compare(a.id, b.id) }
	best := make([]*session, 0, n+2)
	s.sessions.Range(func(id string, sess *session) bool {
		if id > q.After {
			best = insertCapped(best, n+1, sess, byID)
		}
		return true
	})
	page := sessionPage{Sessions: make([]sessionInfo, 0, n)}
	for i, sess := range best {
		if i == n {
			page.Next = page.Sessions[n-1].ID
			break
		}
		page.Sessions = append(page.Sessions, s.info(sess))
	}
	return page
}

// healthJSON is the /healthz body on both control planes: liveness plus
// O(1) counters.
type healthJSON struct {
	Status    string `json:"status"`
	Sessions  int    `json:"sessions"`
	Decisions int64  `json:"decisions"`
}

func (s *Server) health() healthJSON {
	return healthJSON{Status: "ok", Sessions: s.sessions.Len(), Decisions: s.decisions.Load()}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

func errUnknownSession(id string) error { return errf("unknown session %q", id) }
