package governor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"qgov/internal/qpage"
	"qgov/internal/xrand"
)

// MLDTM reimplements the multi-core learning DVFS controller of Ge & Qiu,
// "Dynamic thermal management for multimedia applications using machine
// learning" (DAC'11) — the paper's ref [20] and its strongest baseline in
// Table I. Following the paper, the thermal constraint is neglected "for
// equivalence of comparison"; what remains is the controller's learning
// structure, which differs from the proposed RTM in exactly the three ways
// the comparison turns on:
//
//  1. its state is the observed per-core *utilisation band* — it has no
//     notion of the application's deadline or slack, so it regulates
//     toward a fixed utilisation target rather than toward Tref;
//  2. exploration draws actions from a *uniform* distribution;
//  3. every core trains an *independent* Q-table from only its own
//     experience (per-core DVFS in the original platform), so on a
//     shared-clock cluster four agents must each converge — roughly
//     doubling the learning overhead measured in Table III.
type MLDTM struct {
	// UtilBands is the number of utilisation states per core.
	UtilBands int
	// TargetUtil is the utilisation the reward steers toward. Without
	// deadline knowledge the controller keeps headroom: utilisation ≈ 0.9
	// means finishing ≈ 10 % before the period — the over-performance
	// visible in Table I's normalised performance of 0.89.
	TargetUtil float64
	// PowerWeight scales the power penalty against the utilisation error.
	PowerWeight float64
	// MaxPowerW normalises sensed power into [0,1] for the reward.
	MaxPowerW float64
	// Alpha and Discount are the Q-learning parameters; the learning rate
	// decays per state-action visit as α·K/(K+v) with K = AlphaDecayK so
	// the per-core policies can actually converge (Table III needs a
	// well-defined convergence epoch for this baseline too).
	Alpha       float64
	AlphaDecayK float64
	Discount    float64
	// GreedyMargin is the hysteresis dead-band on the per-core greedy
	// choice, mirroring the proposed RTM's.
	GreedyMargin float64
	// Epsilon0 and EpsilonDecay control the ε-greedy schedule
	// ε_i = ε₀·exp(−decay·i).
	Epsilon0     float64
	EpsilonDecay float64
	// OverheadS is the per-decision compute cost (four table updates plus
	// counter sampling).
	OverheadS float64
	// StableEpochs configures convergence detection.
	StableEpochs int

	ctx Context
	// rng is built lazily on the first ε draw (see the RTM's identically
	// motivated field): a never-decided session should not pay even the
	// 8-byte xrand allocation.
	rng *xrand.Rand
	// tab holds every core's value table as one paged copy-on-write
	// table: row c·UtilBands+s is core c's band-s action values. Built
	// through Context.QPool when present, so identical cold or
	// warm-started controllers share immutable pages. It has no rows
	// before the first Reset.
	tab          qpage.Table
	greedy       []int // sticky greedy choice per table row
	lastState    []int
	lastAction   int
	epoch        int
	explorations int
	// tracker watches one fingerprint slot per table row: its sticky
	// greedy choice, masked below MinRowVisits updates.
	tracker ConvergenceTracker

	// restored is the staged Checkpointer state; Reset applies it.
	// restoredTab is the staged table interned on first apply — every
	// later Reset clones it instead of re-copying the flat payload.
	restored    *mldtmCheckpoint
	restoredTab *qpage.Table
}

// row maps (core, band) to the packed table row.
func (g *MLDTM) row(c, s int) int { return c*g.UtilBands + s }

// NewMLDTM constructs the baseline with the configuration used in the
// experiments.
func NewMLDTM() *MLDTM {
	return &MLDTM{
		UtilBands:    5,
		TargetUtil:   0.90,
		PowerWeight:  0.3,
		MaxPowerW:    7.0,
		Alpha:        0.40,
		AlphaDecayK:  25,
		Discount:     0.85,
		GreedyMargin: 0.12,
		Epsilon0:     1.0,
		EpsilonDecay: 0.012,
		OverheadS:    200e-6,
		StableEpochs: 25,
	}
}

// Name implements Governor.
func (g *MLDTM) Name() string { return "mldtm" }

// DecisionOverheadS implements OverheadModeler.
func (g *MLDTM) DecisionOverheadS() float64 { return g.OverheadS }

// Explorations implements LearningStats.
func (g *MLDTM) Explorations() int { return g.explorations }

// ConvergedAtEpoch implements LearningStats.
func (g *MLDTM) ConvergedAtEpoch() int { return g.tracker.ConvergedAt() }

// Epsilon implements ExplorationStats: the ε the next decision will use,
// the same exponential decay Decide applies at the current epoch clock.
func (g *MLDTM) Epsilon() float64 {
	return g.Epsilon0 * math.Exp(-g.EpsilonDecay*float64(g.epoch))
}

// VisitTotal implements ExplorationStats.
func (g *MLDTM) VisitTotal() int {
	n := 0
	for r := 0; r < g.tab.Rows(); r++ {
		for _, v := range g.tab.VRow(r) {
			n += int(v)
		}
	}
	return n
}

// ConvergedFraction implements ExplorationStats.
func (g *MLDTM) ConvergedFraction() float64 { return g.tracker.StableFraction() }

// ReleaseState implements StateReleaser: called once on session delete to
// return the live table's and the staged base's pooled pages.
func (g *MLDTM) ReleaseState() {
	g.tab.Release()
	g.tab = qpage.Table{}
	if g.restoredTab != nil {
		g.restoredTab.Release()
		g.restoredTab = nil
	}
	g.restored = nil
}

// Reset implements Governor.
func (g *MLDTM) Reset(ctx Context) {
	g.ctx = ctx
	g.rng = nil // rebuilt lazily from ctx.Seed on the first ε draw
	nActions := ctx.Table.Len()
	g.tab.Release()
	rows := ctx.NumCores * g.UtilBands
	if g.restored != nil {
		g.applyRestored(rows, nActions)
	} else if ctx.QPool != nil {
		g.tab = ctx.QPool.NewShared(rows, nActions, 0)
	} else {
		g.tab = qpage.New(rows, nActions, 0)
	}
	g.greedy = make([]int, rows)
	for r := range g.greedy {
		g.greedy[r] = argmaxOf(g.tab.Row(r))
	}
	g.lastState = make([]int, ctx.NumCores)
	g.lastAction = 0
	g.epoch = 0
	g.explorations = 0
	g.tracker.Init(g.StableEpochs, rows)
	g.tracker.MaxFlips = 2 // mirror the RTM's tolerance for comparability
	if g.restored != nil {
		g.epoch = g.restored.Epoch
	}
}

// mldtmCheckpoint is the ML-DTM's Checkpointer payload: every core's value
// table with visit counts, flattened [core][band][action] row-major, plus
// the epoch clock that drives the ε decay — a warm-started controller
// resumes at the decayed exploration rate, not ε₀. LoadState decodes
// through it; SaveState writes the same fields in the same order through
// appendState.
type mldtmCheckpoint struct {
	Kind    string    `json:"kind"`
	Version int       `json:"version"`
	Cores   int       `json:"cores"`
	Bands   int       `json:"bands"`
	Actions int       `json:"actions"`
	Q       []float64 `json:"q"`
	Visits  []int     `json:"visits"`
	Epoch   int       `json:"epoch"`
}

// SaveState implements Checkpointer. The paged table is written flat in
// [core][band][action] row-major order — exactly the packed row layout —
// so the wire format is unchanged from the pre-paging encoding. The
// output is byte for byte what encoding/json's Encoder writes for
// mldtmCheckpoint, appended into w's spare capacity when w is a
// *bytes.Buffer. On error nothing is written.
func (g *MLDTM) SaveState(w io.Writer) error {
	if g.tab.Rows() == 0 {
		return fmt.Errorf("governor: mldtm has not run yet, nothing to save")
	}
	var b []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		b = buf.AvailableBuffer()
	}
	b, err := g.appendState(b)
	if err != nil {
		return fmt.Errorf("governor: saving mldtm state: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("governor: saving mldtm state: %w", err)
	}
	return nil
}

// appendState appends the mldtmCheckpoint encoding of the current state.
func (g *MLDTM) appendState(b []byte) ([]byte, error) {
	b = append(b, `{"kind":"mldtm","version":1,"cores":`...)
	b = strconv.AppendInt(b, int64(g.ctx.NumCores), 10)
	b = append(b, `,"bands":`...)
	b = strconv.AppendInt(b, int64(g.UtilBands), 10)
	b = append(b, `,"actions":`...)
	b = strconv.AppendInt(b, int64(g.ctx.Table.Len()), 10)
	b = append(b, `,"q":`...)
	b, err := g.tab.AppendQ(b)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"visits":`...)
	b = g.tab.AppendV(b)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, int64(g.epoch), 10)
	return append(b, "}\n"...), nil
}

// LoadState implements Checkpointer: validate, then stage for the next
// Reset. A checkpoint whose core or action count does not match the run's
// platform panics at Reset, the same contract as the RTM's.
func (g *MLDTM) LoadState(r io.Reader) error {
	var cp mldtmCheckpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("governor: loading mldtm state: %w", err)
	}
	if cp.Kind != "mldtm" {
		return fmt.Errorf("governor: checkpoint is %q state, not mldtm", cp.Kind)
	}
	if cp.Version != 1 {
		return fmt.Errorf("governor: unsupported mldtm checkpoint version %d", cp.Version)
	}
	if cp.Bands != g.UtilBands {
		return fmt.Errorf("governor: checkpoint has %d utilisation bands, controller is configured with %d", cp.Bands, g.UtilBands)
	}
	n := cp.Cores * cp.Bands * cp.Actions
	if cp.Cores < 1 || cp.Actions < 1 || len(cp.Q) != n || len(cp.Visits) != n {
		return fmt.Errorf("governor: mldtm checkpoint is inconsistent (%d cores × %d bands × %d actions, %d values)",
			cp.Cores, cp.Bands, cp.Actions, len(cp.Q))
	}
	for i, q := range cp.Q {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("governor: mldtm checkpoint is poisoned: q[%d] = %v", i, q)
		}
	}
	for i, v := range cp.Visits {
		if v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("governor: mldtm checkpoint is inconsistent: visits[%d] = %d, want 0 to %d", i, v, math.MaxInt32)
		}
	}
	if cp.Epoch < 0 {
		return fmt.Errorf("governor: mldtm checkpoint epoch %d is negative", cp.Epoch)
	}
	g.restored = &cp
	return nil
}

// applyRestored builds the live table from a staged checkpoint. With a
// page pool, the flat payload is materialised and interned once
// (restoredTab); this and every later Reset clone it, so all sessions
// restored from the same trained state share its pages. Without a pool the
// table is a private copy, the pre-pool behaviour. Reset recomputes the
// greedy choices and the epoch clock afterwards.
func (g *MLDTM) applyRestored(rows, nActions int) {
	cp := g.restored
	if cp.Cores != g.ctx.NumCores || cp.Actions != nActions {
		panic(fmt.Sprintf("governor: mldtm checkpoint is %d cores × %d actions, cluster has %d × %d",
			cp.Cores, cp.Actions, g.ctx.NumCores, nActions))
	}
	pool := g.ctx.QPool
	if pool == nil {
		g.tab = qpage.FromFlat(rows, nActions, cp.Q, cp.Visits)
		return
	}
	if g.restoredTab != nil && g.restoredTab.Pool() != pool {
		g.restoredTab.Release()
		g.restoredTab = nil
	}
	if g.restoredTab == nil {
		base := qpage.FromFlat(rows, nActions, cp.Q, cp.Visits)
		base.Intern(pool)
		g.restoredTab = &base
	}
	g.tab = g.restoredTab.Clone()
}

// stateOf maps a utilisation into a band index.
func (g *MLDTM) stateOf(util float64) int {
	if util < 0 {
		util = 0
	}
	if util >= 1 {
		return g.UtilBands - 1
	}
	return int(util * float64(g.UtilBands))
}

// reward scores the previous epoch for one core: negative utilisation
// error plus a power penalty. No term involves the deadline — the
// controller cannot see it — but saturated utilisation is punished hard:
// a core pegged at ≈100 % busy means the workload no longer fits the
// clock, the same signal that makes Linux's ondemand jump to fmax. Without
// this term a too-slow operating point would look ideal (utilisation near
// target, power low) exactly when the application is being starved.
func (g *MLDTM) reward(util, powerW float64) float64 {
	powerNorm := powerW / g.MaxPowerW
	if powerNorm > 1 {
		powerNorm = 1
	}
	if util >= 0.97 {
		return -(2.0 + g.PowerWeight*powerNorm)
	}
	utilErr := math.Abs(util - g.TargetUtil)
	return -(utilErr + g.PowerWeight*powerNorm)
}

// Decide implements Governor: one Q-update per core from its own
// utilisation, then per-core ε-greedy action selection; the shared-clock
// cluster runs at the fastest per-core vote.
func (g *MLDTM) Decide(obs Observation) int {
	nActions := g.ctx.Table.Len()
	if obs.Epoch < 0 {
		g.lastAction = 0
		return 0
	}
	// Update every core's table on the epoch that just finished. The
	// bootstrap max is read before MutRow so a COW fault on the touched
	// page cannot perturb it — the values are the same pre-update ones
	// either way.
	for c := 0; c < g.ctx.NumCores; c++ {
		util := 0.0
		if c < len(obs.Util) {
			util = obs.Util[c]
		}
		r := g.reward(util, obs.PowerW)
		prev := g.row(c, g.lastState[c])
		sNow := g.stateOf(util)
		best := maxOf(g.tab.Row(g.row(c, sNow)))
		alpha := g.Alpha
		if g.AlphaDecayK > 0 {
			alpha = g.Alpha * g.AlphaDecayK / (g.AlphaDecayK + float64(g.tab.VRow(prev)[g.lastAction]))
		}
		qrow, vrow := g.tab.MutRow(prev)
		qrow[g.lastAction] = (1-alpha)*qrow[g.lastAction] + alpha*(r+g.Discount*best)
		vrow[g.lastAction]++
		// Sticky greedy refresh for the updated state: the only slot of
		// the convergence fingerprint this core's update can change.
		cur := g.greedy[prev]
		if am := argmaxOf(qrow); qrow[am] > qrow[cur]+g.GreedyMargin {
			g.greedy[prev] = am
		}
		g.tracker.RowUpdated(prev, sumOf(vrow), cur, g.greedy[prev])
		g.lastState[c] = sNow
	}

	// Per-core ε-greedy votes; the cluster takes the max.
	eps := g.Epsilon0 * math.Exp(-g.EpsilonDecay*float64(g.epoch))
	vote := 0
	explored := false
	if g.rng == nil {
		g.rng = xrand.New(g.ctx.Seed)
	}
	for c := 0; c < g.ctx.NumCores; c++ {
		var a int
		if g.rng.Float64() < eps {
			a = g.rng.Intn(nActions) // uniform exploration
			explored = true
		} else {
			a = g.greedy[g.row(c, g.lastState[c])]
		}
		if a > vote {
			vote = a
		}
	}
	if explored {
		g.explorations++
	}
	g.epoch++
	g.lastAction = vote
	g.tracker.Observe()
	return vote
}

// sumOf returns the total of a row's visit counts.
func sumOf(vs []int32) int {
	n := 0
	for _, v := range vs {
		n += int(v)
	}
	return n
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func argmaxOf(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

var _ Checkpointer = (*MLDTM)(nil)

func init() {
	Register("mldtm", func() Governor { return NewMLDTM() })
}
