package core

import (
	"fmt"
	"qgov/internal/governor"
	"qgov/internal/predictor"
	"qgov/internal/xrand"
)

// Mode selects the many-core learning organisation of Section II-D.
type Mode int

const (
	// SharedTable is the paper's formulation: one Q-table shared by all
	// cores, updated by one core per decision epoch in round-robin order.
	// Every core's experience trains the same table, so learning converges
	// in roughly half the epochs of independent learners (Table III).
	SharedTable Mode = iota
	// PerCoreTables gives every core an independent Q-table under the same
	// one-update-per-epoch budget: control rotates round-robin and each
	// epoch's pay-off trains only its controller's table. This is the
	// organisation of conventional multi-core learners; the A4 ablation
	// isolates the shared-table benefit against it.
	PerCoreTables
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case SharedTable:
		return "shared"
	case PerCoreTables:
		return "per-core"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterises the RTM. DefaultConfig returns the values used in
// the paper's experiments; zero-value fields in a caller-built Config are
// not defaulted — construct via DefaultConfig and override.
type Config struct {
	Levels int     // N discretisation levels (paper: 5)
	Alpha  float64 // initial Q-learning rate α (Eq. 3)
	// AlphaDecayK decays the learning rate per state-action visit count v
	// as α·K/(K+v) — the Robbins-Monro schedule that lets Q-values (and
	// with them the greedy policy) actually converge under stochastic
	// rewards. 0 keeps α constant.
	AlphaDecayK float64
	Discount    float64 // future-payoff discount γ (Eq. 3)
	EWMAGamma   float64 // workload smoothing factor γ (Eq. 1; paper: 0.6)
	SlackWindow int     // D of Eq. 5; 0 averages from the application start
	InitQ       float64 // initial Q-value (see QTable)
	OverheadS   float64 // per-decision processing cost charged as T_OVH

	Reward  *Reward
	Policy  ExplorationPolicy
	Epsilon *EpsilonSchedule

	Mode Mode
	// OnPolicy switches the Bellman update to SARSA: the bootstrap uses
	// the action actually selected for the next epoch instead of the
	// greedy maximum. Supported in SharedTable mode (the ablation's
	// subject); ignored under PerCoreTables.
	OnPolicy bool
	// GreedyMargin is the hysteresis dead-band of the greedy policy: a
	// challenger action must beat the incumbent's Q-value by this much to
	// take over (see QTable.BestActionSticky).
	GreedyMargin float64
	// UseNormalizedState switches the workload state dimension to the
	// Eq. 7 normalised per-core share (range [0, 2]) instead of the
	// absolute calibrated cycle count.
	UseNormalizedState bool
	// StableEpochs configures convergence detection.
	StableEpochs int
	// Transfer optionally seeds the Q-table from a previous run
	// (learning transfer, ref [12]). Its dimensions must match.
	Transfer *QTable
}

// DefaultConfig returns the experiment configuration: N = 5, α = 0.5,
// γ_discount = 0.9, EWMA γ = 0.6, EPD exploration, shared table.
func DefaultConfig() Config {
	return Config{
		Levels:       5,
		Alpha:        0.40,
		AlphaDecayK:  25,
		Discount:     0.90,
		EWMAGamma:    0.6,
		SlackWindow:  15,
		InitQ:        -1,
		OverheadS:    120e-6,
		Reward:       NewReward(),
		Policy:       NewExponentialPolicy(),
		Epsilon:      NewEpsilonSchedule(),
		Mode:         SharedTable,
		GreedyMargin: 0.12,
		StableEpochs: 25,
	}
}

// RTM is the paper's run-time manager: a Q-learning power governor that
// predicts the next epoch's workload (EWMA, Eq. 1), classifies it with the
// current average slack ratio into a discrete state (Section II-A),
// selects a V-F action (EPD exploration, Eq. 2, under an ε schedule,
// Eq. 6; greedy exploitation otherwise) and updates the Q-table with the
// slack-derived pay-off (Eqs. 3–5). It implements governor.Governor.
type RTM struct {
	cfg   Config
	space *StateSpace

	ctx governor.Context
	// rng is built lazily on the first ε draw: even at xrand's 8-byte
	// state a freshly created session that has never decided should not
	// pay the allocation. Laziness is stream-identical — no draw happens
	// between Reset and the first selectAction either way.
	rng        *xrand.Rand
	tables     []*QTable // one (shared) or NumCores (per-core)
	greedy     [][]int   // sticky greedy choice per table, per state
	preds      []predictor.EWMA
	slack      *SlackTracker
	tracker    *governor.ConvergenceTracker
	normFreq   []float64 // per-action normalised frequency (Eq. 2 axis)
	prevState  []int     // per table
	prevAction int
	lastCtrl   int // controller of the epoch in flight (per-core mode)
	epoch      int

	// Per-epoch scratch, reused so Decide allocates nothing in steady
	// state.
	fpScratch   []int
	predScratch []float64

	explorations  int
	exploredPairs []uint64 // distinct (table, state, action) experiments, one bit each
	// explRing holds the cumulative exploration count after each of the
	// last tracker-window epochs, at epoch % len(explRing). The tracker's
	// convergence epoch is the start of its current window, so it always
	// lies inside the ring when it is set; explAtConv latches the count
	// there, and per-session state stays O(1) however long the session
	// decides.
	explRing   []int32
	convAt     int // tracker.ConvergedAt() as of the last latch
	explAtConv int
	calibrated bool
	ccSeen     bool // auto-ranging primed

	// restored is the staged Checkpointer state; Reset applies it (see
	// LoadState in checkpoint.go).
	restored *rtmCheckpoint
}

// New constructs an RTM from the configuration.
func New(cfg Config) *RTM {
	if cfg.Levels < 2 {
		panic(fmt.Sprintf("core: RTM needs at least 2 levels, got %d", cfg.Levels))
	}
	if cfg.Reward == nil || cfg.Policy == nil || cfg.Epsilon == nil {
		panic("core: RTM config missing Reward/Policy/Epsilon (use DefaultConfig)")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 || cfg.Discount < 0 || cfg.Discount >= 1 {
		panic(fmt.Sprintf("core: RTM alpha=%v discount=%v out of range", cfg.Alpha, cfg.Discount))
	}
	return &RTM{cfg: cfg, space: NewStateSpace(cfg.Levels)}
}

// Name implements governor.Governor.
func (r *RTM) Name() string {
	if r.cfg.Policy.Name() == "upd" {
		return "updrl"
	}
	if r.cfg.Mode == PerCoreTables {
		return "rtm-percore"
	}
	if r.cfg.OnPolicy {
		return "rtm-sarsa"
	}
	return "rtm"
}

// DecisionOverheadS implements governor.OverheadModeler.
func (r *RTM) DecisionOverheadS() float64 { return r.cfg.OverheadS }

// Explorations implements governor.LearningStats. Following the
// visit-based exploration accounting of Shen et al. (ref [21], the
// Table II baseline), it counts *distinct state-action experiments*: the
// number of (state, action) pairs the policy has tried exploratorily.
// Re-trying a pair refines its Q estimate but is not a new exploration.
// This is the quantity the EPD/UPD comparison turns on — uniform selection
// spreads trials across the whole 19-point ladder in every state, while
// the slack-directed EPD concentrates on the candidates that can matter.
func (r *RTM) Explorations() int { return r.explorations }

// ExplorationsAtConvergence implements governor.ExplorationCurve: the
// cumulative exploration count after the epoch ConvergedAtEpoch reports.
// It is meaningful only while ConvergedAtEpoch is non-negative.
func (r *RTM) ExplorationsAtConvergence() int { return r.explAtConv }

// ConvergedAtEpoch implements governor.LearningStats.
func (r *RTM) ConvergedAtEpoch() int { return r.tracker.ConvergedAt() }

// Epsilon implements governor.ExplorationStats: the current exploration
// probability.
func (r *RTM) Epsilon() float64 { return r.cfg.Epsilon.Epsilon() }

// VisitTotal implements governor.ExplorationStats: total state–action
// visits across the value tables.
func (r *RTM) VisitTotal() int {
	n := 0
	for _, t := range r.tables {
		n += t.VisitTotal()
	}
	return n
}

// ConvergedFraction implements governor.ExplorationStats: the fraction
// of states whose greedy action has held for the convergence window.
func (r *RTM) ConvergedFraction() float64 { return r.tracker.StableFraction() }

// SlackL returns the current average slack ratio L (for tracing).
func (r *RTM) SlackL() float64 { return r.slack.L() }

// PredictedCC returns the current per-core workload forecasts (for
// tracing and the Fig. 3 series).
func (r *RTM) PredictedCC() []float64 {
	out := make([]float64, len(r.preds))
	for i := range r.preds {
		out[i] = r.preds[i].Predict()
	}
	return out
}

// predictInto fills the scratch buffer with the per-core forecasts — the
// allocation-free PredictedCC the decision path uses.
func (r *RTM) predictInto(dst []float64) []float64 {
	dst = dst[:len(r.preds)]
	for i := range r.preds {
		dst[i] = r.preds[i].Predict()
	}
	return dst
}

// Table returns the shared Q-table (or core 0's in per-core mode), for
// learning transfer and inspection.
func (r *RTM) Table() *QTable { return r.tables[0] }

// Calibrate sets the workload state range from a pre-characterisation
// series of per-epoch critical-path cycle counts (the paper's design-space
// exploration). Without it the RTM auto-ranges online.
func (r *RTM) Calibrate(cycleCounts []float64) error {
	if err := r.space.Calibrate(cycleCounts); err != nil {
		return err
	}
	r.calibrated = true
	return nil
}

// releaseTables returns every pooled page reference the current tables
// hold. Safe on nil and on partially built slices.
func (r *RTM) releaseTables() {
	for _, t := range r.tables {
		if t != nil {
			t.Release()
		}
	}
}

// ReleaseState implements governor.StateReleaser: the serving tier calls
// it once on session delete so shared pages return to the pool. The
// staged checkpoint's tables are released too — they were interned on
// first apply (see applyRestored) and hold references of their own.
func (r *RTM) ReleaseState() {
	r.releaseTables()
	r.tables = nil
	if r.restored != nil {
		for _, t := range r.restored.Tables {
			if t != nil {
				t.Release()
			}
		}
		r.restored = nil
	}
}

// Reset implements governor.Governor.
func (r *RTM) Reset(ctx governor.Context) {
	r.ctx = ctx
	r.rng = nil // rebuilt lazily from ctx.Seed on the first ε draw
	nTables := 1
	if r.cfg.Mode == PerCoreTables {
		nTables = ctx.NumCores
	}
	nStates := r.space.NumStates()
	nActions := ctx.Table.Len()
	r.releaseTables()
	r.tables = make([]*QTable, nTables)
	if r.restored != nil {
		// A staged checkpoint outranks Config.Transfer: it carries visit
		// counts and the state-space range as well as the Q-values.
		r.applyRestored(nStates, nActions)
	} else {
		for i := range r.tables {
			switch {
			case r.cfg.Transfer != nil:
				if r.cfg.Transfer.States() != nStates || r.cfg.Transfer.Actions() != nActions {
					panic(fmt.Sprintf("core: transfer table is %dx%d, need %dx%d",
						r.cfg.Transfer.States(), r.cfg.Transfer.Actions(), nStates, nActions))
				}
				// Copy so concurrent runs cannot share mutable state.
				t := NewQTable(nStates, nActions, 0)
				for s := 0; s < nStates; s++ {
					row, _ := t.tab.MutRow(s)
					for a := range row {
						row[a] = r.cfg.Transfer.Q(s, a)
					}
				}
				r.tables[i] = t
			case ctx.QPool != nil:
				// Cold start through the pool: every cold session on this
				// platform references the same uniform InitQ page until
				// its first update faults a private copy.
				r.tables[i] = NewQTableShared(ctx.QPool, nStates, nActions, r.cfg.InitQ)
			default:
				r.tables[i] = NewQTable(nStates, nActions, r.cfg.InitQ)
			}
		}
	}
	r.preds = make([]predictor.EWMA, ctx.NumCores)
	for i := range r.preds {
		r.preds[i] = *predictor.NewEWMA(r.cfg.EWMAGamma)
	}
	r.greedy = make([][]int, nTables)
	for i := range r.greedy {
		g := make([]int, nStates)
		for s := range g {
			g[s] = r.tables[i].BestAction(s)
		}
		r.greedy[i] = g
	}
	r.slack = NewSlackTracker(r.cfg.SlackWindow)
	r.cfg.Epsilon.Reset()
	if r.restored != nil {
		r.cfg.Epsilon.Restore(r.restored.Epsilon, r.restored.EpsEpoch)
	}
	r.tracker = governor.NewConvergenceTracker(r.cfg.StableEpochs)
	// Two flips per window: one for a state crossing the visit threshold
	// into the fingerprint, one for a genuine late adjustment.
	r.tracker.MaxFlips = 2
	if ctx.NormFreq != nil {
		r.normFreq = ctx.NormFreq // shared read-only precompute
	} else {
		r.normFreq = ctx.Table.NormFreqs()
	}
	r.fpScratch = make([]int, 0, nTables*nStates)
	r.predScratch = make([]float64, ctx.NumCores)
	r.prevState = make([]int, nTables)
	r.prevAction = 0
	r.lastCtrl = 0
	r.epoch = 0
	r.explorations = 0
	r.exploredPairs = make([]uint64, (nTables*nStates*nActions+63)/64)
	r.explRing = make([]int32, r.tracker.StableEpochs)
	r.convAt = -1
	r.explAtConv = 0
	r.ccSeen = false
	if r.restored != nil && r.restored.CCMax > r.restored.CCMin {
		// The restored tables were trained against the checkpointed range:
		// auto-ranging may refine it from here but must not re-prime over
		// it, which would re-quantise every restored row.
		r.ccSeen = true
	}
	if r.cfg.UseNormalizedState {
		// The Eq. 7 share is dimensionless: balanced work sits at 1.0,
		// the busiest possible core at NumCores. [0, 2] covers everything
		// short of pathological single-thread pile-ups, which clamp.
		r.space.CCMin, r.space.CCMax = 0, 2
		r.calibrated = true
	}
}

// Decide implements governor.Governor. Called at time t_i, it performs the
// three RTM duties of Section II: (1) compute the pay-off for the epoch
// that ended, (2) update the Q-table for its state-action, (3) predict the
// next state and select its action.
func (r *RTM) Decide(obs governor.Observation) int {
	if obs.Epoch < 0 {
		// Nothing executed yet: no pay-off, no prediction. Start from the
		// slowest point like the reset platform.
		r.prevAction = 0
		return 0
	}

	// (1) Pay-off for [t_{i-1}, t_i] from the measured completion time.
	// The reward tracks the *averaged* slack ratio L (Eq. 4-5); the state
	// and the EPD bias use the epoch's *own* slack ratio. The averaged L
	// moves a quantisation level only after ~Window epochs — beyond the
	// discount horizon 1/(1−γ) — so a state built on it cannot propagate
	// credit for steering toward the target; the instantaneous ratio
	// responds to the previous action within one epoch.
	l := r.slack.Observe(obs.ExecTimeS, obs.PeriodS)
	inst := r.slack.LastRatio()
	reward := r.cfg.Reward.Score(l, r.slack.DeltaL(), inst)

	// Feed the workload predictors with this epoch's actual demand.
	for c := range r.preds {
		if c < len(obs.Cycles) {
			r.preds[c].Observe(float64(obs.Cycles[c]))
		}
	}
	r.autoRange(obs)

	// (2)+(3) depend on the learning organisation.
	var action int
	switch r.cfg.Mode {
	case SharedTable:
		action = r.decideShared(inst, reward)
	case PerCoreTables:
		action = r.decidePerCore(inst, reward)
	default:
		panic(fmt.Sprintf("core: unknown mode %v", r.cfg.Mode))
	}

	r.explRing[r.epoch%len(r.explRing)] = int32(r.explorations)

	// ε advances on the epoch's own slack error plus the learning-progress
	// signal: a quiet greedy policy accelerates the decay (Eq. 6's purpose
	// — hand over to exploitation once learning stops moving). This is
	// where EPD earns its Table II advantage: slack-directed exploration
	// ranks the useful actions sooner, the policy goes quiet sooner, and ε
	// collapses with it.
	r.tracker.Observe(r.greedyFingerprint())
	r.cfg.Epsilon.Advance(inst-r.cfg.Reward.Target, r.tracker.Quiet())
	if c := r.tracker.ConvergedAt(); c != r.convAt {
		r.convAt = c
		if c >= 0 {
			r.explAtConv = int(r.explRing[c%len(r.explRing)])
		}
	}
	r.epoch++
	r.prevAction = action
	return action
}

// decideShared performs the paper's shared-table step: one Q-update per
// epoch lands in the single shared table and one action controls the
// cluster. The workload dimension of the state is the *critical* (largest)
// per-core forecast — the demand the deadline actually binds on; under
// UseNormalizedState it is the round-robin controlling core's Eq. 7 share,
// the paper's literal many-core formulation.
func (r *RTM) decideShared(slack, reward float64) int {
	ctrl := -1 // critical-core state
	if r.cfg.UseNormalizedState {
		ctrl = r.epoch % r.ctx.NumCores
	}
	next := r.stateFor(ctrl, slack)
	if r.cfg.OnPolicy {
		// SARSA: choose the next action first, then bootstrap from it.
		action := r.selectAction(0, next, slack)
		alpha := r.effectiveAlpha(0, r.prevState[0], r.prevAction)
		r.tables[0].UpdateSARSA(r.prevState[0], r.prevAction, reward, next, action, alpha, r.cfg.Discount)
		r.refreshGreedy(0, r.prevState[0])
		r.prevState[0] = next
		return action
	}
	r.updateTable(0, r.prevState[0], r.prevAction, reward, next)
	r.prevState[0] = next
	return r.selectAction(0, next, slack)
}

// effectiveAlpha computes the visit-decayed learning rate for a pair.
func (r *RTM) effectiveAlpha(t, state, action int) float64 {
	if r.cfg.AlphaDecayK <= 0 {
		return r.cfg.Alpha
	}
	v := float64(r.tables[t].Visits(state, action))
	return r.cfg.Alpha * r.cfg.AlphaDecayK / (r.cfg.AlphaDecayK + v)
}

// refreshGreedy re-evaluates the sticky greedy choice of one state.
func (r *RTM) refreshGreedy(t, state int) {
	r.greedy[t][state] = r.tables[t].BestActionSticky(state, r.greedy[t][state], r.cfg.GreedyMargin)
}

// decidePerCore runs the rotating independent-table scheme: the epoch's
// pay-off trains the table of the core that chose the action, then control
// passes to the next core, which decides from its own table. Each table
// sees a quarter of the experience the shared table gets — the learning
// handicap Section II-D's design removes.
func (r *RTM) decidePerCore(slack, reward float64) int {
	last := r.lastCtrl
	nextLast := r.stateFor(last, slack)
	r.updateTable(last, r.prevState[last], r.prevAction, reward, nextLast)
	r.prevState[last] = nextLast

	ctrl := r.epoch % r.ctx.NumCores
	next := r.stateFor(ctrl, slack)
	r.prevState[ctrl] = next
	r.lastCtrl = ctrl
	return r.selectAction(ctrl, next, slack)
}

// stateFor maps a predicted workload and the measured slack into a Q-table
// row. c >= 0 selects core c's forecast (Eq. 7 share under
// UseNormalizedState); c < 0 selects the cluster-critical forecast, the
// max across cores.
func (r *RTM) stateFor(c int, slack float64) int {
	var cc float64
	switch {
	case c < 0:
		for i := range r.preds {
			if v := r.preds[i].Predict(); v > cc {
				cc = v
			}
		}
	case r.cfg.UseNormalizedState:
		cc = NormalizeInPlace(r.predictInto(r.predScratch))[c]
	default:
		cc = r.preds[c].Predict()
	}
	return r.space.StateOf(cc, slack)
}

// updateTable applies the Bellman update with the visit-decayed learning
// rate and refreshes the updated state's sticky greedy choice.
func (r *RTM) updateTable(t, state, action int, reward float64, nextState int) {
	alpha := r.effectiveAlpha(t, state, action)
	r.tables[t].Update(state, action, reward, nextState, alpha, r.cfg.Discount)
	r.refreshGreedy(t, state)
}

// selectAction picks explore-vs-exploit and counts explorations.
func (r *RTM) selectAction(t, state int, l float64) int {
	a, explored := r.selectActionNoCount(t, state, l)
	if explored {
		r.explorations++
	}
	return a
}

func (r *RTM) selectActionNoCount(t, state int, l float64) (int, bool) {
	if r.rng == nil {
		r.rng = xrand.New(r.ctx.Seed)
	}
	if r.rng.Float64() < r.cfg.Epsilon.Epsilon() {
		a := r.cfg.Policy.Sample(r.rng, r.tables[t].Actions(), l, r.normFreq)
		key := (t*r.space.NumStates()+state)*r.tables[t].Actions() + a
		if r.exploredPairs[key>>6]&(1<<uint(key&63)) == 0 {
			r.exploredPairs[key>>6] |= 1 << uint(key&63)
			return a, true // a new experiment
		}
		return a, false // a repeat visit, not a new exploration
	}
	return r.greedy[t][state], false
}

// greedyFingerprint concatenates the sticky greedy policies of all tables,
// masking states with fewer than minRowVisits updates: an under-sampled
// row has not learnt anything yet, so its (still essentially random)
// greedy choice flipping must not count as "the policy is still moving".
// A state entering the fingerprint as it crosses the threshold costs one
// tolerated flip.
func (r *RTM) greedyFingerprint() []int {
	const minRowVisits = 20
	out := r.fpScratch[:0]
	for ti, g := range r.greedy {
		for s, a := range g {
			if r.tables[ti].RowVisits(s) < minRowVisits {
				out = append(out, -1)
			} else {
				out = append(out, a)
			}
		}
	}
	r.fpScratch = out
	return out
}

func init() {
	governor.Register("rtm", func() governor.Governor { return New(DefaultConfig()) })
	governor.Register("rtm-percore", func() governor.Governor {
		cfg := DefaultConfig()
		cfg.Mode = PerCoreTables
		return New(cfg)
	})
	governor.Register("updrl", func() governor.Governor {
		cfg := DefaultConfig()
		cfg.Policy = UniformPolicy{}
		return New(cfg)
	})
}

// autoRange maintains the workload state range when no pre-characterisation
// was supplied: the observed critical-path demand expands the range as
// needed (quantisation boundaries shift while learning, which is why the
// paper prefers offline calibration; the experiments call Calibrate).
func (r *RTM) autoRange(obs governor.Observation) {
	if r.calibrated || r.cfg.UseNormalizedState {
		return
	}
	cc := float64(obs.MaxCycles())
	if cc <= 0 {
		return
	}
	if !r.ccSeen {
		r.space.CCMin, r.space.CCMax = cc*0.5, cc*1.5
		r.ccSeen = true
		return
	}
	if cc < r.space.CCMin {
		r.space.CCMin = cc * 0.95
	}
	if cc > r.space.CCMax {
		r.space.CCMax = cc * 1.05
	}
}
