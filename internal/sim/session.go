package sim

import (
	"fmt"

	"qgov/internal/governor"
	"qgov/internal/platform"
)

// Session is the epoch engine with the control loop inverted: instead of
// sim.Run owning the loop and calling the governor, the caller owns the
// loop and drives the engine one decision epoch at a time —
//
//	s := sim.NewSession(cfg)
//	for !s.Done() {
//	    s.Step(s.Decide())
//	}
//	res := s.Result()
//
// which is exactly what Run does. The inversion is what lets a governor be
// served from *outside* the simulator: an online controller (cmd/rtmd)
// reads Observe, chooses an operating point by whatever means it likes,
// and feeds the choice back through Step. On real hardware the RTM lives
// inside the OS and is fed one epoch's PMU/power/timing observation at a
// time; Session is that boundary made explicit.
//
// A Session is deterministic: the (Config, action sequence) pair fully
// determines every aggregate, which is what makes Snapshot/Restore exact
// (see Snapshot). A Session is not safe for concurrent use.
type Session struct {
	cfg      Config
	cluster  *platform.Cluster
	overhead float64

	res     *Result
	obs     governor.Observation
	prev    []platform.PMUSample
	cycles  []uint64
	utils   []float64
	sumPerf float64
	pos     int

	// pendingPredicted is the governor forecast captured by Decide for the
	// frame about to execute (recorded runs only).
	pendingPredicted float64
	// decidePending marks that the session's own governor was consulted
	// (and therefore advanced its learning state) since the last Step;
	// pendingChosen is the action it returned.
	decidePending bool
	pendingChosen int

	// Step provenance for Snapshot: the action applied each epoch and the
	// one the session's governor chose for it (-1 if not consulted) — a
	// driver may consult and then override (a cap, a floor), so the two
	// are logged separately.
	actions []int
	chosen  []int
}

// NewSession validates the configuration and prepares a session positioned
// before the first frame. Like Run it panics on configuration errors (nil
// governor, invalid trace, trace wider than the cluster) — those are
// harness bugs, not run-time conditions.
func NewSession(cfg Config) *Session {
	if cfg.Governor == nil {
		panic("sim: Config.Governor is nil")
	}
	if err := cfg.Trace.Validate(); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	cluster := cfg.Cluster
	if cluster == nil {
		cluster = platform.DefaultA15Cluster(cfg.Seed)
	}
	if cfg.Trace.Threads() > cluster.NumCores() {
		panic(fmt.Sprintf("sim: trace %q needs %d threads, cluster has %d cores",
			cfg.Trace.Name, cfg.Trace.Threads(), cluster.NumCores()))
	}

	cfg.Governor.Reset(governor.Context{
		Table:    cluster.Table(),
		NumCores: cluster.NumCores(),
		PeriodS:  cfg.Trace.RefTimeS,
		Seed:     cfg.Seed,
	})

	s := &Session{
		cfg:     cfg,
		cluster: cluster,
		res: &Result{
			Workload:     cfg.Trace.Name,
			Governor:     cfg.Governor.Name(),
			Frames:       cfg.Trace.Len(),
			Explorations: -1,
			ConvergedAt:  -1,
		},
		obs:              governor.Observation{Epoch: -1},
		prev:             make([]platform.PMUSample, cluster.NumCores()),
		cycles:           make([]uint64, cluster.NumCores()),
		utils:            make([]float64, cluster.NumCores()),
		pendingPredicted: nan(),
		actions:          make([]int, 0, cfg.Trace.Len()),
		chosen:           make([]int, 0, cfg.Trace.Len()),
	}
	if om, ok := cfg.Governor.(governor.OverheadModeler); ok {
		s.overhead = om.DecisionOverheadS()
	}
	if cfg.Record {
		s.res.Records = getRecords(cfg.Trace.Len())
	}
	for c := range s.prev {
		s.prev[c] = cluster.PMU(c).Read()
	}
	return s
}

// Observe returns the observation of the last completed epoch — exactly
// what a governor consumes to decide the next one. Before the first Step
// it carries Epoch == -1 and zero values, the same first-call contract
// governors already tolerate. The slices alias per-epoch scratch buffers:
// consume them before the next Step, do not retain them.
func (s *Session) Observe() governor.Observation { return s.obs }

// Decide consults the session's configured governor for the next epoch's
// operating-point index, advancing the governor's learning state. Callers
// driving decisions from outside (an online controller) skip Decide and
// pass their own index to Step. At most one Decide per Step: a governor
// performs its Q-update inside Decide, so deciding twice for one epoch
// would double-train it — a driver bug, so it panics.
func (s *Session) Decide() int {
	if s.decidePending {
		panic("sim: Decide called twice without an intervening Step")
	}
	if s.cfg.Record && s.pos > 0 {
		if tr, ok := s.cfg.Governor.(tracer); ok {
			s.pendingPredicted = maxFloat64s(tr.PredictedCC())
		}
	}
	s.decidePending = true
	s.pendingChosen = s.cfg.Governor.Decide(s.obs)
	return s.pendingChosen
}

// Governor returns the session's configured governor — after a run, the
// trained learner (for freezing via governor.Checkpointer, inspection,
// learning transfer).
func (s *Session) Governor() governor.Governor { return s.cfg.Governor }

// Done reports whether the trace is exhausted.
func (s *Session) Done() bool { return s.pos >= s.cfg.Trace.Len() }

// Epoch returns the number of completed epochs (the index of the next
// frame to execute).
func (s *Session) Epoch() int { return s.pos }

// Step executes the next frame at the given operating point and folds the
// epoch into the running aggregates: DVFS transition, execution, energy
// and thermal integration, then the observation assembly from what the OS
// could measure (PMU deltas, the sensor, the clock). It panics past the
// end of the trace.
func (s *Session) Step(oppIdx int) {
	if s.Done() {
		panic("sim: Step past the end of the trace")
	}
	frame := s.cfg.Trace.Frames[s.pos]
	transitionCost := s.cluster.SetOPP(oppIdx)
	rep := s.cluster.Execute(frame.Cycles, s.overhead+transitionCost, s.cfg.Trace.RefTimeS)

	for c := range s.cycles {
		smp := s.cluster.PMU(c).Read()
		d := smp.Delta(s.prev[c])
		s.prev[c] = smp
		s.cycles[c] = d.Cycles
		s.utils[c] = d.Utilization()
	}
	s.obs = governor.Observation{
		Epoch:     s.pos,
		Cycles:    s.cycles,
		Util:      s.utils,
		ExecTimeS: rep.ExecTimeS,
		PeriodS:   s.cfg.Trace.RefTimeS,
		WallTimeS: rep.WallTimeS,
		PowerW:    rep.SensorPowerW,
		TempC:     rep.EndTempC,
		OPPIdx:    rep.OPPIdx,
	}

	missed := rep.SlackS < 0
	if missed {
		s.res.Misses++
	}
	s.res.EnergyJ += rep.EnergyJ
	s.res.SensorEnergyJ += rep.SensorPowerW * rep.WallTimeS
	s.res.SimTimeS += rep.WallTimeS
	s.sumPerf += rep.ExecTimeS / s.cfg.Trace.RefTimeS

	if s.cfg.Record {
		rec := FrameRecord{
			Epoch:        s.pos,
			OPPIdx:       rep.OPPIdx,
			FreqMHz:      rep.OPP.FreqMHz,
			ExecTimeS:    rep.ExecTimeS,
			SlackRatio:   rep.SlackS / s.cfg.Trace.RefTimeS,
			EnergyJ:      rep.EnergyJ,
			AvgPowerW:    rep.AvgPowerW,
			SensorPowerW: rep.SensorPowerW,
			TempC:        rep.EndTempC,
			Missed:       missed,
			ActualCC:     float64(frame.MaxCycles()),
			PredictedCC:  s.pendingPredicted,
			AvgSlackL:    nan(),
			Epsilon:      nan(),
		}
		if tr, ok := s.cfg.Governor.(tracer); ok {
			rec.AvgSlackL = tr.SlackL()
			rec.Epsilon = tr.Epsilon()
		}
		s.res.Records = append(s.res.Records, rec)
	}

	s.actions = append(s.actions, oppIdx)
	if s.decidePending {
		s.chosen = append(s.chosen, s.pendingChosen)
	} else {
		s.chosen = append(s.chosen, -1)
	}
	s.decidePending = false
	s.pendingPredicted = nan()
	s.pos++
}

// Result finalises and returns the aggregates over the epochs completed so
// far; after the last Step it is exactly what Run returns. The returned
// value is live — it is refreshed by further Steps and Result calls.
func (s *Session) Result() *Result {
	if s.pos > 0 {
		s.res.NormPerf = s.sumPerf / float64(s.pos)
		s.res.MissRate = float64(s.res.Misses) / float64(s.pos)
	}
	if s.res.SimTimeS > 0 {
		s.res.MeanPowerW = s.res.EnergyJ / s.res.SimTimeS
	}
	s.res.Transitions = s.cluster.Transitions()
	s.res.FinalTempC = s.cluster.TempC()
	if ls, ok := s.cfg.Governor.(governor.LearningStats); ok {
		s.res.Explorations = ls.Explorations()
		s.res.ConvergedAt = ls.ConvergedAtEpoch()
		s.res.ExplorationsToConv = s.res.Explorations
		if curve, ok := s.cfg.Governor.(governor.ExplorationCurve); ok && s.res.ConvergedAt >= 0 {
			s.res.ExplorationsToConv = curve.ExplorationsAtConvergence()
		}
	}
	return s.res
}

// Snapshot captures the session's step history — every action taken and
// whether it came from the session's own governor. Together with the
// Config it fully determines the session state: the engine is
// deterministic, so RestoreSession replays the log against a fresh session
// and lands byte-identically where this one stands. The snapshot is plain
// data (JSON-serialisable) and O(epochs) small — it stores no cluster or
// governor internals, which is what keeps it exact across refactors of
// either.
type Snapshot struct {
	Workload string `json:"workload"`
	Governor string `json:"governor"`
	Seed     int64  `json:"seed"`
	// Actions holds the operating-point index applied each completed
	// epoch.
	Actions []int `json:"actions"`
	// Chosen holds, for each epoch, the action the session's governor
	// returned from Decide (advancing its learning state), or -1 when the
	// epoch was driven externally without consulting it. It can differ
	// from Actions when a driver consults and then overrides.
	Chosen []int `json:"chosen"`
}

// Snapshot returns the current step history (see the Snapshot type).
func (s *Session) Snapshot() Snapshot {
	return Snapshot{
		Workload: s.cfg.Trace.Name,
		Governor: s.cfg.Governor.Name(),
		Seed:     s.cfg.Seed,
		Actions:  append([]int(nil), s.actions...),
		Chosen:   append([]int(nil), s.chosen...),
	}
}

// RestoreSession rebuilds a session from a snapshot by replaying its step
// history against a fresh session of the given Config: epochs that
// consulted the governor re-run Decide (it is deterministic, so its
// learning state replays exactly — and its choice must reproduce the
// logged one, which catches a mismatched Config), then the logged applied
// action is re-stepped, so consult-and-override histories restore too.
// The Config must describe the same run the snapshot was taken from —
// same workload, governor construction and seed — or the restore is
// refused.
func RestoreSession(cfg Config, snap Snapshot) (*Session, error) {
	if len(snap.Actions) != len(snap.Chosen) {
		return nil, fmt.Errorf("sim: snapshot is inconsistent: %d actions, %d chosen entries",
			len(snap.Actions), len(snap.Chosen))
	}
	s := NewSession(cfg)
	if snap.Workload != s.cfg.Trace.Name || snap.Governor != s.cfg.Governor.Name() || snap.Seed != s.cfg.Seed {
		return nil, fmt.Errorf("sim: snapshot of %s/%s@%d does not match config %s/%s@%d",
			snap.Governor, snap.Workload, snap.Seed,
			s.cfg.Governor.Name(), s.cfg.Trace.Name, s.cfg.Seed)
	}
	if len(snap.Actions) > s.cfg.Trace.Len() {
		return nil, fmt.Errorf("sim: snapshot has %d epochs, trace %q has %d frames",
			len(snap.Actions), s.cfg.Trace.Name, s.cfg.Trace.Len())
	}
	for i, a := range snap.Actions {
		if want := snap.Chosen[i]; want >= 0 {
			if got := s.Decide(); got != want {
				return nil, fmt.Errorf("sim: snapshot diverged at epoch %d: governor chose %d, snapshot logged %d (different Config?)",
					i, got, want)
			}
		}
		s.Step(a)
	}
	return s, nil
}
