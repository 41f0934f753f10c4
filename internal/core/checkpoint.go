package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"qgov/internal/governor"
	"qgov/internal/qpage"
)

// The RTM family (rtm, rtm-percore, rtm-sarsa, updrl) checkpoints through
// one envelope: the learning organisation and exploration policy are
// configuration, not state, so the same format serves them all.
var _ governor.Checkpointer = (*RTM)(nil)

// rtmCheckpoint is the RTM's governor.Checkpointer payload: the value
// tables with their visit counts (the visit-decayed learning rate resumes
// where it left off), the workload state-space range the tables were
// trained against (Q-table rows are meaningless under a different
// quantisation), and the ε schedule's position (a trained manager resumes
// exploitation, not the hold-then-decay exploration phase). LoadState
// decodes through it; SaveState writes the same fields in the same order
// through appendState.
type rtmCheckpoint struct {
	Kind       string    `json:"kind"`
	Version    int       `json:"version"`
	Mode       string    `json:"mode"`
	Levels     int       `json:"levels"`
	CCMin      float64   `json:"cc_min"`
	CCMax      float64   `json:"cc_max"`
	Calibrated bool      `json:"calibrated"`
	Epsilon    float64   `json:"epsilon"`
	EpsEpoch   int       `json:"epsilon_epoch"`
	Tables     []*QTable `json:"tables"`
}

// SaveState implements governor.Checkpointer. The output is byte for byte
// what encoding/json's Encoder writes for rtmCheckpoint, newline included;
// it is built by appending, into w's spare capacity when w is a
// *bytes.Buffer, so a checkpoint sweep reusing one buffer allocates
// nothing per session. On error nothing is written.
func (r *RTM) SaveState(w io.Writer) error {
	if len(r.tables) == 0 {
		return fmt.Errorf("core: RTM has not run yet, nothing to save")
	}
	b, err := r.appendState(availableBuffer(w))
	if err != nil {
		return fmt.Errorf("core: saving RTM state: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: saving RTM state: %w", err)
	}
	return nil
}

// appendState appends the rtmCheckpoint encoding of the current state.
func (r *RTM) appendState(b []byte) ([]byte, error) {
	b = append(b, `{"kind":"rtm","version":1,"mode":"`...)
	b = append(b, r.cfg.Mode.String()...)
	b = append(b, `","levels":`...)
	b = strconv.AppendInt(b, int64(r.cfg.Levels), 10)
	b = append(b, `,"cc_min":`...)
	b, err := qpage.AppendFloat(b, r.space.CCMin)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"cc_max":`...)
	if b, err = qpage.AppendFloat(b, r.space.CCMax); err != nil {
		return nil, err
	}
	b = append(b, `,"calibrated":`...)
	b = strconv.AppendBool(b, r.calibrated)
	b = append(b, `,"epsilon":`...)
	if b, err = qpage.AppendFloat(b, r.eps.Epsilon()); err != nil {
		return nil, err
	}
	b = append(b, `,"epsilon_epoch":`...)
	b = strconv.AppendInt(b, int64(r.eps.Epoch()), 10)
	b = append(b, `,"tables":[`...)
	for i := range r.tables {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = r.tables[i].appendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, "]}\n"...), nil
}

// LoadState implements governor.Checkpointer: it validates and stages the
// checkpoint; every subsequent Reset applies it (taking precedence over
// Config.Transfer). Table dimensions are checked against the governor's
// configuration here and against the run's platform at Reset, which panics
// on a mismatch exactly as Config.Transfer does.
func (r *RTM) LoadState(rd io.Reader) error {
	var cp rtmCheckpoint
	if err := json.NewDecoder(rd).Decode(&cp); err != nil {
		return fmt.Errorf("core: loading RTM state: %w", err)
	}
	if cp.Kind != "rtm" {
		return fmt.Errorf("core: checkpoint is %q state, not rtm", cp.Kind)
	}
	if cp.Version != 1 {
		return fmt.Errorf("core: unsupported rtm checkpoint version %d", cp.Version)
	}
	if cp.Mode != r.cfg.Mode.String() {
		return fmt.Errorf("core: checkpoint was trained in %s mode, governor is configured %s", cp.Mode, r.cfg.Mode)
	}
	if cp.Levels != r.cfg.Levels {
		return fmt.Errorf("core: checkpoint has %d discretisation levels, governor is configured with %d", cp.Levels, r.cfg.Levels)
	}
	if len(cp.Tables) == 0 {
		return fmt.Errorf("core: checkpoint holds no tables")
	}
	nStates := r.space.NumStates()
	for i, t := range cp.Tables {
		if t == nil {
			return fmt.Errorf("core: checkpoint table %d is null", i)
		}
		if t.States() != nStates {
			return fmt.Errorf("core: checkpoint table %d is %dx%d, need %d states for N=%d",
				i, t.States(), t.Actions(), nStates, cp.Levels)
		}
		if t.Actions() != cp.Tables[0].Actions() {
			return fmt.Errorf("core: checkpoint tables disagree on action count")
		}
	}
	if math.IsNaN(cp.Epsilon) || cp.Epsilon < 0 || cp.Epsilon > 1 {
		return fmt.Errorf("core: checkpoint epsilon %v outside [0,1]", cp.Epsilon)
	}
	if cp.EpsEpoch < 0 {
		return fmt.Errorf("core: checkpoint epsilon epoch %d is negative", cp.EpsEpoch)
	}
	if cp.Calibrated && !(cp.CCMax > cp.CCMin) {
		return fmt.Errorf("core: checkpoint workload range [%v, %v] is degenerate", cp.CCMin, cp.CCMax)
	}
	r.restored = &cp
	return nil
}

// applyRestored builds the run's tables from a staged checkpoint. It is
// called from Reset once the run's dimensions are known.
//
// With a page pool in the Context the staged tables are interned on first
// apply and the live tables are clones sharing their pages: a thousand
// sessions warm-started from one manifest carry one copy of the trained
// values between them (the intern is content-addressed, so even separate
// decodes of the same manifest land on the same pooled pages). Without a
// pool the live tables are private deep copies, the pre-pool behaviour.
func (r *RTM) applyRestored(pool *qpage.Pool, nStates, nActions int) {
	cp := r.restored
	if len(cp.Tables) != len(r.tables) {
		panic(fmt.Sprintf("core: checkpoint holds %d tables, %s mode on this cluster needs %d",
			len(cp.Tables), r.cfg.Mode, len(r.tables)))
	}
	for i, src := range cp.Tables {
		if src.States() != nStates || src.Actions() != nActions {
			panic(fmt.Sprintf("core: checkpoint table is %dx%d, need %dx%d",
				src.States(), src.Actions(), nStates, nActions))
		}
		if pool != nil && (src.tab.Pool() == nil || src.tab.Pool() == pool) {
			src.Intern(pool) // idempotent after the first Reset
			r.tables[i] = src.clone()
			continue
		}
		dst := &r.tables[i]
		dst.tab = qpage.New(nStates, nActions, 0)
		for s := 0; s < nStates; s++ {
			q, v := dst.tab.MutRow(s)
			copy(q, src.tab.Row(s))
			copy(v, src.tab.VRow(s))
		}
		dst.visits = src.visits
	}
	r.space.CCMin, r.space.CCMax = cp.CCMin, cp.CCMax
	r.calibrated = cp.Calibrated
}
