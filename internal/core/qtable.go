package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"qgov/internal/qpage"
)

// QTable is the look-up table of Section II-A: one row per discretised
// system state, one column per V-F action, holding the learnt long-term
// pay-off of taking that action in that state.
//
// InitQ seeds unvisited entries. A mildly pessimistic value (below the
// typical reward) makes the greedy policy prefer actions it has actually
// seen succeed, leaving exploration to the ε/EPD machinery where the paper
// puts it; an optimistic value (0 with negative rewards) would force a
// blind sweep of all 19 actions per state and inflate the exploration
// counts of Table II for every method alike.
//
// Storage is paged copy-on-write (internal/qpage): a table built through a
// pool shares immutable pages with every other table of identical content
// — all cold sessions on one platform, all sessions warm-started from one
// manifest — and Update copies only the touched page before its first
// write. rowVisits stays per-table: the convergence tracker reads it for
// every state on every decision, it is tiny, and keeping it private means
// the hot read path never consults the pool.
type QTable struct {
	states  int
	actions int
	tab     *qpage.Table
	// rowVisits caches per-state visit totals. The convergence tracker
	// reads RowVisits for every state on every decision, which made the
	// O(actions) sum the single hottest path of the decision service;
	// the cache turns it into a load.
	rowVisits []int
}

// NewQTable creates a table with every entry at initQ, with private
// (unshared) storage.
func NewQTable(states, actions int, initQ float64) *QTable {
	if states < 1 || actions < 1 {
		panic(fmt.Sprintf("core: QTable(%d states, %d actions)", states, actions))
	}
	return &QTable{
		states:    states,
		actions:   actions,
		tab:       qpage.New(states, actions, initQ),
		rowVisits: make([]int, states),
	}
}

// NewQTableShared creates a table with every entry at initQ whose pages
// are interned in pool: every table so created shares one uniform page
// until its first update faults a private copy.
func NewQTableShared(pool *qpage.Pool, states, actions int, initQ float64) *QTable {
	if states < 1 || actions < 1 {
		panic(fmt.Sprintf("core: QTable(%d states, %d actions)", states, actions))
	}
	return &QTable{
		states:    states,
		actions:   actions,
		tab:       pool.NewShared(states, actions, initQ),
		rowVisits: make([]int, states),
	}
}

// Clone returns a table sharing every pooled page of t (and deep-copying
// private ones) — how sessions warm-started from one interned base table
// come to share its storage.
func (t *QTable) Clone() *QTable {
	nt := &QTable{
		states:    t.states,
		actions:   t.actions,
		tab:       t.tab.Clone(),
		rowVisits: make([]int, t.states),
	}
	copy(nt.rowVisits, t.rowVisits)
	return nt
}

// Intern publishes t's pages into pool, deduplicating against identical
// content already there. Idempotent.
func (t *QTable) Intern(pool *qpage.Pool) { t.tab.Intern(pool) }

// Release returns t's pooled page references to the pool. The table is
// unusable afterwards; sessions call it exactly once, on delete.
func (t *QTable) Release() {
	if t.tab != nil {
		t.tab.Release()
	}
}

// recomputeRowVisits rebuilds the per-state cache from visits — the
// deserialisation paths call it after replacing the underlying storage.
func (t *QTable) recomputeRowVisits() {
	if len(t.rowVisits) != t.states {
		t.rowVisits = make([]int, t.states)
	}
	for s := 0; s < t.states; s++ {
		sum := 0
		for _, v := range t.tab.VRow(s) {
			sum += int(v)
		}
		t.rowVisits[s] = sum
	}
}

// States returns |S|.
func (t *QTable) States() int { return t.states }

// Actions returns |A|.
func (t *QTable) Actions() int { return t.actions }

// Q returns the value of (state, action).
func (t *QTable) Q(state, action int) float64 {
	t.check(state, action)
	return t.tab.Row(state)[action]
}

// Visits returns how many updates (state, action) has received.
func (t *QTable) Visits(state, action int) int {
	t.check(state, action)
	return int(t.tab.VRow(state)[action])
}

// RowVisits returns the total updates state has received across actions.
func (t *QTable) RowVisits(state int) int {
	if state < 0 || state >= t.states {
		panic(fmt.Sprintf("core: state %d outside [0,%d)", state, t.states))
	}
	return t.rowVisits[state]
}

// VisitTotal returns the total updates across all states and actions.
func (t *QTable) VisitTotal() int {
	n := 0
	for _, v := range t.rowVisits {
		n += v
	}
	return n
}

// Update applies Bellman's optimality equation (Eq. 3):
//
//	Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·max_a' Q(s', a'))
//
// where s' is the (predicted) next state. The bootstrap value is read
// before the row is made writable: if s' shares the touched page, the
// pre-update value is what Eq. 3 wants either way.
func (t *QTable) Update(state, action int, reward float64, nextState int, alpha, discount float64) {
	t.check(state, action)
	best := t.MaxQ(nextState)
	q, v := t.tab.MutRow(state)
	q[action] = (1-alpha)*q[action] + alpha*(reward+discount*best)
	v[action]++
	t.rowVisits[state]++
}

// UpdateSARSA applies the on-policy temporal-difference update:
//
//	Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·Q(s', a'))
//
// where a' is the action the policy has *actually chosen* for the next
// epoch — the SARSA variant of Eq. 3, kept for the on-policy ablation.
// Off-policy Q-learning bootstraps from the greedy value even while the
// ε/EPD machinery is still exploring, which inflates values reachable
// only through actions the final policy will not take; SARSA evaluates
// the policy being followed.
func (t *QTable) UpdateSARSA(state, action int, reward float64, nextState, nextAction int, alpha, discount float64) {
	t.check(state, action)
	next := t.Q(nextState, nextAction)
	q, v := t.tab.MutRow(state)
	q[action] = (1-alpha)*q[action] + alpha*(reward+discount*next)
	v[action]++
	t.rowVisits[state]++
}

// MaxQ returns max over actions of Q(state, ·).
func (t *QTable) MaxQ(state int) float64 {
	row := t.row(state)
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// BestAction returns argmax over actions of Q(state, ·); ties resolve to
// the lowest index (slowest V-F point, the energy-conservative choice).
func (t *QTable) BestAction(state int) int {
	row := t.row(state)
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// BestActionSticky returns the greedy action with hysteresis: the current
// action is kept unless a challenger beats it by more than margin. With
// stochastic rewards the Q-values of adjacent V-F points in a
// well-visited state hover within sampling noise of each other; without a
// dead-band the greedy choice flips indefinitely, which both thrashes the
// DVFS actuator and makes "the policy has stabilised" undetectable.
func (t *QTable) BestActionSticky(state, current int, margin float64) int {
	row := t.row(state)
	if current < 0 || current >= len(row) {
		return t.BestAction(state)
	}
	best := t.BestAction(state)
	if row[best] > row[current]+margin {
		return best
	}
	return current
}

// GreedyPolicy returns the best action for every state — the fingerprint
// the convergence tracker watches.
func (t *QTable) GreedyPolicy() []int {
	out := make([]int, t.states)
	for s := range out {
		out[s] = t.BestAction(s)
	}
	return out
}

// Row returns a copy of one state's action values.
func (t *QTable) Row(state int) []float64 {
	return append([]float64(nil), t.row(state)...)
}

// row returns a read-only view of one state's action values; the view may
// alias a shared page.
func (t *QTable) row(state int) []float64 {
	if state < 0 || state >= t.states {
		panic(fmt.Sprintf("core: state %d outside [0,%d)", state, t.states))
	}
	return t.tab.Row(state)
}

func (t *QTable) check(state, action int) {
	if state < 0 || state >= t.states || action < 0 || action >= t.actions {
		panic(fmt.Sprintf("core: (%d,%d) outside %dx%d table", state, action, t.states, t.actions))
	}
}

// qtableJSON is the serialisation schema for learning transfer. Decoding
// reads through it; encoding writes the same fields in the same order
// through appendJSON.
type qtableJSON struct {
	States  int       `json:"states"`
	Actions int       `json:"actions"`
	Q       []float64 `json:"q"`
	Visits  []int     `json:"visits"`
}

// appendJSON appends the table in the qtableJSON layout, byte for byte
// what encoding/json writes for it. The paged storage is written flat:
// the wire format is identical to the pre-paging layout. A non-finite
// Q-value is an error and leaves b unchanged.
func (t *QTable) appendJSON(b []byte) ([]byte, error) {
	out := append(b, `{"states":`...)
	out = strconv.AppendInt(out, int64(t.states), 10)
	out = append(out, `,"actions":`...)
	out = strconv.AppendInt(out, int64(t.actions), 10)
	out = append(out, `,"q":`...)
	out, err := t.tab.AppendQ(out)
	if err != nil {
		return b, err
	}
	out = append(out, `,"visits":`...)
	out = t.tab.AppendV(out)
	return append(out, '}'), nil
}

// MarshalJSON implements json.Marshaler, so a table embeds directly in
// larger checkpoint envelopes (governor.Checkpointer payloads).
func (t *QTable) MarshalJSON() ([]byte, error) {
	return t.appendJSON(nil)
}

// UnmarshalJSON implements json.Unmarshaler with the same validation Load
// applies: consistent dimensions, non-negative visit counts, and finite
// Q-values — a NaN or ±Inf entry would poison every max/argmax the policy
// computes from the row it lands in, so a corrupted table is rejected
// whole rather than imported.
func (t *QTable) UnmarshalJSON(b []byte) error {
	var j qtableJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.States < 1 || j.Actions < 1 || len(j.Q) != j.States*j.Actions || len(j.Visits) != len(j.Q) {
		return fmt.Errorf("core: Q-table is inconsistent (%d states, %d actions, %d values)",
			j.States, j.Actions, len(j.Q))
	}
	for i, q := range j.Q {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("core: Q-table is poisoned: Q(%d,%d) = %v", i/j.Actions, i%j.Actions, q)
		}
	}
	for i, v := range j.Visits {
		if v < 0 {
			return fmt.Errorf("core: Q-table is inconsistent: Visits(%d,%d) = %d", i/j.Actions, i%j.Actions, v)
		}
	}
	if t.tab != nil {
		// Re-unmarshalling into a live table must not strand pool refs.
		t.tab.Release()
	}
	t.states, t.actions = j.States, j.Actions
	t.tab = qpage.FromFlat(j.States, j.Actions, j.Q, j.Visits)
	t.recomputeRowVisits()
	return nil
}

// Save serialises the table as JSON. Together with Load it implements the
// learning-transfer capability of Shafik et al. (TCAD'16, the paper's ref
// [12]): a table learnt for one application run seeds the next, skipping
// the exploration phase.
func (t *QTable) Save(w io.Writer) error {
	b, err := t.appendJSON(availableBuffer(w))
	if err != nil {
		return fmt.Errorf("core: saving Q-table: %w", err)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("core: saving Q-table: %w", err)
	}
	return nil
}

// availableBuffer returns the spare capacity of w when w is a
// *bytes.Buffer, so an encoder appending into it and then writing the
// result back copies nothing and, with capacity to spare, allocates
// nothing. For any other writer it returns nil.
func availableBuffer(w io.Writer) []byte {
	if buf, ok := w.(*bytes.Buffer); ok {
		return buf.AvailableBuffer()
	}
	return nil
}

// Load restores a table saved with Save, rejecting inconsistent dimensions
// and non-finite Q-values (see UnmarshalJSON).
func Load(r io.Reader) (*QTable, error) {
	t := new(QTable)
	if err := json.NewDecoder(r).Decode(t); err != nil {
		return nil, fmt.Errorf("core: loading Q-table: %w", err)
	}
	return t, nil
}
