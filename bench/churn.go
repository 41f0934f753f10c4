package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve/client"
)

// churnSpecJSON is churn-routed's loadgen.Spec. The run's seed replaces
// its seed, and its horizon and storm times scale to the run length.
//
//go:embed workloads/churn-routed.json
var churnSpecJSON []byte

// churn replays a loadgen schedule — skewed bursty clients whose
// sessions live about twenty decides, plus two delete/re-create storms —
// against a router in front of two replicas. The benchmark dispatches
// the schedule itself (see lane.runOpen) instead of calling loadgen.Run,
// which times batches from when they are flushed rather than from when
// each decide was due.
type churn struct {
	ids     []string
	sched   []loadgen.Event // the whole schedule; event.ref indexes it
	bodies  [][]byte        // create bodies, by schedule index
	evs     [lanes][]event
	status  []int // served control statuses, by schedule index
	want    []int // oracle control statuses
	wantSum uint64
	liveEnd int
}

func churnSpec(seed int64, seconds float64) (loadgen.Spec, error) {
	var s loadgen.Spec
	dec := json.NewDecoder(bytes.NewReader(churnSpecJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("churn-routed spec: %w", err)
	}
	scale := seconds / s.HorizonS
	s.HorizonS = seconds
	for i := range s.Storms {
		s.Storms[i].AtS *= scale
	}
	s.Seed = seed
	return s, s.Validate()
}

func prepareChurn(seed int64, seconds float64) (instance, error) {
	spec, err := churnSpec(seed, seconds)
	if err != nil {
		return nil, err
	}
	return newChurn(spec)
}

func newChurn(spec loadgen.Spec) (*churn, error) {
	g, err := loadgen.New(spec)
	if err != nil {
		return nil, err
	}
	w := &churn{}
	index := map[string]int32{}
	for {
		ev, ok, err := g.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		s, seen := index[ev.Session]
		if !seen {
			s = int32(len(w.ids))
			index[ev.Session] = s
			w.ids = append(w.ids, ev.Session)
		}
		ref := int32(len(w.sched))
		var body []byte
		if ev.Op == loadgen.OpCreate {
			body = createBody(createRequest{ID: ev.Session, Governor: ev.Governor, Platform: ev.Platform, PeriodS: ev.PeriodS, Seed: ev.Seed})
		}
		w.sched = append(w.sched, ev)
		w.bodies = append(w.bodies, body)
		// A session stays on one lane, so its operations keep their order.
		w.evs[s%lanes] = append(w.evs[s%lanes], event{due: msGrid(ev.AtS), op: ev.Op, sess: s, ref: ref})
	}
	w.status = make([]int, len(w.sched))
	w.want = make([]int, len(w.sched))

	// The oracle: the same schedule, in order, through loadgen.Local.
	local := loadgen.NewLocal()
	out := make([]client.Decision, 1)
	for i := range w.sched {
		ev := &w.sched[i]
		switch ev.Op {
		case loadgen.OpCreate:
			st, _, err := local.CreateSession(w.bodies[i])
			if err != nil {
				return nil, err
			}
			w.want[i] = st
			if st == http.StatusCreated {
				w.liveEnd++
			}
		case loadgen.OpDelete:
			st, _, err := local.DeleteSession(ev.Session)
			if err != nil {
				return nil, err
			}
			w.want[i] = st
			if st == http.StatusNoContent {
				w.liveEnd--
			}
		case loadgen.OpDecide:
			if err := local.DecideBatch([]string{ev.Session}, []governor.Observation{ev.Obs}, out); err != nil {
				return nil, err
			}
			if out[0].Err == "" {
				w.wantSum += decideChecksum(ev.Session, ev.Obs.Epoch, out[0].OPPIdx)
			}
		}
	}
	return w, nil
}

func (w *churn) sessionIDs() []string                         { return w.ids }
func (w *churn) id(s int32) string                            { return w.ids[s] }
func (w *churn) observe(ev *event, dst *governor.Observation) { *dst = w.sched[ev.ref].Obs }
func (w *churn) decided(*event, client.Decision)              {}
func (w *churn) createBody(ev *event) []byte                  { return w.bodies[ev.ref] }
func (w *churn) controlled(ev *event, status int)             { w.status[ev.ref] = status }
func (w *churn) live() int                                    { return w.liveEnd }
func (w *churn) setup([]*lane) error                          { return nil }

func (w *churn) timed(ctx context.Context, e *env) error {
	return timedLanes(ctx, e, w.evs, w)
}

func (w *churn) check(e *env) error {
	var sum uint64
	for _, l := range e.lanes {
		sum += l.sum
	}
	if sum != w.wantSum {
		return fmt.Errorf("served checksum %016x, loadgen.Local gives %016x", sum, w.wantSum)
	}
	for i := range w.sched {
		if w.sched[i].Op != loadgen.OpDecide && w.status[i] != w.want[i] {
			return fmt.Errorf("%s %s at %.3fs: served status %d, loadgen.Local gives %d",
				w.sched[i].Op, w.sched[i].Session, w.sched[i].AtS, w.status[i], w.want[i])
		}
	}
	return nil
}
