package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve/client"
	"qgov/internal/strhash"
)

// maxBatch caps one DecideBatch of the open-loop dispatcher.
const maxBatch = 1024

// event is one scheduled operation of an open-loop lane. due is measured
// from the start of the timed phase and sits on the 1 ms grid.
type event struct {
	due  time.Duration
	op   loadgen.Op
	sess int32 // index into the workload's session ids
	ref  int32 // workload-defined: frame, epoch or schedule index
}

// msGrid rounds a schedule time (seconds, exact to the microsecond) up
// onto the 1 ms grid, so nothing is ever due before its scheduled time.
func msGrid(s float64) time.Duration {
	us := int64(math.Round(s * 1e6))
	return time.Duration((us+999)/1000) * time.Millisecond
}

// source is a workload as an open-loop lane sees it: how to fill each
// event's request and what to do with its reply.
type source interface {
	id(sess int32) string
	observe(ev *event, dst *governor.Observation)
	decided(ev *event, d client.Decision)
	createBody(ev *event) []byte
	controlled(ev *event, status int)
}

// lane is one generator goroutine: its connection (one per target) and
// its preallocated batch scratch and sample buffers, so the hot loop
// does not allocate per decide.
type lane struct {
	idx int
	t   loadgen.Target

	batch []*event
	ids   []string
	obs   []governor.Observation
	out   []client.Decision
	seen  []uint32 // per-session stamp: one observation per session per batch
	stamp uint32

	lat  []float64 // per decide: reply time minus due time, µs
	lag  []float64 // per decide: send time minus due time, µs
	ctl  []float64 // control round trips, µs
	rtt  []float64 // per batch: DecideBatch round trip, µs
	size []float64 // per batch: entries

	ok, failed       int64 // decides
	ctlOK, ctlFailed int64
	sum              uint64 // order-independent checksum of successful decides

	spans *spanBuf  // nil when untraced
	rec   *recorder // nil when untraced
}

func newLane(idx, sessions int) *lane {
	return &lane{
		idx:   idx,
		batch: make([]*event, maxBatch),
		ids:   make([]string, maxBatch),
		obs:   make([]governor.Observation, maxBatch),
		out:   make([]client.Decision, maxBatch),
		seen:  make([]uint32, sessions),
	}
}

// reserve sizes the sample buffers for an expected number of samples.
func (l *lane) reserve(decides, batches int) {
	l.lat = make([]float64, 0, decides)
	l.lag = make([]float64, 0, decides)
	l.rtt = make([]float64, 0, batches)
	l.size = make([]float64, 0, batches)
}

// decideChecksum folds one decision into the order-independent checksum;
// it is loadgen's formula, so a schedule's checksum here equals the one
// loadgen.Run reports for the same decisions.
func decideChecksum(session string, epoch, opp int) uint64 {
	h := strhash.String(session)
	return strhash.Mix(h ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15 ^ (uint64(opp) + 0x517cc1b727220a95))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runOpen dispatches a time-ordered schedule open loop: at each wake it
// gathers every decide already due into one batch (never two for one
// session), sends controls one at a time in schedule order, and times
// each decide from when it was due — so a stalled batch shows up in the
// latency of every decide queued behind it.
func (l *lane) runOpen(ctx context.Context, start time.Time, evs []event, src source) error {
	for i := 0; i < len(evs); {
		if err := ctx.Err(); err != nil {
			return err
		}
		now := time.Since(start)
		if wait := evs[i].due - now; wait > 0 {
			s := l.spans.begin(spanWait, -1, start)
			time.Sleep(wait)
			l.spans.end(s, start, 0)
			continue
		}
		if evs[i].op != loadgen.OpDecide {
			if err := l.control(&evs[i], src, start); err != nil {
				return err
			}
			i++
			continue
		}
		l.stamp++
		n := 0
		for ; i < len(evs) && n < maxBatch; i++ {
			ev := &evs[i]
			if ev.op != loadgen.OpDecide || ev.due > now || l.seen[ev.sess] == l.stamp {
				break
			}
			l.seen[ev.sess] = l.stamp
			l.batch[n], l.ids[n] = ev, src.id(ev.sess)
			src.observe(ev, &l.obs[n])
			n++
		}
		if err := l.send(n, start, src); err != nil {
			return err
		}
	}
	return nil
}

// send decides the first n staged entries and folds the replies in.
func (l *lane) send(n int, start time.Time, src source) error {
	sp := l.spans.begin(spanDecide, -1, start)
	sent := time.Now()
	err := l.t.DecideBatch(l.ids[:n], l.obs[:n], l.out[:n])
	done := time.Now()
	l.spans.end(sp, start, n)
	if err != nil {
		return fmt.Errorf("lane %d: decide batch: %w", l.idx, err)
	}
	l.rtt = append(l.rtt, us(done.Sub(sent)))
	l.size = append(l.size, float64(n))
	ap := l.spans.begin(spanApply, sp, start)
	for k := 0; k < n; k++ {
		ev := l.batch[k]
		due := start.Add(ev.due)
		l.lat = append(l.lat, us(done.Sub(due)))
		l.lag = append(l.lag, us(sent.Sub(due)))
		l.rec.add(l.ids[k], &l.obs[k])
		if l.out[k].Err != "" {
			l.failed++
			continue
		}
		l.ok++
		l.sum += decideChecksum(l.ids[k], l.obs[k].Epoch, l.out[k].OPPIdx)
		src.decided(ev, l.out[k])
	}
	l.spans.end(ap, start, n)
	return nil
}

// control runs one create or delete event.
func (l *lane) control(ev *event, src source, start time.Time) error {
	kind, want := spanCreate, http.StatusCreated
	if ev.op == loadgen.OpDelete {
		kind, want = spanDelete, http.StatusNoContent
	}
	sp := l.spans.begin(kind, -1, start)
	t0 := time.Now()
	var status int
	var err error
	if ev.op == loadgen.OpDelete {
		status, _, err = l.t.DeleteSession(src.id(ev.sess))
	} else {
		status, _, err = l.t.CreateSession(src.createBody(ev))
	}
	l.ctl = append(l.ctl, us(time.Since(t0)))
	l.spans.end(sp, start, 1)
	if err != nil {
		return fmt.Errorf("lane %d: %s %s: %w", l.idx, ev.op, src.id(ev.sess), err)
	}
	if status == want {
		l.ctlOK++
	} else {
		l.ctlFailed++
	}
	src.controlled(ev, status)
	return nil
}

// create creates one session during set-up, timing the round trip.
func (l *lane) create(body []byte) error {
	t0 := time.Now()
	status, resp, err := l.t.CreateSession(body)
	l.ctl = append(l.ctl, us(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("lane %d: create: %w", l.idx, err)
	}
	if status != http.StatusCreated {
		l.ctlFailed++
		return fmt.Errorf("lane %d: create returned %d: %s", l.idx, status, resp)
	}
	l.ctlOK++
	return nil
}

// decideAll sends one untimed batch (set-up warm-up) and folds its
// checksum in; any failed entry is an error.
func (l *lane) decideAll(n int) error {
	if err := l.t.DecideBatch(l.ids[:n], l.obs[:n], l.out[:n]); err != nil {
		return fmt.Errorf("lane %d: warm-up batch: %w", l.idx, err)
	}
	for k := 0; k < n; k++ {
		if l.out[k].Err != "" {
			l.failed++
			return fmt.Errorf("lane %d: warm-up decide for %s: %s", l.idx, l.ids[k], l.out[k].Err)
		}
		l.ok++
		l.sum += decideChecksum(l.ids[k], l.obs[k].Epoch, l.out[k].OPPIdx)
	}
	return nil
}
