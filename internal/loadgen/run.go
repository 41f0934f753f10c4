package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qgov/internal/governor"
	"qgov/internal/serve/client"
	"qgov/internal/strhash"
)

// Target is a serving surface the runner can drive. *client.Client (a
// flat server or a router over the binary transport) satisfies it, and
// Local provides the in-process oracle the equivalence tests compare
// against.
type Target interface {
	CreateSession(body []byte) (int, []byte, error)
	DeleteSession(id string) (int, []byte, error)
	DecideBatch(sessions []string, obs []governor.Observation, out []client.Decision) error
}

// counters is the run's state shared by its lanes.
type counters struct {
	Creates      atomic.Int64
	CreateErrors atomic.Int64
	Deletes      atomic.Int64
	DeleteErrors atomic.Int64
	Decides      atomic.Int64
	DecideErrors atomic.Int64
	Live         atomic.Int64
	PeakLive     atomic.Int64
}

func (c *counters) bumpLive(delta int64) {
	live := c.Live.Add(delta)
	for {
		peak := c.PeakLive.Load()
		if live <= peak || c.PeakLive.CompareAndSwap(peak, live) {
			return
		}
	}
}

// Report is the outcome of one run. Checksum is an order-independent
// aggregate over every successful decision (session id, epoch, chosen
// OPP): two runs of the same schedule against deterministic targets must
// produce equal checksums regardless of lane count or interleaving — the
// churn suites' determinism contract.
type Report struct {
	Events       int64   `json:"events"`
	Creates      int64   `json:"creates"`
	CreateErrors int64   `json:"create_errors"`
	Deletes      int64   `json:"deletes"`
	DeleteErrors int64   `json:"delete_errors"`
	Decides      int64   `json:"decides"`
	DecideErrors int64   `json:"decide_errors"`
	PeakLive     int64   `json:"peak_live"`
	EndLive      int64   `json:"end_live"`
	Checksum     uint64  `json:"checksum"`
	WallS        float64 `json:"wall_s"`
}

// RunOptions tunes a run; the zero value is a sensible default.
type RunOptions struct {
	// Lanes is the number of concurrent executor lanes. Sessions are
	// partitioned over lanes by id hash, so one session's events stay
	// ordered however many lanes run. 0 picks min(GOMAXPROCS, 8).
	Lanes int
	// BatchMax caps decides coalesced into one DecideBatch call
	// (default 512, max client.MaxBatch).
	BatchMax int
}

// decideChecksum folds one successful decision into the order-independent
// aggregate. Mixing makes the sum sensitive to any single changed
// decision despite commutativity.
func decideChecksum(session string, epoch, opp int) uint64 {
	h := strhash.String(session)
	return strhash.Mix(h ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15 ^ (uint64(opp) + 0x517cc1b727220a95))
}

// lane is one executor: it applies its share of the schedule in order,
// coalescing consecutive decides into batches.
type lane struct {
	target   target
	counters *counters
	batchMax int

	sessions []string
	obs      []governor.Observation
	epochs   []int
	out      []client.Decision

	checksum uint64
	err      error
}

// target is the internal seam: Target plus nothing — aliased so lane
// code reads cleanly.
type target = Target

func (l *lane) apply(ev Event) {
	if l.err != nil {
		return
	}
	switch ev.Op {
	case OpDecide:
		l.sessions = append(l.sessions, ev.Session)
		l.obs = append(l.obs, ev.Obs)
		l.epochs = append(l.epochs, ev.Obs.Epoch)
		if len(l.sessions) >= l.batchMax {
			l.flush()
		}
	case OpCreate:
		// Control ops order against decides for the same (recycled) id,
		// so the pending batch must land first.
		l.flush()
		body, err := json.Marshal(map[string]any{
			"id":       ev.Session,
			"governor": ev.Governor,
			"platform": ev.Platform,
			"period_s": ev.PeriodS,
			"seed":     ev.Seed,
		})
		if err != nil {
			l.err = err
			return
		}
		status, resp, err := l.target.CreateSession(body)
		if err != nil {
			l.err = fmt.Errorf("loadgen: create %s: %w", ev.Session, err)
			return
		}
		if status != http.StatusCreated {
			l.counters.CreateErrors.Add(1)
			_ = resp
			return
		}
		l.counters.Creates.Add(1)
		l.counters.bumpLive(1)
	case OpDelete:
		l.flush()
		status, _, err := l.target.DeleteSession(ev.Session)
		if err != nil {
			l.err = fmt.Errorf("loadgen: delete %s: %w", ev.Session, err)
			return
		}
		if status != http.StatusNoContent {
			l.counters.DeleteErrors.Add(1)
			return
		}
		l.counters.Deletes.Add(1)
		l.counters.bumpLive(-1)
	}
}

func (l *lane) flush() {
	n := len(l.sessions)
	if n == 0 || l.err != nil {
		return
	}
	if cap(l.out) < n {
		l.out = make([]client.Decision, n)
	}
	out := l.out[:n]
	if err := l.target.DecideBatch(l.sessions, l.obs[:n], out); err != nil {
		l.err = fmt.Errorf("loadgen: decide batch: %w", err)
		return
	}
	for i := range out {
		if out[i].Err != "" {
			l.counters.DecideErrors.Add(1)
			continue
		}
		l.counters.Decides.Add(1)
		l.checksum += decideChecksum(l.sessions[i], l.epochs[i], out[i].OPPIdx)
	}
	l.sessions = l.sessions[:0]
	l.obs = l.obs[:0]
	l.epochs = l.epochs[:0]
}

// Run drains a schedule stream into the target and aggregates the
// outcome. Events partition across lanes by session id, so per-session
// ordering (create before decide before delete, across recycled
// generations) holds at any lane count; the aggregate checksum is
// order-independent, so it is identical at any lane count too.
func Run(s Stream, t Target, opts RunOptions) (*Report, error) {
	lanes := opts.Lanes
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
		if lanes > 8 {
			lanes = 8
		}
	}
	batchMax := opts.BatchMax
	if batchMax <= 0 {
		batchMax = 512
	}
	if batchMax > client.MaxBatch {
		batchMax = client.MaxBatch
	}
	cnt := &counters{}

	chans := make([]chan Event, lanes)
	ls := make([]*lane, lanes)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan Event, 4*batchMax)
		ls[i] = &lane{
			target:   t,
			counters: cnt,
			batchMax: batchMax,
		}
		wg.Add(1)
		go func(l *lane, ch chan Event) {
			defer wg.Done()
			for ev := range ch {
				l.apply(ev)
			}
			l.flush()
		}(ls[i], chans[i])
	}

	start := time.Now()
	var events int64
	var streamErr error
	for {
		ev, ok, err := s.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !ok {
			break
		}
		events++
		chans[strhash.String(ev.Session)%uint64(lanes)] <- ev
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	rep := &Report{
		Events:       events,
		Creates:      cnt.Creates.Load(),
		CreateErrors: cnt.CreateErrors.Load(),
		Deletes:      cnt.Deletes.Load(),
		DeleteErrors: cnt.DeleteErrors.Load(),
		Decides:      cnt.Decides.Load(),
		DecideErrors: cnt.DecideErrors.Load(),
		PeakLive:     cnt.PeakLive.Load(),
		EndLive:      cnt.Live.Load(),
		WallS:        time.Since(start).Seconds(),
	}
	var firstErr error = streamErr
	for _, l := range ls {
		rep.Checksum += l.checksum
		if l.err != nil && firstErr == nil {
			firstErr = l.err
		}
	}
	return rep, firstErr
}
