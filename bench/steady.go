package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve/client"
	"qgov/internal/xrand"
)

// steadyConfig shapes a workload of long-lived sessions, each deciding
// at a fixed rate from pre-generated synthetic observations.
type steadyConfig struct {
	sessions int
	periodS  float64                              // each session's decide period
	phase    func(i int, rng *xrand.Rand) float64 // session i's first due time
	warm     int                                  // decides per session during set-up
	ring     int                                  // pre-generated observations per session, used round-robin
	// scrapeEvery, when positive, scrapes the server's Prometheus
	// exposition at that interval through the timed phase.
	scrapeEvery time.Duration
	// checkpoints requires the server's checkpoint sweep to have written.
	checkpoints bool
}

// saturateConfig: 1,024 sessions split into four slots of 256, one slot
// per lane due every 2 ms and the lanes 1 ms apart, so the server gets a
// full 256-entry batch every millisecond: 256k decides/s, fixed, well
// below the server's capacity, so a slower machine lengthens round trips
// without building a backlog.
var saturateConfig = steadyConfig{
	sessions: 1024,
	periodS:  0.004,
	phase: func(i int, _ *xrand.Rand) float64 {
		slot := (i / lanes) / 256
		return float64(i%lanes)*0.001 + float64(slot)*0.002
	},
	warm: 1,
	ring: 8,
}

// opsConfig: 10,000 sessions at 2 Hz with random phases (20k decides/s),
// each warmed with five decides so it holds private Q-table pages.
var opsConfig = steadyConfig{
	sessions:    10000,
	periodS:     0.5,
	phase:       func(_ int, rng *xrand.Rand) float64 { return rng.Float64() * 0.5 },
	warm:        5,
	ring:        4,
	scrapeEvery: 2 * time.Second,
	checkpoints: true,
}

// steady is a steadyConfig's inputs for one seed, with the oracle's
// checksum over every warm-up and timed decide.
type steady struct {
	steadyConfig
	sessionSet
	noControls
	obs  [][]governor.Observation
	evs  [lanes][]event
	want uint64
}

func prepareSaturate(seed int64, seconds float64) (instance, error) {
	return newSteady(saturateConfig, "sat", seed, seconds)
}

func prepareOps(seed int64, seconds float64) (instance, error) {
	return newSteady(opsConfig, "ops", seed, seconds)
}

func newSteady(c steadyConfig, prefix string, seed int64, seconds float64) (*steady, error) {
	rng := xrand.Seeded(seed)
	w := &steady{
		steadyConfig: c,
		sessionSet:   sessionSet{ids: make([]string, c.sessions), bodies: make([][]byte, c.sessions)},
		obs:          make([][]governor.Observation, c.sessions),
	}
	phases := make([]float64, c.sessions)
	for i := range w.ids {
		w.ids[i] = fmt.Sprintf("%s-%d", prefix, i)
		w.bodies[i] = createBody(createRequest{ID: w.ids[i], Governor: "rtm", PeriodS: c.periodS, Seed: mixSeed(seed, i)})
		for r := 0; r < c.ring; r++ {
			w.obs[i] = append(w.obs[i], synthObs(&rng, r, c.periodS))
		}
		phases[i] = c.phase(i, &rng)
	}
	w.evs = periodic(c.sessions, seconds,
		func(i int) float64 { return phases[i] },
		func(int) float64 { return c.periodS })

	// The oracle: every session's warm-up and timed decides, in order,
	// through loadgen.Local, one session at a time so it holds one
	// session's state; the lanes' sessions are disjoint, so one core
	// replays each lane's.
	frames := make([]int, c.sessions)
	for _, evs := range w.evs {
		for _, ev := range evs {
			frames[ev.sess]++
		}
	}
	sums := make([]uint64, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := loadgen.NewLocal()
			for i := l; i < c.sessions && errs[l] == nil; i += lanes {
				var sum uint64
				sum, errs[l] = w.replay(local, int32(i), c.warm+frames[i])
				sums[l] += sum
			}
		}()
	}
	wg.Wait()
	for l := range sums {
		if errs[l] != nil {
			return nil, errs[l]
		}
		w.want += sums[l]
	}
	return w, nil
}

// replay runs session s's first n decides through local and returns
// their checksum.
func (w *steady) replay(local *loadgen.Local, s int32, n int) (uint64, error) {
	id := w.ids[s]
	if st, resp, err := local.CreateSession(w.bodies[s]); err != nil || st != http.StatusCreated {
		return 0, fmt.Errorf("oracle create %s: %d %s %v", id, st, resp, err)
	}
	var sum uint64
	out := make([]client.Decision, 1)
	for epoch := 0; epoch < n; epoch++ {
		if err := local.DecideBatch([]string{id}, []governor.Observation{w.obsAt(s, epoch)}, out); err != nil {
			return 0, err
		}
		if out[0].Err != "" {
			return 0, fmt.Errorf("oracle decide %s: %s", id, out[0].Err)
		}
		sum += decideChecksum(id, epoch, out[0].OPPIdx)
	}
	_, _, err := local.DeleteSession(id)
	return sum, err
}

// obsAt is session s's observation for its epoch-th decide.
func (w *steady) obsAt(s int32, epoch int) governor.Observation {
	o := w.obs[s][epoch%w.ring]
	o.Epoch = epoch
	return o
}

func (w *steady) observe(ev *event, dst *governor.Observation) {
	*dst = w.obsAt(ev.sess, w.warm+int(ev.ref))
}

// setup creates every session and warms each with its warm-up decides,
// in batches of 256 per lane.
func (w *steady) setup(ls []*lane) error {
	if err := w.createAll(ls); err != nil {
		return err
	}
	return eachLane(context.Background(), ls, func(_ context.Context, l *lane) error {
		for epoch := 0; epoch < w.warm; epoch++ {
			n := 0
			for i := l.idx; i < len(w.ids); i += lanes {
				l.ids[n], l.obs[n] = w.ids[i], w.obsAt(int32(i), epoch)
				if n++; n == 256 {
					if err := l.decideAll(n); err != nil {
						return err
					}
					n = 0
				}
			}
			if n > 0 {
				if err := l.decideAll(n); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// timed runs the decide schedule, with the scraper beside it when the
// workload scrapes.
func (w *steady) timed(ctx context.Context, e *env) error {
	if w.scrapeEvery <= 0 {
		return timedLanes(ctx, e, w.evs, w)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(w.scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			sp := e.scrapeSpans.begin(spanScrape, -1, e.start)
			t0 := time.Now()
			p, err := e.fleet.front.scrape()
			if err != nil {
				scrapeErr = err
				return
			}
			e.scrapeMS = append(e.scrapeMS, float64(time.Since(t0))/float64(time.Millisecond))
			e.scrapeBytes = len(p)
			e.scrapeSpans.end(sp, e.start, 1)
		}
	}()
	err := timedLanes(ctx, e, w.evs, w)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	return scrapeErr
}

func (w *steady) check(e *env) error {
	var sum uint64
	for _, l := range e.lanes {
		sum += l.sum
	}
	if sum != w.want {
		return fmt.Errorf("served checksum %016x, loadgen.Local gives %016x", sum, w.want)
	}
	if !w.checkpoints {
		return nil
	}
	p, err := e.fleet.front.scrape()
	if err != nil {
		return err
	}
	if p.value("rtmd_checkpoint_writes_total") <= 0 {
		return fmt.Errorf("the checkpoint sweep wrote nothing")
	}
	return nil
}

func (w *steady) live() int { return w.sessions }
