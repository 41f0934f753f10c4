package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qgov/internal/serve/client"
)

// lanes is the generator's concurrency: two lanes, each holding one
// connection to the target, on a generator limited to two cores.
const lanes = 2

// setupReps is how many times an untraced run sets the servers up; it
// reports the median set-up time and keeps the last set-up for the
// timed phase.
const setupReps = 5

// restScrapes is how many Prometheus scrapes a run takes after the timed
// phase; scrape_p50_ms is their median.
const restScrapes = 25

// config is one invocation's settings.
type config struct {
	rtmd    string
	out     string
	seed    int64
	seconds float64
}

// workload is one named traffic mix.
type workload struct {
	name, why  string
	routed     bool // a router in front of two replicas instead of one flat server
	checkpoint bool // replicas run a 5 s checkpoint sweep into a scratch directory
	prepare    func(seed int64, seconds float64) (instance, error)
}

// instance is a workload's generated inputs for one seed, with its
// oracle answers computed ahead of the timed phase.
type instance interface {
	// sessionIDs is every session id the workload uses.
	sessionIDs() []string
	// setup creates (and warms) the workload's sessions on fresh servers.
	setup(ls []*lane) error
	// timed runs the measured phase.
	timed(ctx context.Context, e *env) error
	// check compares what the servers answered with the oracle.
	check(e *env) error
	// live is the number of sessions live when the timed phase ends.
	live() int
}

// env is what a timed phase runs against.
type env struct {
	fleet *fleet
	lanes []*lane
	start time.Time // the timed phase's start; schedules and spans count from it

	// Scrapes taken during the timed phase (ops-10k), their spans, and
	// the size of the last scrape.
	scrapeMS    []float64
	scrapeBytes int
	scrapeSpans *spanBuf
}

// fleet is the set of rtmd processes of one set-up.
type fleet struct {
	procs []*proc // replicas (or the flat server), then the router
	front *proc   // what the generator talks to
	dir   string  // scratch directory, removed on stop
	heap0 []float64
}

func startFleet(cfg config, w *workload, traced bool) (*fleet, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	var args []string
	if traced {
		args = append(args, "-trace-sample", "0.01")
	}
	replicaArgs := args
	if w.checkpoint {
		replicaArgs = append(replicaArgs, "-checkpoint-dir", f.ckptDir(), "-checkpoint-every", "5s")
	}
	start := func(name string, args []string) error {
		p, err := startProc(cfg.rtmd, name, args)
		if err != nil {
			return err
		}
		f.procs = append(f.procs, p)
		f.front = p
		return nil
	}
	if !w.routed {
		err = start("flat", replicaArgs)
	} else if err = start("replica-1", replicaArgs); err == nil {
		if err = start("replica-2", replicaArgs); err == nil {
			err = start("router", append([]string{"-route", "-replicas", f.procs[0].tcp + "," + f.procs[1].tcp}, args...))
		}
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	for _, p := range f.procs {
		h, err := p.liveHeap()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("baseline heap of %s: %w", p.name, err)
		}
		f.heap0 = append(f.heap0, h)
	}
	return f, nil
}

func (f *fleet) ckptDir() string { return filepath.Join(f.dir, "checkpoints") }

// stop kills every process, waits for each, and removes the scratch
// directory.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.kill()
	}
	_ = os.RemoveAll(f.dir) // best effort: a leftover only costs disk until the next run's cleanup
}

// died reports the first process that exited on its own.
func (f *fleet) died() error {
	for _, p := range f.procs {
		if err := p.died(); err != nil {
			return err
		}
	}
	return nil
}

// blame prefers a dead server's stderr over the transport error its
// death caused in the generator.
func (f *fleet) blame(err error) error {
	if derr := f.died(); derr != nil {
		return derr
	}
	return err
}

// liveKBPerSession is the servers' live heap after a forced GC, less
// each process's empty baseline, per live session.
func (f *fleet) liveKBPerSession(live int) (float64, error) {
	if live <= 0 {
		return 0, fmt.Errorf("no live sessions")
	}
	var grown float64
	for i, p := range f.procs {
		h, err := p.liveHeap()
		if err != nil {
			return 0, err
		}
		grown += h - f.heap0[i]
	}
	return grown / float64(live) / 1024, nil
}

// cpu is the servers' summed CPU time.
func (f *fleet) cpu() (time.Duration, error) {
	var sum int64
	for _, p := range f.procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return time.Duration(sum) * clockTick, nil
}

func dialLanes(ls []*lane, addr string) error {
	for _, l := range ls {
		cl, err := client.DialOpts(addr, client.DialOptions{Conns: 1})
		if err != nil {
			return err
		}
		l.t = cl
	}
	return nil
}

func closeLanes(ls []*lane) {
	for _, l := range ls {
		if cl, ok := l.t.(*client.Client); ok {
			cl.Close()
		}
		l.t = nil
	}
}

// eachLane runs f on every lane concurrently; the first error cancels
// the others.
func eachLane(ctx context.Context, ls []*lane, f func(ctx context.Context, l *lane) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(ls))
	var wg sync.WaitGroup
	for i, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = f(ctx, l); errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// passOut is one pass over a workload: its verdict, end-to-end metrics,
// and — on a traced pass — the per-layer numbers read off the servers.
type passOut struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	layers            map[string]float64
	recorded          *recorder
	ids               []string
}

// runPass prepares a workload's inputs, sets the servers up (setups
// times, keeping the last), runs the timed phase and checks the outputs.
func runPass(ctx context.Context, cfg config, w *workload, traced bool, setups int) (*passOut, error) {
	inst, err := w.prepare(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", w.name, err)
	}
	ids := inst.sessionIDs()
	ls := make([]*lane, lanes)
	for i := range ls {
		ls[i] = newLane(i, len(ids))
	}
	var f *fleet
	defer func() {
		if f != nil {
			closeLanes(ls)
			f.stop()
		}
	}()
	var setupS []float64
	for rep := 0; rep < setups; rep++ {
		if f != nil {
			closeLanes(ls)
			f.stop()
			f = nil
		}
		for _, l := range ls {
			l.sum = 0
		}
		t0 := time.Now()
		if f, err = startFleet(cfg, w, traced); err != nil {
			return nil, err
		}
		if err := dialLanes(ls, f.front.tcp); err != nil {
			return nil, f.blame(err)
		}
		if err := inst.setup(ls); err != nil {
			return nil, f.blame(fmt.Errorf("%s: set-up: %w", w.name, err))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	e := &env{fleet: f, lanes: ls}
	if traced {
		for _, l := range ls {
			l.spans = newSpanBuf(l.idx, spanCap)
			l.rec = newRecorder(recordDecides / lanes)
		}
		e.scrapeSpans = newSpanBuf(lanes, 1024)
	}
	var okBefore int64
	for _, l := range ls {
		okBefore += l.ok
	}
	var pre *layerProbe
	if traced {
		if pre, err = probeLayers(f); err != nil {
			return nil, f.blame(err)
		}
	}
	cpu0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	gen0, err := cpuTicks(os.Getpid())
	if err != nil {
		return nil, err
	}
	e.start = time.Now()
	var watch *ckptWatch
	if traced && w.checkpoint {
		watch = watchCheckpoints(f.ckptDir(), e.start)
	}
	err = inst.timed(ctx, e)
	elapsed := time.Since(e.start)
	if watch != nil {
		watch.stop()
	}
	if err != nil {
		return nil, f.blame(fmt.Errorf("%s: timed phase: %w", w.name, err))
	}
	cpu1, err := f.cpu()
	if err != nil {
		return nil, f.blame(err)
	}
	gen1, err := cpuTicks(os.Getpid())
	if err != nil {
		return nil, err
	}

	out := &passOut{metrics: map[string]float64{}, ids: ids}
	var lat, lag, ctl []float64
	var recs []*recorder
	okAfter := int64(0)
	for _, l := range ls {
		out.attempted += l.ok + l.failed + l.ctlOK + l.ctlFailed
		out.failed += l.failed + l.ctlFailed
		okAfter += l.ok
		lat = append(lat, l.lat...)
		lag = append(lag, l.lag...)
		ctl = append(ctl, l.ctl...)
		recs = append(recs, l.rec)
	}
	if traced {
		out.recorded = merge(recs)
	}
	decides := float64(okAfter - okBefore)
	if decides <= 0 {
		return nil, fmt.Errorf("%s: no decide succeeded in the timed phase", w.name)
	}

	memKB, err := f.liveKBPerSession(inst.live())
	if err != nil {
		return nil, f.blame(err)
	}

	// Scrapes at rest, the same on every workload.
	var scrapeMS []float64
	for i := 0; i < restScrapes; i++ {
		t := time.Now()
		p, err := f.front.scrape()
		if err != nil {
			return nil, f.blame(err)
		}
		scrapeMS = append(scrapeMS, float64(time.Since(t))/float64(time.Millisecond))
		e.scrapeBytes = len(p)
	}

	latD, ctlD := summarize(lat), summarize(ctl)
	m := out.metrics
	m["setup_s"] = median(setupS)
	m["decide_p50_us"] = latD.P50
	m["decide_p90_us"] = latD.P90
	m["decide_p99_us"] = latD.Tail
	m["decides_per_s"] = decides / elapsed.Seconds()
	m["server_cpu_us_per_decide"] = us(cpu1-cpu0) / decides
	m["control_p90_us"] = ctlD.P90
	m["control_p99_us"] = ctlD.Tail
	m["scrape_p50_ms"] = median(scrapeMS)
	m["live_kb_per_session"] = memKB
	fmt.Printf("%s: decide latency µs %v; control µs %v; set-up s %.3f\n", w.name, latD, ctlD, setupS)

	if traced {
		layers, err := readLayers(cfg, w, f, e, pre, watch)
		if err != nil {
			return nil, f.blame(err)
		}
		lagD := summarize(lag)
		layers["gen.lag_p50_us"] = lagD.P50
		layers["gen.lag_p99_us"] = lagD.Tail
		layers["gen.cpu_us_per_decide"] = us(time.Duration(gen1-gen0)*clockTick) / decides
		if pf, ok := inst.(interface{ paperMetrics() (float64, float64) }); ok {
			layers["paper.deadline_miss_frac"], layers["paper.energy_mj_per_frame"] = pf.paperMetrics()
		} else {
			layers["paper.deadline_miss_frac"], layers["paper.energy_mj_per_frame"] = 0, 0
		}
		out.layers = layers
	}

	if err := f.died(); err != nil {
		return nil, err
	}
	out.correct = true
	if err := inst.check(e); err != nil {
		out.correct = false
		fmt.Fprintf(os.Stderr, "%s: oracle check failed: %v\n", w.name, err)
	}
	if out.failed > 0 {
		out.correct = false
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed\n", w.name, out.failed, out.attempted)
	}
	return out, nil
}
