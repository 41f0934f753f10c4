package main

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"qgov/internal/core"
	"qgov/internal/governor"
	"qgov/internal/scenario"
	"qgov/internal/serve/client"
	"qgov/internal/sim"
	"qgov/internal/xrand"
)

// fleetDevices is paper-fleet's device count; device i runs
// fleetScenarios[i%3].
const fleetDevices = 2000

var fleetScenarios = [...]string{"rtm/h264-football/a15", "rtm/mpeg4-30fps/a15", "rtm/fft-32fps/a15"}

// paperFleet serves the paper's RTM to simulated devices: each device
// executes its trace frame by frame in the generator, asks the server
// for the next frame's operating point, and steps with the answer. The
// served energy and deadline misses must equal sim.Run of the same
// configuration bit for bit.
type paperFleet struct {
	sessionSet
	noControls
	devs       []*sim.Session
	wantEnergy []float64
	wantMisses []int
	evs        [lanes][]event
}

// overheadOnly stands in for the device's governor: the device never
// asks it for a decision (the server decides), but the epoch engine
// charges the RTM's per-decision overhead to every frame, so the stand-in
// must report the same overhead.
type overheadOnly struct{ s float64 }

func (overheadOnly) Name() string           { return "served" }
func (overheadOnly) Reset(governor.Context) {}
func (overheadOnly) Decide(governor.Observation) int {
	panic("bench: a served device decides remotely")
}
func (o overheadOnly) DecisionOverheadS() float64 { return o.s }

func prepareFleet(seed int64, seconds float64) (instance, error) {
	var scns [len(fleetScenarios)]scenario.Scenario
	var periods [len(fleetScenarios)]float64
	for i, name := range fleetScenarios {
		s, err := scenario.Get(name)
		if err != nil {
			return nil, err
		}
		cfg, err := s.Config(0, 1)
		if err != nil {
			return nil, err
		}
		scns[i], periods[i] = s, cfg.Trace.RefTimeS
	}
	rng := xrand.Seeded(seed)
	phases := make([]float64, fleetDevices)
	for i := range phases {
		phases[i] = rng.Float64() * periods[i%len(periods)]
	}
	w := &paperFleet{
		sessionSet: sessionSet{ids: make([]string, fleetDevices), bodies: make([][]byte, fleetDevices)},
		devs:       make([]*sim.Session, fleetDevices),
		wantEnergy: make([]float64, fleetDevices),
		wantMisses: make([]int, fleetDevices),
		evs: periodic(fleetDevices, seconds,
			func(i int) float64 { return phases[i] },
			func(i int) float64 { return periods[i%len(periods)] }),
	}
	// A device's trace holds exactly the frames due inside the run.
	frames := make([]int, fleetDevices)
	for _, evs := range w.evs {
		for _, ev := range evs {
			frames[ev.sess]++
		}
	}
	// Build devices and their sim.Run oracle answers on both cores.
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for part := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part; i < fleetDevices; i += len(errs) {
				if errs[part] = w.prepareDevice(i, scns[i%len(scns)], mixSeed(seed, i), frames[i]); errs[part] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *paperFleet) prepareDevice(i int, s scenario.Scenario, seed int64, frames int) error {
	cfg, err := s.Config(seed, frames)
	if err != nil {
		return err
	}
	rtm, ok := cfg.Governor.(*core.RTM)
	if !ok {
		return fmt.Errorf("%s: governor is %T, not the RTM", s.Name(), cfg.Governor)
	}
	// The RTM calibrates on the extremes of the trace's per-frame maxima
	// alone, so the create body carries just those two: the served RTM is
	// calibrated exactly as sim.Run's, and set-up time is not dominated
	// by parsing a float array per frame.
	cc := cfg.Trace.MaxPerFrame()
	w.ids[i] = fmt.Sprintf("pf-%d", i)
	w.bodies[i] = createBody(createRequest{
		ID: w.ids[i], Governor: "rtm", PeriodS: cfg.Trace.RefTimeS, Seed: seed,
		CalibrationCC: []float64{slices.Min(cc), slices.Max(cc)},
	})
	cfg.Governor = overheadOnly{rtm.DecisionOverheadS()}
	w.devs[i] = sim.NewSession(cfg)

	oracle, err := s.Config(seed, frames)
	if err != nil {
		return err
	}
	res := sim.Run(oracle)
	w.wantEnergy[i], w.wantMisses[i] = res.EnergyJ, res.Misses
	return nil
}

func (w *paperFleet) setup(ls []*lane) error { return w.createAll(ls) }

func (w *paperFleet) timed(ctx context.Context, e *env) error {
	return timedLanes(ctx, e, w.evs, w)
}

// observe sends the device's last completed epoch; decided executes the
// next frame at the served operating point.
func (w *paperFleet) observe(ev *event, dst *governor.Observation) { *dst = w.devs[ev.sess].Observe() }
func (w *paperFleet) decided(ev *event, d client.Decision)         { w.devs[ev.sess].Step(d.OPPIdx) }

func (w *paperFleet) check(*env) error {
	for i, d := range w.devs {
		if !d.Done() {
			return fmt.Errorf("device %s stopped at frame %d of %d", w.ids[i], d.Epoch(), d.Result().Frames)
		}
		r := d.Result()
		if r.EnergyJ != w.wantEnergy[i] || r.Misses != w.wantMisses[i] {
			return fmt.Errorf("device %s: served energy %v J, %d misses; sim.Run gives %v J, %d misses",
				w.ids[i], r.EnergyJ, r.Misses, w.wantEnergy[i], w.wantMisses[i])
		}
	}
	return nil
}

func (w *paperFleet) live() int { return fleetDevices }

// paperMetrics is the paper's two metrics over the fleet, as served.
func (w *paperFleet) paperMetrics() (missFrac, mJPerFrame float64) {
	var frames, misses int
	var energy float64
	for _, d := range w.devs {
		r := d.Result()
		frames += d.Epoch()
		misses += r.Misses
		energy += r.EnergyJ
	}
	if frames == 0 {
		return 0, 0
	}
	return float64(misses) / float64(frames), energy * 1e3 / float64(frames)
}
