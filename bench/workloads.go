package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve/client"
	"qgov/internal/strhash"
	"qgov/internal/xrand"
)

// workloads is the benchmark's traffic mixes, in the order -workload all
// and -repeat run them. The README explains each choice.
var workloads = []*workload{
	{
		name:    "paper-fleet",
		why:     "the paper's deployment: 2,000 simulated devices each ask for one DVFS decision per frame, and served energy and misses must equal sim.Run",
		prepare: prepareFleet,
	},
	{
		name:    "saturate-flat",
		why:     "full 256-entry batches at a fixed 256k decides/s on one server, so governor, session lookup and codec dominate its work",
		prepare: prepareSaturate,
	},
	{
		name:    "churn-routed",
		why:     "skewed bursty clients with session churn and delete storms through a router, the control-plane and relay path",
		routed:  true,
		prepare: prepareChurn,
	},
	{
		name:       "ops-10k",
		why:        "10,000 sessions at 2 Hz beside a 5 s checkpoint sweep and a scrape every 2 s, a working set beyond the caches",
		checkpoint: true,
		prepare:    prepareOps,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// createRequest is the subset of rtmd's session-create body the
// benchmark sends. loadgen.Local reads the same fields (and ignores
// calibration_cc, which only paper-fleet sends).
type createRequest struct {
	ID            string    `json:"id"`
	Governor      string    `json:"governor"`
	Platform      string    `json:"platform,omitempty"`
	PeriodS       float64   `json:"period_s,omitempty"`
	Seed          int64     `json:"seed"`
	CalibrationCC []float64 `json:"calibration_cc,omitempty"`
}

func createBody(r createRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of strings and finite numbers always marshals
	}
	return b
}

// mixSeed derives an independent seed for item i of a run seeded seed.
func mixSeed(seed int64, i int) int64 {
	return int64(strhash.Mix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i+1)))
}

// synthObs draws one epoch's observation in the shape of loadgen's
// synthetic frames: four cores, execution time jittering around 60% of
// the period.
func synthObs(rng *xrand.Rand, epoch int, period float64) governor.Observation {
	base := 28e6 + 4e6*rng.Float64()
	cycles := make([]uint64, 4)
	util := make([]float64, 4)
	for i := range cycles {
		cycles[i] = uint64(base * (0.9 + 0.2*rng.Float64()))
		util[i] = 0.4 + 0.4*rng.Float64()
	}
	return governor.Observation{
		Epoch:     epoch,
		Cycles:    cycles,
		Util:      util,
		ExecTimeS: period * (0.4 + 0.4*rng.Float64()),
		PeriodS:   period,
		WallTimeS: period,
		PowerW:    1.2 + 1.6*rng.Float64(),
		TempC:     42 + 14*rng.Float64(),
		OPPIdx:    rng.Intn(10),
	}
}

// sessionSet is the id table and create bodies of a workload whose
// sessions all exist for the whole run, split across the lanes by index.
type sessionSet struct {
	ids    []string
	bodies [][]byte
}

func (s *sessionSet) sessionIDs() []string { return s.ids }
func (s *sessionSet) id(i int32) string    { return s.ids[i] }

// createAll creates every session, session i on lane i%lanes.
func (s *sessionSet) createAll(ls []*lane) error {
	return eachLane(context.Background(), ls, func(_ context.Context, l *lane) error {
		for i := l.idx; i < len(s.ids); i += len(ls) {
			if err := l.create(s.bodies[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// noControls is embedded by sources whose schedules hold only decides.
type noControls struct{}

func (noControls) createBody(*event) []byte        { return nil }
func (noControls) controlled(*event, int)          {}
func (noControls) decided(*event, client.Decision) {}

// periodic lays out a fixed-rate open-loop schedule: session i's frame k
// is due at phase_i + k·period on the 1 ms grid, for every such time
// inside the horizon. Sessions split across lanes by index; each lane's
// events are time-ordered, ties by session.
func periodic(n int, horizon float64, phase, period func(i int) float64) [lanes][]event {
	var evs [lanes][]event
	for i := 0; i < n; i++ {
		for k := 0; ; k++ {
			t := phase(i) + float64(k)*period(i)
			if t >= horizon {
				break
			}
			evs[i%lanes] = append(evs[i%lanes], event{due: msGrid(t), op: loadgen.OpDecide, sess: int32(i), ref: int32(k)})
		}
	}
	for l := range evs {
		slices.SortStableFunc(evs[l], func(a, b event) int { return cmp.Compare(a.due, b.due) })
	}
	return evs
}

// timedLanes runs each lane's share of an open-loop schedule from the
// timed phase's start.
func timedLanes(ctx context.Context, e *env, evs [lanes][]event, src source) error {
	for _, l := range e.lanes {
		l.reserve(len(evs[l.idx]), len(evs[l.idx])/4+16)
	}
	return eachLane(ctx, e.lanes, func(ctx context.Context, l *lane) error {
		return l.runOpen(ctx, e.start, evs[l.idx], src)
	})
}
