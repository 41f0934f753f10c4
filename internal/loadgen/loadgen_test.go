package loadgen_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve/client"
)

// testSpec exercises every generator feature at once: three classes with
// distinct arrival processes, rate skew, finite lifetimes, staggered
// starts, and two storms (one partial, one total).
func testSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     42,
		HorizonS: 30,
		Clients: []loadgen.ClientClass{
			{
				Name:            "steady",
				Count:           8,
				Arrival:         loadgen.Arrival{Process: "poisson", RateHz: 5},
				RateSkew:        &loadgen.Skew{Dist: "pareto", Param: 2.5},
				LifetimeDecides: 40,
				StartWindowS:    2,
			},
			{
				Name:         "burst",
				Count:        4,
				Arrival:      loadgen.Arrival{Process: "gamma", RateHz: 8, Shape: 0.5},
				RateSkew:     &loadgen.Skew{Dist: "lognormal", Param: 0.8},
				StartWindowS: 1,
			},
			{
				Name:            "weib",
				Count:           3,
				Arrival:         loadgen.Arrival{Process: "weibull", RateHz: 3, Shape: 0.7},
				LifetimeDecides: 25,
			},
		},
		Storms: []loadgen.Storm{
			{AtS: 10, Fraction: 0.5, RestartDelayS: 0.5},
			{AtS: 20, Fraction: 1, RestartDelayS: 0.25},
		},
	}
}

func record(t *testing.T, spec loadgen.Spec) []byte {
	t.Helper()
	g, err := loadgen.New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var buf bytes.Buffer
	n, err := loadgen.Record(&buf, g)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if n == 0 {
		t.Fatal("empty schedule")
	}
	return buf.Bytes()
}

func TestTraceByteIdentical(t *testing.T) {
	a := record(t, testSpec())
	b := record(t, testSpec())
	if !bytes.Equal(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	changed := testSpec()
	changed.Seed++
	if bytes.Equal(a, record(t, changed)) {
		t.Fatal("changing the seed did not change the schedule")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	a := record(t, testSpec())
	rd := loadgen.NewTraceReader(bytes.NewReader(a))
	var buf bytes.Buffer
	n, err := loadgen.Record(&buf, rd)
	if err != nil {
		t.Fatalf("re-recording replay: %v", err)
	}
	if got := int64(bytes.Count(a, []byte("\n"))); n != got {
		t.Fatalf("replayed %d events, recorded %d lines", n, got)
	}
	if !bytes.Equal(a, buf.Bytes()) {
		t.Fatal("trace did not survive a record→replay→record round trip byte-identically")
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"{\"at_s\":0,\"op\":\"explode\",\"session\":\"x\"}\n",
		"{\"at_s\":0,\"op\":\"decide\",\"session\":\"x\"}\n", // decide without obs
		"{\"at_s\":0,\"op\":\"create\"}\n",                   // missing session
		"not json\n",
	} {
		rd := loadgen.NewTraceReader(strings.NewReader(bad))
		if _, _, err := rd.Next(); err == nil {
			t.Errorf("trace line %q: want error, got none", strings.TrimSpace(bad))
		}
	}
}

// TestScheduleInvariants walks the whole schedule checking the lifecycle
// contract: global time order, create-before-use, per-generation epoch
// sequence, storms actually deleting, and a drained end state.
func TestScheduleInvariants(t *testing.T) {
	spec := testSpec()
	g, err := loadgen.New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	live := map[string]int{} // id → next expected epoch
	var last float64
	var creates, deletes, decides, stormDeletes int
	for {
		ev, ok, err := g.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		if ev.AtS < last {
			t.Fatalf("time went backwards: %v after %v", ev.AtS, last)
		}
		last = ev.AtS
		if ev.AtS > spec.HorizonS {
			t.Fatalf("event at %v past horizon %v", ev.AtS, spec.HorizonS)
		}
		switch ev.Op {
		case loadgen.OpCreate:
			if _, exists := live[ev.Session]; exists {
				t.Fatalf("create of live session %s at %v", ev.Session, ev.AtS)
			}
			if ev.Governor == "" || ev.PeriodS <= 0 {
				t.Fatalf("create %s missing parameters: %+v", ev.Session, ev)
			}
			live[ev.Session] = 0
			creates++
		case loadgen.OpDecide:
			want, exists := live[ev.Session]
			if !exists {
				t.Fatalf("decide on dead session %s at %v", ev.Session, ev.AtS)
			}
			if ev.Obs.Epoch != want {
				t.Fatalf("session %s epoch %d, want %d", ev.Session, ev.Obs.Epoch, want)
			}
			if len(ev.Obs.Cycles) == 0 || ev.Obs.PeriodS <= 0 {
				t.Fatalf("decide %s has a hollow observation: %+v", ev.Session, ev.Obs)
			}
			live[ev.Session] = want + 1
			decides++
		case loadgen.OpDelete:
			if _, exists := live[ev.Session]; !exists {
				t.Fatalf("delete of dead session %s at %v", ev.Session, ev.AtS)
			}
			delete(live, ev.Session)
			deletes++
			if ev.AtS == spec.Storms[0].AtS || ev.AtS == spec.Storms[1].AtS {
				stormDeletes++
			}
		}
	}
	if len(live) != 0 {
		t.Fatalf("%d sessions still live after drain", len(live))
	}
	if creates != deletes {
		t.Fatalf("creates %d != deletes %d", creates, deletes)
	}
	clients := 0
	for _, c := range spec.Clients {
		clients += c.Count
	}
	if creates <= clients {
		t.Fatalf("creates %d <= client count %d: no session ever recycled its id", creates, clients)
	}
	if decides < 10*clients {
		t.Fatalf("only %d decides for %d clients over %vs", decides, clients, spec.HorizonS)
	}
	// The second storm takes every live session down.
	if stormDeletes < clients {
		t.Fatalf("only %d storm-time deletes, want at least %d (total storm)", stormDeletes, clients)
	}
}

func TestMaxEventsCapsSchedule(t *testing.T) {
	spec := testSpec()
	spec.MaxEvents = 100
	g, err := loadgen.New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := 0
	for {
		_, ok, err := g.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("emitted %d events, want exactly 100", n)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	base := testSpec()
	cases := []struct {
		name   string
		mutate func(*loadgen.Spec)
	}{
		{"zero horizon", func(s *loadgen.Spec) { s.HorizonS = 0 }},
		{"no clients", func(s *loadgen.Spec) { s.Clients = nil }},
		{"bad process", func(s *loadgen.Spec) { s.Clients[0].Arrival.Process = "uniform" }},
		{"zero rate", func(s *loadgen.Spec) { s.Clients[0].Arrival.RateHz = 0 }},
		{"unknown governor", func(s *loadgen.Spec) { s.Clients[0].Governor = "nope" }},
		{"unknown platform", func(s *loadgen.Spec) { s.Clients[0].Platform = "nope" }},
		{"pareto alpha <= 1", func(s *loadgen.Spec) { s.Clients[0].RateSkew = &loadgen.Skew{Dist: "pareto", Param: 1} }},
		{"bad skew dist", func(s *loadgen.Spec) { s.Clients[0].RateSkew = &loadgen.Skew{Dist: "zipf", Param: 2} }},
		{"storm fraction > 1", func(s *loadgen.Spec) { s.Storms[0].Fraction = 1.5 }},
		{"storm past horizon", func(s *loadgen.Spec) { s.Storms[1].AtS = 99 }},
		{"unsorted storms", func(s *loadgen.Spec) { s.Storms[0].AtS = 25 }},
	}
	for _, tc := range cases {
		spec := base
		spec.Clients = append([]loadgen.ClientClass(nil), base.Clients...)
		spec.Storms = append([]loadgen.Storm(nil), base.Storms...)
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
}

// runSpec runs the spec's schedule against a fresh Local oracle.
func runSpec(t *testing.T, spec loadgen.Spec, opts loadgen.RunOptions) *loadgen.Report {
	t.Helper()
	g, err := loadgen.New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := loadgen.Run(g, loadgen.NewLocal(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestRunLaneIndependence is the determinism contract end to end: the
// same schedule against a deterministic target yields the same aggregate
// checksum and counts at any lane count and any batch size.
func TestRunLaneIndependence(t *testing.T) {
	spec := testSpec()
	spec.HorizonS = 12
	spec.Storms = []loadgen.Storm{{AtS: 6, Fraction: 0.6, RestartDelayS: 0.5}}
	var first *loadgen.Report
	for _, opts := range []loadgen.RunOptions{
		{Lanes: 1},
		{Lanes: 7, BatchMax: 16},
		{Lanes: 3, BatchMax: 1},
	} {
		rep := runSpec(t, spec, opts)
		if rep.CreateErrors != 0 || rep.DeleteErrors != 0 || rep.DecideErrors != 0 {
			t.Fatalf("lanes=%d: errors in clean run: %+v", opts.Lanes, rep)
		}
		if rep.EndLive != 0 {
			t.Fatalf("lanes=%d: %d sessions live after drain", opts.Lanes, rep.EndLive)
		}
		if rep.PeakLive == 0 || rep.Decides == 0 || rep.Creates == 0 {
			t.Fatalf("lanes=%d: hollow run: %+v", opts.Lanes, rep)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Checksum != first.Checksum {
			t.Fatalf("lanes=%d: checksum %x != lanes=1 checksum %x", opts.Lanes, rep.Checksum, first.Checksum)
		}
		if rep.Creates != first.Creates || rep.Deletes != first.Deletes || rep.Decides != first.Decides {
			t.Fatalf("lanes=%d: counts diverge: %+v vs %+v", opts.Lanes, rep, first)
		}
	}
}

// TestRunReplayMatchesLive proves a recorded trace is the schedule: a
// replayed run produces the identical checksum to the generated run.
func TestRunReplayMatchesLive(t *testing.T) {
	spec := testSpec()
	spec.HorizonS = 12
	spec.Storms = []loadgen.Storm{{AtS: 6, Fraction: 0.6, RestartDelayS: 0.5}}
	trace := record(t, spec)
	live := runSpec(t, spec, loadgen.RunOptions{Lanes: 4})
	replayed, err := loadgen.Run(loadgen.NewTraceReader(bytes.NewReader(trace)), loadgen.NewLocal(), loadgen.RunOptions{Lanes: 2})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if replayed.Checksum != live.Checksum {
		t.Fatalf("replay checksum %x != live checksum %x", replayed.Checksum, live.Checksum)
	}
	if replayed.Decides != live.Decides || replayed.Creates != live.Creates {
		t.Fatalf("replay counts diverge: %+v vs %+v", replayed, live)
	}
}

func TestTeeRecordsWhatRan(t *testing.T) {
	spec := testSpec()
	spec.HorizonS = 6
	spec.Storms = nil
	direct := record(t, spec)
	g, err := loadgen.New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var buf bytes.Buffer
	tee := loadgen.NewTee(g, &buf)
	if _, err := loadgen.Run(tee, loadgen.NewLocal(), loadgen.RunOptions{Lanes: 2}); err != nil {
		t.Fatalf("Run through tee: %v", err)
	}
	if err := tee.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !bytes.Equal(direct, buf.Bytes()) {
		t.Fatal("tee recording differs from a direct recording of the same spec")
	}
}

func TestLocalTargetContract(t *testing.T) {
	l := loadgen.NewLocal()
	body := []byte(`{"id":"x","governor":"rtm","period_s":0.04,"seed":7}`)
	if st, _, err := l.CreateSession(body); err != nil || st != http.StatusCreated {
		t.Fatalf("create: status %d err %v", st, err)
	}
	if st, _, _ := l.CreateSession(body); st != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", st)
	}
	if st, _, _ := l.CreateSession([]byte(`{"id":"y","governor":"nope"}`)); st != http.StatusBadRequest {
		t.Fatalf("bad governor: status %d, want 400", st)
	}
	obs := []governor.Observation{{
		Epoch:     0,
		Cycles:    []uint64{30e6, 30e6, 30e6, 30e6},
		Util:      []float64{0.6, 0.6, 0.6, 0.6},
		PeriodS:   0.04,
		ExecTimeS: 0.02,
		WallTimeS: 0.04,
		PowerW:    2,
		TempC:     50,
		OPPIdx:    3,
	}}
	out := make([]client.Decision, 1)
	if err := l.DecideBatch([]string{"x"}, obs, out); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if out[0].Err != "" || out[0].OPPIdx < 0 || out[0].FreqMHz <= 0 {
		t.Fatalf("decide on live session: %+v", out[0])
	}
	if err := l.DecideBatch([]string{"ghost"}, obs, out); err != nil {
		t.Fatalf("decide ghost: %v", err)
	}
	if out[0].Err == "" {
		t.Fatal("decide on unknown session did not error per-decision")
	}
	if st, _, _ := l.DeleteSession("x"); st != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", st)
	}
	if st, _, _ := l.DeleteSession("x"); st != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", st)
	}
	if n := l.Len(); n != 0 {
		t.Fatalf("%d sessions left, want 0", n)
	}
}
