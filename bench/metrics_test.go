package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, // p99.9 is not asked for, whatever the sample
		{1000, 0.99},   // exactly ten beyond rank 990
		{999, 0.95},    // nine beyond p99's rank
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{40, 0.75},
		{20, 0.5},
		{5, 0.5}, // too small for any tail: the median
	} {
		if got := tailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailQuantile(100000, 0.999); got != 0.999 {
		t.Errorf("tailQuantile(100000, 0.999) = %v", got)
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 1000 down to 1
	}
	d := summarize(v)
	if d.P50 != 500 || d.TailQ != 0.99 || d.Tail != 990 || d.N != 1000 {
		t.Fatalf("summarize(1..1000) = %+v", d)
	}
	if e := summarize(nil); e.Tail != 0 || e.P50 != 0 {
		t.Fatalf("empty sample summarises to %+v", e)
	}
}

// benchmarkFile is BENCHMARK.json's schema, exactly.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// BENCHMARK.json must declare exactly the workloads the command runs and
// the metrics it emits, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	sameSpecs(t, "end_to_end", f.EndToEnd, endToEnd)
	sameSpecs(t, "per_layer", f.PerLayer, perLayer)
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
	maxBound := 0.0
	for _, s := range f.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		maxBound = math.Max(maxBound, s.Bound)
	}
	for _, s := range f.EndToEnd {
		if s.Name == "setup_s" && s.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", s.Bound, maxBound)
		}
	}
}

func sameSpecs(t *testing.T, section string, file, code []metricSpec) {
	t.Helper()
	if len(file) != len(code) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the command emits %d", section, len(file), len(code))
	}
	for i := range file {
		if file[i] != code[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", section, i, file[i], code[i])
		}
	}
}

// The result line carries exactly the declared metrics, each with its
// unit, and refuses to print an incomplete set.
func TestResultLineEmitsDeclaredMetrics(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		m := map[string]float64{}
		for i, s := range specs {
			m[s.Name] = float64(i) + 0.5
		}
		line, err := resultLine(outcome{Correct: true, Attempted: 10, Metrics: m}, specs)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]metricValue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if len(got.Metrics) != len(specs) {
			t.Fatalf("%d metrics in the line, %d declared", len(got.Metrics), len(specs))
		}
		for _, s := range specs {
			if mv, ok := got.Metrics[s.Name]; !ok || mv.Unit != s.Unit || mv.Value != m[s.Name] {
				t.Errorf("%s: got %+v", s.Name, mv)
			}
		}
		delete(m, specs[0].Name)
		if _, err := resultLine(outcome{Metrics: m}, specs); err == nil || !strings.Contains(err.Error(), "metrics measured") {
			t.Errorf("a missing metric was not refused: %v", err)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the acceptance check applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x", Unit: "us", Better: "lower", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{[]float64{100, 102, 98, 101, 99, 100, 100, 101, 99, 100}, "within bound"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regressed"},
	} {
		if got := verdict(lower, a, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	noisy := []float64{50, 150, 70, 130, 90, 110, 60, 140, 80, 120}
	if got := verdict(lower, noisy, []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}); got != "unresolved" {
		t.Errorf("a parent spread beyond the bound gave %s", got)
	}
}
