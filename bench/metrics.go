package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the serving stack sees. Every
// workload reports all of them (see README.md for how each is measured
// on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"decide_p50_us", "us", "lower", 0.2},
	{"decide_p90_us", "us", "lower", 0.25},
	{"decides_per_s", "1/s", "higher", 0.2},
	{"live_kb_per_session", "KB", "lower", 0.1},
}

// perLayer are the traced run's single-layer numbers, plus the
// end-to-end measurements too noisy from run to run to gate on (the
// first five, taken from the untraced pass). A layer a workload bypasses
// reports 0 (no router hop on a flat server, no checkpoint on a workload
// without a checkpoint directory).
var perLayer = []metricSpec{
	{"server_cpu_us_per_decide", "us", "lower", 0},
	{"decide_p99_us", "us", "lower", 0},
	{"control_p90_us", "us", "lower", 0},
	{"control_p99_us", "us", "lower", 0},
	{"scrape_p50_ms", "ms", "lower", 0},
	{"governor.decide_ns", "ns", "lower", 0},
	{"governor.decide_allocs", "count", "lower", 0},
	{"sessionstore.get_ns", "ns", "lower", 0},
	{"sessionstore.put_ns", "ns", "lower", 0},
	{"sessionstore.delete_ns", "ns", "lower", 0},
	{"wire.observe_encode_ns", "ns", "lower", 0},
	{"wire.observe_decode_ns", "ns", "lower", 0},
	{"wire.decide_encode_ns", "ns", "lower", 0},
	{"wire.decide_decode_ns", "ns", "lower", 0},
	{"wire.bytes_per_decide", "B", "lower", 0},
	{"serve.decide_lock_p50_us", "us", "lower", 0},
	{"serve.decide_lock_p99_us", "us", "lower", 0},
	{"serve.decisions", "count", "higher", 0},
	{"client.batch_rtt_p50_us", "us", "lower", 0},
	{"client.batch_rtt_p99_us", "us", "lower", 0},
	{"client.batch_size_mean", "count", "higher", 0},
	{"router.hop_p50_us", "us", "lower", 0},
	{"router.hop_p99_us", "us", "lower", 0},
	{"router.relay_overhead_p50_us", "us", "lower", 0},
	{"control.create_p50_us", "us", "lower", 0},
	{"control.create_p99_us", "us", "lower", 0},
	{"control.delete_p99_us", "us", "lower", 0},
	{"checkpoint.writes", "count", "lower", 0},
	{"checkpoint.skipped", "count", "higher", 0},
	{"checkpoint.window_rtt_p99_us", "us", "lower", 0},
	{"checkpoint.outside_rtt_p99_us", "us", "lower", 0},
	{"metrics.scrape_bytes", "B", "lower", 0},
	{"metrics.window_rtt_p99_us", "us", "lower", 0},
	{"metrics.loaded_scrape_p50_ms", "ms", "lower", 0},
	{"qpage.pool_pages_end", "count", "lower", 0},
	{"qpage.cow_faults", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
	{"runtime.sched_latency_p99_us", "us", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},
	{"proc.rss_mb", "MB", "lower", 0},
	{"span.router_self_p50_us", "us", "lower", 0},
	{"span.decide_p50_us", "us", "lower", 0},
	{"gen.lag_p50_us", "us", "lower", 0},
	{"gen.lag_p99_us", "us", "lower", 0},
	{"gen.cpu_us_per_decide", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"ladder.batcher_residual_us", "us", "lower", 0},
	{"paper.deadline_miss_frac", "ratio", "lower", 0},
	{"paper.energy_mj_per_frame", "mJ", "lower", 0},
}

// quantileLadder is where tailQuantile falls back to when a sample is
// too small for the quantile asked for.
var quantileLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest quantile, at most want, that leaves
// at least ten of n samples beyond its nearest-rank position — the tail
// a sample of that size can support. Below twenty samples it is the
// median.
func tailQuantile(n int, want float64) float64 {
	for _, q := range quantileLadder {
		if q <= want && n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// quantile is the nearest-rank q-quantile of an ascending sample; 0 for
// an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// dist is one timing distribution: its median, its p90 and the highest
// tail its sample supports up to p99 (each falling back as tailQuantile
// does when the sample is small).
type dist struct {
	N     int
	P50   float64
	P90   float64
	TailQ float64
	Tail  float64
}

// summarize sorts samples in place and summarises them.
func summarize(samples []float64) dist {
	sort.Float64s(samples)
	q := tailQuantile(len(samples), 0.99)
	return dist{
		N:     len(samples),
		P50:   quantile(samples, 0.5),
		P90:   quantile(samples, tailQuantile(len(samples), 0.9)),
		TailQ: q,
		Tail:  quantile(samples, q),
	}
}

func (d dist) String() string {
	return fmt.Sprintf("p50 %.1f p90 %.1f p%g %.1f (n=%d)", d.P50, d.P90, d.TailQ*100, d.Tail, d.N)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// outcome is one run's verdict and metrics, the body of the final JSON
// line the benchmark prints.
type outcome struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the result line: exactly the metrics of specs, each
// with its unit. A missing, extra or non-finite metric is a harness bug
// and an error.
func resultLine(o outcome, specs []metricSpec) ([]byte, error) {
	if len(o.Metrics) != len(specs) {
		return nil, fmt.Errorf("bench: %d metrics measured, %d declared", len(o.Metrics), len(specs))
	}
	ms := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := o.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", s.Name, v)
		}
		ms[s.Name] = metricValue{v, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
}
