package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// compareMain reads two sets of result files (-repeat's output), the
// parent's before "--" and the change's after, and prints one row per
// workload and metric with each side's median and quartiles and a
// verdict.
func compareMain(args []string, w io.Writer) error {
	i := slices.Index(args, "--")
	if i <= 0 || i == len(args)-1 {
		return fmt.Errorf("usage: compare A.json... -- B.json...")
	}
	a, err := loadResults(args[:i])
	if err != nil {
		return err
	}
	b, err := loadResults(args[i+1:])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tverdict")
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, s := range append(slices.Clone(endToEnd), perLayer...) {
			av, bv := a[name][s.Name], b[name][s.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			qa, qb := quartiles(av), quartiles(bv)
			delta := 0.0
			if qa[1] != 0 {
				delta = qb[1]/qa[1] - 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\n",
				name, s.Name, s.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], delta*100, verdict(s, av, bv))
		}
	}
	return tw.Flush()
}

// loadResults groups result files' metric values by workload and metric.
func loadResults(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, nil
}

// quartiles are the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(values, n=4).
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := float64(i*m - j*4)
		lo, hi := s[max(j-1, 0)], s[min(j, n-1)]
		q[i-1] = (lo*(4-delta) + hi*delta) / 4
	}
	return q
}

// verdict applies the acceptance rules of a paired comparison: a gain
// needs the change to win nine pairs in ten and to move the median by
// more than the parent's own quartile spread; a regression is a median
// worse by more than the metric's bound; a parent spread wider than the
// bound leaves the metric unresolved unless every change run beats
// every parent run. Per-layer metrics have no bound and are only ever
// reported as improved or not.
func verdict(s metricSpec, a, b []float64) string {
	better := func(x, y float64) bool { // x better than y
		if s.Better == "higher" {
			return x > y
		}
		return x < y
	}
	qa, qb := quartiles(a), quartiles(b)
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0] {
		return "improved"
	}
	if s.Bound == 0 {
		return "-"
	}
	if worse := qb[1] - qa[1]; s.Better == "higher" && -worse > s.Bound*math.Abs(qa[1]) ||
		s.Better == "lower" && worse > s.Bound*math.Abs(qa[1]) {
		return "regressed"
	}
	if qa[1] != 0 && (qa[2]-qa[0])/math.Abs(qa[1]) > s.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "within bound"
}
