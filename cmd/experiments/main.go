// Command experiments regenerates the paper's tables and figures, and runs
// streaming scenario sweeps over the governor × workload × platform
// registry.
//
// Usage:
//
//	experiments -run all                 # everything, paper-scale
//	experiments -run table1 -frames 800  # one experiment, reduced scale
//	experiments -run fig3 -csv out/      # also write the plot series CSV
//	experiments -run sweep -match 'rtm/*/a15' -frames 400
//	experiments -run sweep -match '*/h264-football/*' -seeds 3
//
// Each experiment prints the measured values next to the numbers the paper
// reports; see EXPERIMENTS.md for how to read the comparison. Sweeps print
// one aggregate row per scenario, computed online — memory stays bounded
// by the worker count however many jobs the pattern expands to.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"qgov/internal/experiments"
	"qgov/internal/scenario"
	"qgov/internal/sim"
)

func main() {
	var (
		runWhat = flag.String("run", "all", "experiment: all|table1|table2|table3|fig3|ablations|multiapp|transfer|sweep")
		frames  = flag.Int("frames", 0, "frames per run (0: each experiment's paper-scale default)")
		seeds   = flag.Int("seeds", len(experiments.DefaultSeeds), "number of seeds to average over")
		csvDir  = flag.String("csv", "", "directory to write per-frame CSV series into (fig3)")
		match   = flag.String("match", "rtm/*/a15", "with -run sweep: scenario pattern (see internal/scenario)")
		workers = flag.Int("workers", 0, "with -run sweep: worker pool size (0: GOMAXPROCS)")
	)
	flag.Parse()

	valid := map[string]bool{
		"all": true, "table1": true, "table2": true, "table3": true,
		"fig3": true, "ablations": true, "multiapp": true, "transfer": true,
		"sweep": true,
	}
	if !valid[*runWhat] {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *runWhat)
		os.Exit(2)
	}

	seedList, err := seedsFor(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	if *runWhat == "sweep" {
		if err := runSweep(*match, seedList, *frames, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func() error) {
		if *runWhat != "all" && *runWhat != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		return experiments.TableI(seedList, *frames).Render(os.Stdout)
	})
	run("table2", func() error {
		return experiments.TableII(seedList, *frames).Render(os.Stdout)
	})
	run("table3", func() error {
		return experiments.TableIII(seedList, *frames).Render(os.Stdout)
	})
	run("fig3", func() error {
		fig := experiments.Fig3(seedList[0], *frames)
		if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, "fig3.csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := fig.WriteCSV(f); err != nil {
				return err
			}
			fmt.Printf("  series written to %s\n", path)
		}
		return nil
	})
	run("ablations", func() error {
		return experiments.RenderAblations(os.Stdout, seedList, *frames)
	})
	run("multiapp", func() error {
		return experiments.MultiApp(seedList, *frames).Render(os.Stdout)
	})
	run("transfer", func() error {
		res, err := experiments.TransferMatrix(seedList, *frames)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	})
}

// seedsFor returns the first n of experiments.DefaultSeeds, or an error
// naming the valid range when n falls outside it.
func seedsFor(n int) ([]int64, error) {
	all := experiments.DefaultSeeds
	if n < 1 || n > len(all) {
		return nil, fmt.Errorf("-seeds %d is out of range: want 1 to %d", n, len(all))
	}
	return all[:n], nil
}

// runSweep streams the scenarios × seeds product through the worker pool
// and folds each scenario's runs into an online aggregate — the 10k-job
// path: nothing per-run is retained.
func runSweep(pattern string, seeds []int64, frames, workers int) error {
	scenarios, err := scenario.Match(pattern)
	if err != nil {
		return err
	}
	fmt.Printf("sweep: %d scenarios × %d seeds = %d runs\n",
		len(scenarios), len(seeds), len(scenarios)*len(seeds))

	aggs := make(map[string]*sim.Aggregator, len(scenarios))
	for ir := range sim.Stream(scenario.JobStream(scenarios, seeds, frames), workers) {
		name := ir.Name
		if i := strings.LastIndexByte(name, '@'); i >= 0 {
			name = name[:i] // fold seeds of one scenario together
		}
		a := aggs[name]
		if a == nil {
			a = new(sim.Aggregator)
			aggs[name] = a
		}
		a.Add(ir.Result)
	}

	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\truns\tenergy J\t±σ\tnorm perf\tmiss\tconverged@")
	for _, n := range names {
		s := aggs[n].Summary()
		conv := "-"
		if s.MeanConvergeAt == s.MeanConvergeAt { // not NaN
			conv = fmt.Sprintf("%.0f", s.MeanConvergeAt)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.1f%%\t%s\n",
			n, s.Runs, s.MeanEnergyJ, s.StdEnergyJ, s.MeanNormPerf, s.MeanMissRate*100, conv)
	}
	return tw.Flush()
}
