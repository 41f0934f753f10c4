// Command bench is the repository's end-to-end benchmark: it builds
// nothing itself (bench/run.sh builds it and rtmd), starts rtmd servers
// as separate processes, drives them from this one generator process
// over the binary transport, checks every answer against an in-process
// oracle, and prints every metric by name with its unit. The last line
// of standard output is the run's result as one JSON object.
//
//	bash bench/run.sh --workload paper-fleet --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1          # every workload
//	bash bench/run.sh --repeat 5 --seed 1              # result files for compare
//	bash bench/run.sh compare A.json... -- B.json...   # parent vs change
//
// --trace 1 runs the workload twice, untraced then traced, and reports
// the per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 15, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced run")
		repeat  = flag.Int("repeat", 0, "run the workloads this many rounds, alternating them, seeds seed, seed+1, ...; write one result file per run")
		rtmd    = flag.String("rtmd", ".bench_build/rtmd", "rtmd binary to benchmark")
		out     = flag.String("out", "bench/out", "directory for spans, result files and server scratch")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compareMain(flag.Args()[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The generator gets at most two cores, like the servers it shares
	// the machine with.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{rtmd: *rtmd, out: *out, seed: *seed, seconds: float64(*seconds)}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}

	ok := true
	if *repeat > 0 {
		ok = repeatMain(ctx, cfg, ws, *repeat, *traced == 1)
	} else {
		for _, w := range ws {
			o, err := runWorkload(ctx, cfg, w, *traced == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			line, err := report(w, o, *traced == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
			ok = ok && o.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload is one run: untraced end-to-end, or untraced then traced
// for the per-layer metrics.
func runWorkload(ctx context.Context, cfg config, w *workload, traced bool) (outcome, error) {
	if !traced {
		p, err := runPass(ctx, cfg, w, false, setupReps)
		if err != nil {
			return outcome{}, err
		}
		m := map[string]float64{}
		for _, s := range endToEnd {
			m[s.Name] = p.metrics[s.Name]
		}
		return outcome{p.correct, p.attempted, p.failed, m}, nil
	}
	plain, err := runPass(ctx, cfg, w, false, 1)
	if err != nil {
		return outcome{}, err
	}
	tr, err := runPass(ctx, cfg, w, true, 1)
	if err != nil {
		return outcome{}, err
	}
	m := tr.layers
	rep, err := replayLayers(tr.recorded, tr.ids)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: layer replays: %w", w.name, err)
	}
	for k, v := range rep {
		m[k] = v
	}
	for _, name := range []string{"server_cpu_us_per_decide", "decide_p99_us", "control_p90_us", "control_p99_us", "scrape_p50_ms"} {
		m[name] = plain.metrics[name]
	}
	m["trace.overhead_frac"] = tr.metrics["decide_p50_us"]/plain.metrics["decide_p50_us"] - 1
	// The ladder: server CPU per decide less the rungs measured alone.
	m["ladder.batcher_residual_us"] = plain.metrics["server_cpu_us_per_decide"] -
		(m["governor.decide_ns"]+m["sessionstore.get_ns"]+m["wire.observe_decode_ns"]+m["wire.decide_encode_ns"])/1e3
	return outcome{
		Correct:   plain.correct && tr.correct,
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed,
		Metrics:   m,
	}, nil
}

// report prints one line per metric and returns the result line.
func report(w *workload, o outcome, traced bool) ([]byte, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Printf("%s %s %.6g %s\n", w.name, s.Name, o.Metrics[s.Name], s.Unit)
	}
	fmt.Printf("%s correct=%v attempted=%d failed=%d\n", w.name, o.Correct, o.Attempted, o.Failed)
	return resultLine(o, specs)
}

// savedResult is one run as -repeat writes it and compare reads it.
type savedResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// repeatMain runs rounds × workloads, alternating the workloads within
// each round, and writes out/results/<workload>-<seed>.json per run.
func repeatMain(ctx context.Context, cfg config, ws []*workload, rounds int, traced bool) bool {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	ok := true
	base := cfg.seed
	for r := 0; r < rounds; r++ {
		cfg.seed = base + int64(r)
		for _, w := range ws {
			o, err := runWorkload(ctx, cfg, w, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, cfg.seed, err)
				return false
			}
			if _, err := report(w, o, traced); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			ok = ok && o.Correct
			b, err := json.MarshalIndent(savedResult{w.name, cfg.seed, traced, o.Correct, o.Attempted, o.Failed, o.Metrics}, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, cfg.seed)), b, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
		}
	}
	return ok
}
