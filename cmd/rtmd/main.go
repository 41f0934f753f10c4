// Command rtmd serves governor decisions online: the run-time manager as
// a daemon instead of a closed simulation loop. Each controlled cluster
// creates a session (its own governor instance and learning state) and
// posts one observation per decision epoch to the batched /v1/decide
// endpoint, receiving the operating-point index to apply next — the
// deployment direction of Kim et al. (arXiv:1712.00076): take the learnt
// manager out of the simulator and put it behind the OS.
//
// Usage:
//
//	rtmd -addr :8090
//	rtmd -addr :8090 -listen-tcp :8091
//	rtmd -addr :8090 -checkpoint-dir /var/lib/rtmd -checkpoint-every 30s
//	rtmd -addr :8090 -registry-dir /srv/rtmd-registry
//	rtmd -route -replicas host1:8091,host2:8091 -addr :8080 -listen-tcp :8081
//
//	curl -s localhost:8090/v1/sessions -d '{"id":"cluster0","governor":"rtm","seed":1}'
//	curl -s localhost:8090/v1/decide -d '{"requests":[{"session":"cluster0","obs":{"epoch":-1}}]}'
//
// -listen-tcp additionally serves the binary wire protocol (see
// internal/wire and the README's "Wire protocol" section) on persistent
// multiplexed connections — the transport fast path, several times the
// decisions/s of the JSON endpoint. HTTP stays up alongside it as the
// human-facing control plane; every HTTP route runs the same control
// and decide code as the binary frames, which differ only in framing.
// The control plane also runs over the binary protocol (wire control
// frames), so a routed fleet needs no HTTP between tiers.
//
// -route turns rtmd into the stateless routing tier of a sharded fleet:
// it owns no sessions, places every session id on one of the -replicas
// (comma-separated binary-transport addresses) with a consistent-hash
// ring, and forwards both planes over multiplexed binary connections.
// The decide path is a zero-copy pipelined relay: observe payload bytes
// are forwarded verbatim (only the request id is rewritten) and up to
// four batches stay in flight per inbound connection.
// -conns-per-replica opens N connections per replica and stripes
// relayed batches across them. Point every replica at the same
// -checkpoint-dir or -registry-dir (shared storage) and sessions can
// move between replicas by a restart reshard (below). Clients talk to a
// router exactly as they would to a flat rtmd.
//
// rtmd is only a server: load is driven and measured by the benchmark
// (bench/), which runs rtmd as its own process.
//
// Learning state is checkpointed periodically and on graceful shutdown
// (SIGINT/SIGTERM) — both listeners drain before the final freeze — and
// a restarted rtmd warm-starts every session that is re-created under
// its old id.
//
// -registry-dir points the replica at a checkpoint-registry blob store
// (internal/registry) instead of a plain checkpoint directory: session
// checkpoints live beside the registry's published manifests, replicas
// sharing the store pick up each other's sessions after a reshard, and
// session creates
// may carry warm_start ("auto" or a manifest id) to start from the
// fleet's pooled training. -ring-self/-ring-members tell a routed
// replica which consistent-hash shards it owns, so its startup
// compaction sweep reads only its own fraction of the shared store;
// both flags must carry the router's -replicas address strings verbatim
// — the ring hashes member strings, so "host1:8091" and "10.0.0.1:8091"
// are different members even when they name the same machine.
//
// A router's ring is fixed for its lifetime: resharding (adding or
// removing replicas) is a restart over the shared store.
//
//  1. Stop every rtmd gracefully (SIGINT/SIGTERM), the replicas too,
//     so each replica's final sweep checkpoints every session it
//     holds.
//  2. Start the replicas with one shared -registry-dir (or
//     -checkpoint-dir), each with its own -ring-self and all with the
//     same new -ring-members list.
//  3. Start rtmd -route -replicas with that same list.
//  4. Re-create each session id (its original create body will do): the
//     replica the new ring places it on warm-starts it from its
//     checkpoint.
//
// A restart is a warm start, not an exact resume: the checkpoint brings
// back the Q-tables, visit counts, calibration range and ε position,
// but the RNG, the workload predictors, the slack window and the
// in-flight transition start afresh, so decisions after the restart
// can differ from an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"qgov/internal/registry"
	"qgov/internal/ring"
	"qgov/internal/serve"
	"qgov/internal/sessionstore"
	"qgov/internal/stats"
	"qgov/internal/trace"

	// Register the RTM variants with the governor registry.
	_ "qgov/internal/core"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "HTTP listen address (control plane + JSON decide)")
		tcpAddr    = flag.String("listen-tcp", "", "binary wire-protocol listen address (empty: HTTP only)")
		route      = flag.Bool("route", false, "run as a stateless router over -replicas instead of serving sessions")
		replicas   = flag.String("replicas", "", "comma-separated replica binary-transport addresses (with -route)")
		connsPer   = flag.Int("conns-per-replica", 1, "binary connections the router holds per replica; batches stripe across them (with -route)")
		platform   = flag.String("platform", "a15", "default platform variant for new sessions")
		periodS    = flag.Float64("period", 0.040, "default decision-epoch deadline Tref in seconds")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for session learning-state checkpoints (empty: no persistence)")
		regDir     = flag.String("registry-dir", "", "checkpoint-registry blob store root; enables warm_start resolution and stores session checkpoints in the registry (mutually exclusive with -checkpoint-dir)")
		ckptEvery  = flag.Duration("checkpoint-every", 30*time.Second, "period of the background checkpoint sweep")
		ringSelf   = flag.String("ring-self", "", "this replica's address exactly as it appears in the router's -replicas list; with -ring-members, restricts the startup compaction sweep to this member's own shards")
		ringAll    = flag.String("ring-members", "", "the router's -replicas list, verbatim (placement hashes the address strings, so the lists must match byte for byte)")
		drainGrace = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		quiet      = flag.Bool("quiet", false, "suppress operational logging")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and /debug/runtime on this address (empty: off)")

		traceSample = flag.Float64("trace-sample", 0, "probability a decide batch is head-sampled into the trace ring (0: off)")
		traceSlow   = flag.Duration("trace-slow", 0, "tail-capture decide batches slower than this (0: off)")
		traceBuf    = flag.Int("trace-buf", 0, "trace ring capacity in spans (0: default)")
	)
	flag.Parse()

	logger, err := buildLogger(*quiet, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	tracer, err := buildTracer(*traceSample, *traceSlow, *traceBuf)
	if err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		go startDebug(*debugAddr, logger)
	}

	if *route {
		// Session-serving flags are dead in router mode (the router owns
		// no sessions and no checkpoints); passing one means the operator
		// expects behavior they are not getting, so fail loudly instead
		// of silently dropping it.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "checkpoint-dir", "registry-dir", "checkpoint-every", "platform", "period", "ring-self", "ring-members":
				fatal(fmt.Errorf("-%s applies to replicas, not the router; set it on each replica rtmd", f.Name))
			}
		})
		routeMain(*addr, *tcpAddr, *replicas, *connsPer, *drainGrace, logger, tracer)
		return
	}
	if *replicas != "" {
		fatal(errors.New("-replicas requires -route"))
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "conns-per-replica":
			fatal(fmt.Errorf("-%s requires -route", f.Name))
		}
	})

	var ckpt sessionstore.CheckpointStore
	var reg *registry.Registry
	switch {
	case *regDir != "" && *ckptDir != "":
		fatal(errors.New("-checkpoint-dir and -registry-dir are two homes for the same state; pick one"))
	case *regDir != "":
		blobs, err := registry.NewDir(*regDir)
		if err != nil {
			fatal(err)
		}
		reg = registry.New(blobs)
		ckpt = registry.Checkpoints(blobs)
	case *ckptDir != "":
		d, err := sessionstore.NewDir(*ckptDir)
		if err != nil {
			fatal(err)
		}
		ckpt = d
	}

	// A routed replica that knows the fleet's ring sweeps only its own
	// shards at startup instead of reading every checkpoint in a shared
	// store.
	var compactOwn func(id string) bool
	if *ringSelf != "" || *ringAll != "" {
		if *ringSelf == "" || *ringAll == "" {
			fatal(errors.New("-ring-self and -ring-members go together"))
		}
		var members []string
		for _, m := range strings.Split(*ringAll, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		rg := ring.New(0, members...)
		if !rg.Has(*ringSelf) {
			fatal(fmt.Errorf("-ring-self %q is not in -ring-members %v", *ringSelf, members))
		}
		compactOwn = func(id string) bool {
			owner, ok := rg.Owner(id)
			return ok && owner == *ringSelf
		}
	}

	srv := serve.New(serve.Options{
		DefaultPlatform:  *platform,
		DefaultPeriodS:   *periodS,
		Checkpoints:      ckpt,
		CheckpointEvery:  *ckptEvery,
		Registry:         reg,
		CompactionFilter: compactOwn,
		Log:              logger,
		Tracer:           tracer,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	var tcpSrv *serve.TCPServer
	if *tcpAddr != "" {
		lis, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fatal(err)
		}
		tcpSrv = serve.NewTCP(srv, lis)
		go func() {
			// An accept error ends the binary listener but must not kill
			// the process: HTTP keeps serving and, crucially, the final
			// checkpoint still runs on shutdown.
			if err := tcpSrv.Serve(); err != nil {
				logger.Warn("binary transport down", "err", err)
			}
		}()
		logger.Info("binary transport listening", "addr", lis.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		logger.Info("shutting down", "drain", *drainGrace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		// Drain both transports in parallel within the same grace window.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hs.Shutdown(drainCtx); err != nil {
				logger.Warn("http drain", "err", err)
			}
		}()
		if tcpSrv != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tcpSrv.Shutdown(drainCtx); err != nil {
					logger.Warn("tcp drain", "err", err)
				}
			}()
		}
		wg.Wait()
	}()

	logger.Info("serving", "addr", *addr, "platform", *platform, "period_s", *periodS)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	// ListenAndServe returns the moment Shutdown begins; wait for both
	// transports to finish draining before the final checkpoint, so no
	// in-flight decision can land between the freeze and exit.
	<-drained
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// routeMain runs the routing tier: no sessions, no checkpoints — just
// the ring, one multiplexed binary connection per replica, and the same
// two listener fronts a replica has.
func routeMain(addr, tcpAddr, replicaList string, connsPer int, drainGrace time.Duration, logger *slog.Logger, tracer *trace.Tracer) {
	var addrs []string
	for _, a := range strings.Split(replicaList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatal(errors.New("-route requires -replicas host1:port,host2:port,..."))
	}
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{Log: logger, Tracer: tracer, ConnsPerReplica: connsPer})
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Addr: addr, Handler: rt.Handler()}

	var tcpSrv *serve.TCPServer
	if tcpAddr != "" {
		lis, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			fatal(err)
		}
		tcpSrv = serve.NewRouterTCP(rt, lis)
		go func() {
			if err := tcpSrv.Serve(); err != nil {
				logger.Warn("routed binary transport down", "err", err)
			}
		}()
		logger.Info("routed binary transport listening", "addr", lis.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		logger.Info("router shutting down", "drain", drainGrace)
		drainCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
		defer cancel()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hs.Shutdown(drainCtx); err != nil {
				logger.Warn("http drain", "err", err)
			}
		}()
		if tcpSrv != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tcpSrv.Shutdown(drainCtx); err != nil {
					logger.Warn("tcp drain", "err", err)
				}
			}()
		}
		wg.Wait()
	}()

	logger.Info("routing", "addr", addr, "replicas", strings.Join(addrs, ","))
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
	if err := rt.Close(); err != nil {
		fatal(err)
	}
}

// buildLogger constructs the process-wide structured logger from the
// -quiet/-log-level/-log-format flags. Quiet wins: it discards
// everything, whatever the level says.
func buildLogger(quiet bool, level, format string) (*slog.Logger, error) {
	if quiet {
		return slog.New(slog.DiscardHandler), nil
	}
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// buildTracer constructs the decide-path tracer from the -trace-* flags;
// nil (tracing fully off, zero overhead) when neither sampling nor tail
// capture is requested.
func buildTracer(sample float64, slow time.Duration, buf int) (*trace.Tracer, error) {
	if sample < 0 || sample > 1 {
		return nil, fmt.Errorf("-trace-sample %g: want a probability in [0, 1]", sample)
	}
	if slow < 0 {
		return nil, fmt.Errorf("-trace-slow %v: want a non-negative duration", slow)
	}
	if sample == 0 && slow == 0 {
		return nil, nil
	}
	return trace.New(trace.Options{SampleProb: sample, Slow: slow, Capacity: buf}), nil
}

// startDebug serves the profiling surface on its own listener, kept off
// the public metrics port so an operator can firewall it separately:
// the full net/http/pprof suite plus /debug/runtime, the same
// runtime-health snapshot /v1/metrics embeds, as a standalone document.
func startDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rs := stats.ReadRuntime()
		_ = json.NewEncoder(w).Encode(rs)
	})
	logger.Info("debug listener (pprof, /debug/runtime)", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Warn("debug listener down", "err", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtmd:", err)
	os.Exit(1)
}
