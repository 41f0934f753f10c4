// Package qgov is a full reproduction of "Machine Learning for Run-Time
// Energy Optimisation in Many-Core Systems" (Biswas, Balagopal, Shafik,
// Al-Hashimi, Merrett — DATE 2017): a Q-learning power governor that
// selects per-epoch voltage-frequency settings for a many-core cluster so
// that frame-based applications meet their deadlines at minimum energy.
//
// The paper's substrate is an ODROID-XU3 board; this repository rebuilds
// everything above a simulated equivalent (see DESIGN.md for the
// substitution argument) and regenerates every table and figure of the
// paper's evaluation (see EXPERIMENTS.md for measured-vs-paper numbers):
//
//	internal/platform    the hardware layer: A15/A7 clusters, 19-point
//	                     DVFS ladder, CMOS power + RC thermal models,
//	                     PMUs, sampled power sensors
//	internal/workload    the application layer: GOP-structured video
//	                     decode, an FFT pipeline grounded in a real
//	                     kernel (internal/fft), PARSEC and SPLASH-2
//	                     phase models, CSV trace import/export
//	internal/predictor   EWMA (Eq. 1) and the comparison predictors
//	internal/governor    the run-time layer: governor interface, the
//	                     Linux cpufreq family, the Oracle, and the
//	                     ML-DTM baseline of ref [20]
//	internal/core        the paper's contribution: the Q-learning RTM
//	                     (Eqs. 2-7), its many-core modes, learning
//	                     transfer, and the multi-application extension
//	internal/sim         the epoch engine: the step-driven Session
//	                     (New → Observe/Decide/Step, Snapshot/Restore)
//	                     with Run as its closed-loop driver, plus the
//	                     streaming sweep runner (worker-pool Stream +
//	                     online Aggregator, O(workers) memory at any
//	                     sweep size)
//	internal/scenario    the sweep surface: every governor × workload ×
//	                     platform combination as a named scenario
//	                     ("rtm/h264-football/a15") resolving to a run
//	                     configuration or step-driven Session; any
//	                     learner trains, freezes and warm-starts here
//	                     (governor.Checkpointer)
//	internal/serve       governors as an online decision service: many
//	                     concurrent sessions (one per controlled
//	                     cluster) in a mutex-striped session store,
//	                     behind a batched /v1/decide HTTP API and a
//	                     binary streaming TCP transport (~5× the JSON
//	                     path's decisions/s) that also carries the
//	                     whole control plane as control frames; both
//	                     fronts of both tiers (flat server, Router)
//	                     run one decide path and one control handler,
//	                     and a batch's observations for one session
//	                     apply in arrival order at any GOMAXPROCS;
//	                     a fixed-size /v1/metrics document (server-wide
//	                     latency histogram, counters; opt-in top-K
//	                     learners) and a paginated /v1/sessions for
//	                     per-session detail, learning-state
//	                     checkpoints through a pluggable
//	                     CheckpointStore, and a consistent-hash Router
//	                     that shards sessions across a replica fleet
//	                     on a ring fixed for the router's lifetime
//	                     (resharding is a restart over shared
//	                     checkpoints; see cmd/rtmd), health-probed with
//	                     automatic replica reconnect, and degrading
//	                     gracefully (per-replica status in /healthz,
//	                     partial aggregates) when members fail
//	internal/qpage       copy-on-write paged value tables behind a
//	                     process-wide content-interned page pool
//	                     (sharded, SHA-256-keyed, refcounted): sessions
//	                     with identical starting state — cold tables,
//	                     one warm-start manifest — share immutable
//	                     pages and copy only what they touch, cutting
//	                     the per-session memory floor ~9x under churn
//	internal/xrand       the 8-byte splitmix64 deterministic generator
//	                     (uniform/exponential/normal variates) that
//	                     replaced per-session ~5 KB math/rand state in
//	                     learners and load-generator clients
//	internal/sessionstore the serving layer's state stores: the sharded
//	                     Store (striped locks, byte-keyed lookups) and
//	                     the CheckpointStore interface with its
//	                     local-directory implementation
//	internal/registry    the content-addressed checkpoint registry:
//	                     frozen learning state as SHA-256-addressed
//	                     blobs under fingerprint-keyed manifests
//	                     (governor/workload/platform/shape + training
//	                     metadata), Nearest resolution for warm_start
//	                     (exact fingerprint, then the cross-workload
//	                     same-platform fallback), and a registry-backed
//	                     CheckpointStore so replica fleets share
//	                     session state through one BlobStore seam
//	internal/ring        the consistent-hash ring (virtual nodes,
//	                     deterministic placement, bounded key movement
//	                     on membership change) that maps session ids
//	                     to replicas
//	internal/wire        the length-prefixed binary frame codec of the
//	                     streaming transport: zero-allocation encode/
//	                     decode of observe/decide messages plus the
//	                     control frames (create/checkpoint/delete/...),
//	                     fuzzed against truncated/oversized/bit-flipped
//	                     frames
//	internal/serve/client the multiplexed Go client for the binary
//	                     transport — decisions and control plane —
//	                     used by the router, benchmarks, and the
//	                     equivalence tests
//	internal/loadgen     the seeded churn-schedule generator
//	                     (heterogeneous clients, burst arrivals,
//	                     session lifecycles, delete storms), its
//	                     runner and in-process oracle (Local), and JSONL
//	                     record/replay: the serve churn suites and the
//	                     benchmark's churn workload are built on it
//	internal/trace       sampled decide-path tracing: spans (route,
//	                     relay, decide) in a fixed lock-free
//	                     ring, probabilistic head sampling plus tail
//	                     capture of slow batches, trace ids propagated
//	                     through the wire protocol so one routed
//	                     decide stitches router→replica spans under
//	                     a single id at GET /v1/trace
//	internal/promlint    the Prometheus text-exposition linter behind
//	                     cmd/promlint and the scrape-hygiene tests:
//	                     HELP/TYPE pairing, label escaping, duplicate
//	                     series, cumulative le buckets, and
//	                     series/byte budgets for scrape cardinality
//	internal/experiments Table I, II, III, Fig. 3, the ablations, and
//	                     the warm-start transfer matrix (train on one
//	                     workload, publish to the registry, serve
//	                     another cold vs. warm)
//
// The sim.Session inversion is what connects the two halves: sim.Run,
// Stream and the experiment harness drive it as a closed loop, while
// cmd/rtmd serves the same governors online — observations in, operating
// points out — the way the paper's RTM runs inside an OS.
//
// Entry points: cmd/experiments regenerates the paper's results and runs
// streaming scenario sweeps (-run sweep -match 'rtm/*/a15'), cmd/rtmsim
// runs one governor on one workload or one named scenario (-save-state /
// -load-state freeze and warm-start any learner), cmd/rtmd serves
// governor decisions over HTTP and (-listen-tcp) the binary wire
// protocol — or, with -route -replicas, fronts a sharded replica fleet
// as a stateless consistent-hash router — cmd/tracegen emits workload
// traces,
// cmd/benchjson converts benchmark output to the BENCH_<n>.json perf
// artifacts, cmd/promlint lints a Prometheus exposition against series
// and byte budgets; examples/ holds runnable API walkthroughs; the benchmarks
// in bench_test.go regenerate each experiment under `go test -bench`.
package qgov
