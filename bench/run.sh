#!/usr/bin/env bash
# Builds the benchmark and the server under test from source, then runs
# the benchmark with the given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-fleet --seed 1 --seconds 15 --trace 0
#
# Every build artefact and cache lives in .bench_build/ at the root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

go build -o "$build/rtmd" ./cmd/rtmd
go -C bench build -o "$build/rtmbench" .
exec "$build/rtmbench" -rtmd "$build/rtmd" "$@"
