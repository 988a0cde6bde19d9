#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload regen_cold --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build and module caches, the go
# command's telemetry counters, temporaries, the binary, trace files)
# stays under .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$out/tnpu-benchmark" .)
exec "$out/tnpu-benchmark" -trace-dir "$out/traces" "$@"
