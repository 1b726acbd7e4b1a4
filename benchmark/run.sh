#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from source and run it, with
# every file go writes (build cache, temp files, the binary) kept under
# .bench_build/ in the checkout. Arguments are passed through:
#   bash benchmark/run.sh --workload serve_light --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# XDG_CONFIG_HOME: the go command keeps its telemetry state under the user
# config directory. With no mode file there it runs in "local" mode and forks
# a detached "** telemetry **" sidecar that outlives the go command (and, when
# the build fails at once, this script); mode "off" starts no such process.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
