#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload sim-thick --seed 1 --seconds 10 --trace 0
#
# The build, Go's caches and the trace files all stay under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" CGO_ENABLED=0 \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
