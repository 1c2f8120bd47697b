#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload gallery --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, the generated corpora and the trace files.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOENV=off
export PERFBENCH_DIR="$build"

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
