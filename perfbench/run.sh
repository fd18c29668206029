#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-packet --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, cache and output stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -outdir "$build/perfbench-out" "$@"
