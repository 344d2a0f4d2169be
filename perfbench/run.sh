#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-mem --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ at the repository root (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
