#!/usr/bin/env bash
# Build gridmon_bench (Release, into build-perf/) and run it.
#
#   perf/run.sh [--runs N] [--seed S] [--workload W] [--out DIR]
#               [--seconds S] [--trace 0|1] [--trace-dir DIR]
#
# Paths are relative to the repository root. Build output goes to stderr,
# so stdout carries only the metric lines and the closing JSON summary.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=build-perf
jobs="$(nproc 2>/dev/null || echo 1)"
# Keep the compiler's temporary files inside the checkout as well.
export TMPDIR="$PWD/$build/tmp"
mkdir -p "$TMPDIR"

cmake -S perf -B "$build" >&2
cmake --build "$build" -j "$jobs" >&2
exec "$build/gridmon_bench" "$@"
