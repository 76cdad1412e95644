#!/usr/bin/env bash
# Differential check between two builds of this repository:
#
#   scripts/repro_diff.sh <build-a> <build-b>
#
# Each argument is a CMake build directory (one holding bench/ and
# examples/). Every bench runs with --benchmark_filter='^$' (no timings)
# and contributes its [REPRO] lines; every example contributes its whole
# stdout. Binaries run inside a fresh temporary directory, because the
# benches write BENCH_*.json to their working directory. The two
# collections are diffed; the script prints the diff and exits 1 on any
# difference, 0 when the outputs are identical.
#
# Skipped: outputs that differ between two runs of one build (wall-clock
# timings, thread interleavings), so they cannot be compared across
# builds: bench_commit_latency, bench_ingress_load, bench_multiport,
# bench_telemetry_overhead and telemetry_report.
#
# A self-diff (the same build twice) must come out empty.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-a> <build-b>" >&2
  exit 2
fi

SKIP=" bench_commit_latency bench_ingress_load bench_multiport \
bench_telemetry_overhead telemetry_report "

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# collect <build-dir> <out-dir>: one output file per deterministic binary.
collect() {
  local build out bin name run
  build=$(cd "$1" && pwd)
  out=$2
  mkdir -p "$out"
  for bin in "$build"/bench/* "$build"/examples/*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    case "$SKIP" in *" $name "*) continue ;; esac
    run=$(mktemp -d "$work/run.XXXXXX")
    # A failing binary leaves its exit status in the output.
    if [ "$(basename "$(dirname "$bin")")" = bench ]; then
      (cd "$run" && "$bin" --benchmark_filter='^$' 2>&1 ||
        echo "repro_diff: exit $?") |
        grep -E '^\[REPRO\]|^repro_diff: exit' > "$out/$name" || true
    else
      (cd "$run" && "$bin" 2>/dev/null || echo "repro_diff: exit $?") \
        > "$out/$name"
    fi
    rm -rf "$run"
  done
}

collect "$1" "$work/a"
collect "$2" "$work/b"

if diff -r -u "$work/a" "$work/b"; then
  echo "repro_diff: identical ($(ls "$work/a" | wc -l) outputs)"
else
  echo "repro_diff: outputs differ" >&2
  exit 1
fi
