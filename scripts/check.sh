#!/usr/bin/env bash
# One-command verification: the orphan-header and config-knob checks,
# then configure, build, test, and regenerate every paper table/figure.
# Mirrors the commands recorded in README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

scripts/check_orphans.sh
scripts/check_knobs.sh

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo
echo "== regenerating all paper tables/figures =="
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done
