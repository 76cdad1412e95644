#!/usr/bin/env bash
# One-command verification: configure, build, test, and regenerate every
# paper table/figure. Mirrors the commands recorded in README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo
echo "== regenerating all paper tables/figures =="
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done
