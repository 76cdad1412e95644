#!/usr/bin/env bash
# Fails when a function defined under src/ runs in no program: after a
# coverage build runs every `program` ctest case (each bench's [REPRO]
# part and BM_* bodies, each example) and each perfbench workload for
# 2 s, untraced and traced, a src function with zero executions that
# scripts/reach_allowlist.txt does not list is reported. The script also
# fails on an allowlist entry that no longer needs to be there (the
# function is gone, or a program now runs it), and on an entry whose
# reason is not one of the four the allowlist header defines.
#
# Functions are read from gcov's JSON output (`gcov -j -t`) for every
# object in the build tree, tests included, and merged by source position
# over every object that emits them. So a header function that only a
# test emits counts as unreached, but a template counts as reached when
# any instantiation of it runs. A reused tree still holds the notes of
# objects whose source was deleted or moved; nothing runs them, so a
# note that records a source file that is gone is skipped.
#
# Blind spot: a header-inline function that no object emits (no program
# or test calls it) has no gcov record, so it passes unseen.
#
# Slow (a full Debug --coverage build plus every program), so it is not
# part of tier-1 or scripts/check.sh; CI runs it in its own job.
#
# Usage: scripts/check_reach.sh [BUILD_DIR]   (default build-reach; an
#        existing tree is rebuilt incrementally)
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=${1:-build-reach}
allowlist=scripts/reach_allowlist.txt
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))
flags="--coverage -O1"

cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="$flags" \
  -DANALOGNF_BUILD_TESTS=ON -DANALOGNF_BUILD_BENCH=ON \
  -DANALOGNF_BUILD_EXAMPLES=ON >/dev/null
# Test discovery runs the rebuilt test binaries during the build; clear
# the last run's counts first so they do not clash with new objects.
find "$build" -name '*.gcda' -delete
cmake --build "$build" -j "$jobs" >/dev/null
cmake -S perfbench -B "$build/perfbench" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" >/dev/null
cmake --build "$build/perfbench" -j "$jobs" --target analognf_perfbench \
  >/dev/null

find "$build" -name '*.gcda' -delete  # drop what test discovery wrote
ctest --test-dir "$build" -L program -j "$jobs" --output-on-failure
# Reach only: a coverage build is too slow for perfbench's own rate
# checks, so its `correct` flag and exit code are not gated here.
for workload in ingress-zipf aqm-grid; do
  for trace in 0 1; do
    "$build/perfbench/analognf_perfbench" --workload "$workload" \
      --seconds 2 --trace "$trace" \
      --trace-out "$build/perfbench/$workload.jsonl" | tail -n 1 || true
  done
done

# One "<executions>\t<span lines>\t<demangled name>" line per src
# function. A function is its source position: the instantiations of one
# template and the constructor/destructor variants merge, and the
# smallest of their names stands for them.
counts=$(
  find "$build" -name '*.gcno' -print0 |
    xargs -0 -n 64 gcov -j -t 2>/dev/null |
    python3 -c '
import json, os, sys
root = sys.argv[1] + "/src/"
text = sys.stdin.read()
decoder = json.JSONDecoder()
funcs = {}
stale = 0
pos = 0
while True:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    cwd = doc.get("current_working_directory", ".")
    files = [(os.path.normpath(os.path.join(cwd, f["file"])), f)
             for f in doc.get("files", [])]
    if not all(os.path.exists(path) for path, _ in files):
        stale += 1
        continue
    for path, f in files:
        if not path.startswith(root):
            continue
        for fn in f.get("functions", []):
            key = (path, fn["start_line"])
            name, runs, span = funcs.get(key, (fn["demangled_name"], 0, 0))
            funcs[key] = (min(name, fn["demangled_name"]),
                          runs + fn["execution_count"],
                          max(span, fn["end_line"] - fn["start_line"] + 1))
for name, runs, span in sorted(funcs.values()):
    print(f"{runs}\t{span}\t{name}")
print(f"skipped {stale} notes of deleted or moved sources", file=sys.stderr)
' "$root"
)
unreached=$(printf '%s\n' "$counts" | awk -F'\t' '$1 == 0 {print $3}')
total=$(printf '%s\n' "$counts" | grep -c . || true)
echo "src functions: $total instrumented," \
  "$(printf '%s\n' "$unreached" | grep -c . || true) never run"

# An entry is "<function> | <reason> | <note>"; the allowlist header
# defines the reasons a to d. A (d) note must name an existing test.
entries=$(grep -vE '^[[:space:]]*(#|$)' "$allowlist" || true)
listed=$(printf '%s\n' "$entries" | awk -F' [|] ' 'NF {print $1}' | sort)
status=0

while IFS= read -r entry; do
  [ -n "$entry" ] || continue
  reason=$(printf '%s\n' "$entry" | awk -F' [|] ' '{print $2}')
  note=$(printf '%s\n' "$entry" | awk -F' [|] ' '{print $3}')
  case "$reason" in
    a|b|c) ;;
    d)
      test_name=$(printf '%s\n' "$note" | grep -oE '[A-Za-z0-9_]+\.[A-Za-z0-9_]+' |
        head -n 1 || true)
      if [ -z "$test_name" ] || ! grep -rqE \
          "TEST(_F|_P)?\(${test_name%%.*}, ${test_name#*.}\)" tests; then
        echo "allowlist entry (d) names no existing test: $entry"
        status=1
      fi
      ;;
    *)
      echo "allowlist entry without a reason a-d: $entry"
      status=1
      ;;
  esac
done <<< "$entries"

while IFS= read -r fn; do
  [ -n "$fn" ] || continue
  if printf '%s\n' "$listed" | grep -qxF -- "$fn"; then
    echo "allowlisted: $fn"
  else
    echo "unreached: $fn runs in no program; delete it or list it"
    status=1
  fi
done <<< "$unreached"

while IFS= read -r fn; do
  [ -n "$fn" ] || continue
  if ! printf '%s\n' "$unreached" | grep -qxF -- "$fn"; then
    echo "stale allowlist entry: $fn is gone or runs in a program"
    status=1
  fi
done <<< "$listed"

exit "$status"
