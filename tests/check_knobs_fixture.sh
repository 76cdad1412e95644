#!/usr/bin/env bash
# Fixture test of scripts/check_knobs.sh: copies the script into a
# temporary tree with the repository's layout, holding one header whose
# fields cover each counting rule, and checks what the script flags.
#
#   tests/check_knobs_fixture.sh [CHECK_KNOBS_SCRIPT]
#
# The argument defaults to scripts/check_knobs.sh of this checkout.
# Exits 0 when the script flags exactly the fields it should, 1 otherwise.
set -euo pipefail
script=${1:-"$(dirname "$0")/../scripts/check_knobs.sh"}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/scripts" "$work/src/demo/include/analognf/demo" \
  "$work/bench" "$work/examples" "$work/perfbench"
cp "$script" "$work/scripts/check_knobs.sh"
printf '# empty\n' > "$work/scripts/knobs_allowlist.txt"

cat > "$work/src/demo/include/analognf/demo/demo.hpp" <<'EOF'
#pragma once
#include <vector>
namespace analognf::demo {
struct Band { double lo = 0.0; };
struct DemoConfig {
  double read_only = 1.0;     // programs read it, none writes it
  int default_only = 4;       // every program write sets the default
  int assigned = 1;           // programs assign 2 and 3
  std::vector<int> appended;  // a program push_backs into it
  Band band;                  // a program sets band.lo
  double foreign = 1.0;       // written only where the header is unseen
};
struct DemoSpec {
  double never_written = 0.5;  // programs read it, none writes it
  double designated = 0.5;     // a designated initializer sets it
};
}  // namespace analognf::demo
EOF

cat > "$work/examples/demo.cpp" <<'EOF'
#include "analognf/demo/demo.hpp"
double Run(analognf::demo::DemoConfig* p) {
  analognf::demo::DemoConfig c;
  c.default_only = 4;
  c.assigned = 2;
  p->assigned = 3;
  c.appended.push_back(1);
  c.band.lo = 0.25;
  const analognf::demo::DemoSpec s{.designated = 1.0};
  if (c.default_only == 5) return 0.0;
  return c.read_only + s.never_written + s.designated + c.foreign;
}
EOF

# Names `.foreign` without including demo.hpp: not a write of the field.
cat > "$work/bench/other.cpp" <<'EOF'
struct Other { double foreign = 0.0; };
void Set(Other& o) { o.foreign = 2.0; }
EOF

status=0
output=$("$work/scripts/check_knobs.sh" 2>&1) || status=$?
printf '%s\n' "$output"

failures=0
expect() {
  if ! printf '%s\n' "$output" | grep -q -- "$1"; then
    echo "FAIL: expected a line matching: $1"
    failures=$((failures + 1))
  fi
}
reject() {
  if printf '%s\n' "$output" | grep -q -- "$1"; then
    echo "FAIL: unexpected line matching: $1"
    failures=$((failures + 1))
  fi
}

expect '^unset knob: DemoConfig::read_only '
expect '^unset knob: DemoSpec::never_written '
expect '^default-only knob: DemoConfig::default_only '
expect '^unset knob: DemoConfig::foreign '
reject 'DemoConfig::assigned'
reject 'DemoConfig::appended'
reject 'DemoConfig::band'
reject 'DemoSpec::designated'
if [ "$status" -ne 1 ]; then
  echo "FAIL: check_knobs.sh exited $status, expected 1"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures fixture expectation(s) failed"
  exit 1
fi
echo "check_knobs.sh fixture: ok"
