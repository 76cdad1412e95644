#!/usr/bin/env bash
# Fails when a public header under src/*/include/analognf/ is #included by
# no program code (src/, bench/, examples/, perfbench/) other than its own
# .cpp, i.e. when only the module's tests can reach it.
# Usage: scripts/check_orphans.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for header in src/*/include/analognf/*/*.hpp; do
  name="${header#src/*/include/}"
  own="${header%%/include/*}/$(basename "$header" .hpp).cpp"
  users=$(grep -rlF --include='*.cpp' --include='*.hpp' \
    "#include \"$name\"" src bench examples perfbench || true)
  if [ -z "$(printf '%s\n' "$users" | grep -vxF "$own" || true)" ]; then
    echo "orphan header: $header is included only by tests or $own"
    status=1
  fi
done
exit "$status"
