#!/usr/bin/env bash
# Fails when a config value has only one setting in use: a field of a
# `struct *Config` in a public header (src/*/include/analognf/*/*.hpp)
# that no program code (src/, bench/, examples/, perfbench/) names as
# `.field`, other than the header itself and its same-named .cpp, and
# that scripts/knobs_allowlist.txt does not list. Such a field is set by
# tests at most, so it should be a named constant instead. The script
# also fails on an allowlist entry that no longer needs to be there (the
# field is gone, or a program now names it).
#
# A `.field` mention counts only in a program file that includes the
# struct's header, directly or through other project headers (quoted
# `#include`s, resolved as `analognf/<module>/...` under
# src/<module>/include/ or else beside the including file). So a generic
# name (`seed`, `device`, `alpha`, ...) is not counted as set because a
# program names a same-named field of a struct it cannot see.
#
# Blind spot: a field that every program sets to one identical value
# counts as set, although it too has only one setting in use. Such knobs
# pass unseen.
#
# Usage: scripts/check_knobs.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
allowlist=scripts/knobs_allowlist.txt

# Prints "<Struct>::<field>" for every data member of every *Config
# struct in header $1: declarations ending in `;` at the struct's own
# brace depth, minus methods, static members, aliases and nested types.
config_fields() {
  awk '
    function strip_comment(s) { sub(/\/\/.*/, "", s); return s }
    {
      line = strip_comment($0)
      if (!in_struct &&
          match(line, /^[ \t]*struct[ \t]+[A-Za-z0-9_]*Config[ \t]*\{/)) {
        name = line
        sub(/^[ \t]*struct[ \t]+/, "", name)
        sub(/[ \t]*\{.*/, "", name)
        in_struct = 1
        depth = 1
        next
      }
      if (!in_struct) next
      if (depth == 1 && line ~ /;[ \t]*$/ &&
          line !~ /^[ \t]*(static|using|friend|enum|struct|class|public|private|template)[ \t:]/) {
        decl = line
        sub(/[ \t]*(=|\{).*/, "", decl)   # drop the initializer
        sub(/;[ \t]*$/, "", decl)
        if (decl !~ /\)[ \t]*(const)?[ \t]*(noexcept)?[ \t]*(override)?[ \t]*$/ &&
            match(decl, /[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)) {
          field = substr(decl, RSTART, RLENGTH)
          sub(/[ \t]+$/, "", field)
          print name "::" field
        }
      }
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      depth += opens - closes
      if (depth <= 0) in_struct = 0
    }
  ' "$1"
}

# Prints "<file> <header>" for every program file and every project
# header it includes, directly or transitively.
program_files=$(find src bench examples perfbench \
  \( -name '*.cpp' -o -name '*.hpp' \) | sort)
included=$(
  awk '
    match($0, /^[ \t]*#[ \t]*include[ \t]*"[^"]+"/) {
      name = substr($0, RSTART, RLENGTH)
      sub(/^[^"]*"/, "", name)
      sub(/"$/, "", name)
      if (name ~ /^analognf\//) {
        module = name
        sub(/^analognf\//, "", module)
        sub(/\/.*/, "", module)
        path = "src/" module "/include/" name
      } else {
        path = FILENAME
        sub(/[^\/]*$/, "", path)
        path = path name
      }
      edges[FILENAME] = edges[FILENAME] " " path
    }
    END {
      for (file in edges) {
        split("", seen)
        top = 0
        stack[++top] = file
        while (top > 0) {
          k = split(edges[stack[top--]], next_files, " ")
          for (i = 1; i <= k; ++i) {
            if (!(next_files[i] in seen)) {
              seen[next_files[i]] = 1
              stack[++top] = next_files[i]
            }
          }
        }
        for (header in seen) print file, header
      }
    }
  ' $program_files
)

unset_fields=$(
  for header in src/*/include/analognf/*/*.hpp; do
    own="${header%%/include/*}/$(basename "$header" .hpp).cpp"
    includers=$(printf '%s\n' "$included" |
      awk -v h="$header" '$2 == h {print $1}')
    config_fields "$header" | while IFS= read -r knob; do
      field="${knob#*::}"
      users=$(grep -lE "\.${field}\b" $program_files |
        grep -vxF -e "$header" -e "$own" |
        grep -xF -f <(printf '%s\n' "$includers") || true)
      [ -n "$users" ] || echo "$knob"
    done
  done | sort -u
)

entries=$(grep -vE '^[[:space:]]*(#|$)' "$allowlist" || true)
listed=$(printf '%s\n' "$entries" | awk 'NF {print $1}' | sort)
status=0

# Every allowlist entry carries a reason after its name.
while IFS= read -r entry; do
  [ -n "$entry" ] || continue
  if [ "$(printf '%s\n' "$entry" | awk '{print NF}')" -lt 2 ]; then
    echo "allowlist entry without a reason: $entry"
    status=1
  fi
done <<< "$entries"

while IFS= read -r knob; do
  [ -n "$knob" ] || continue
  if printf '%s\n' "$listed" | grep -qxF "$knob"; then
    echo "allowlisted knob: $knob"
  else
    echo "unset knob: $knob is set by no program; make it a constant"
    status=1
  fi
done <<< "$unset_fields"

while IFS= read -r knob; do
  [ -n "$knob" ] || continue
  if ! printf '%s\n' "$unset_fields" | grep -qxF "$knob"; then
    echo "stale allowlist entry: $knob is gone or set by a program"
    status=1
  fi
done <<< "$listed"

exit "$status"
