#!/usr/bin/env bash
# Fails when a config value has only one setting in use: a field of a
# `struct *Config` or `struct *Spec` in a public header
# (src/*/include/analognf/*/*.hpp) that scripts/knobs_allowlist.txt does
# not list, and that
#   - no program code (src/, bench/, examples/, perfbench/) writes, other
#     than the header itself and its same-named .cpp ("unset"), or
#   - every program write sets to the header's own default initializer
#     text ("default-only").
# Such a field is set by tests at most, so it should be a named constant
# instead. The script also fails on an allowlist entry that no longer
# needs to be there (the field is gone, or a program now sets it to a
# second value).
#
# A write is `.field =` or `->field =` (an assignment or a designated
# initializer), `.field{...}`, a compound assignment or increment, an
# assignment to a sub-field or element (`.field.x =`, `.field[i] =`), or
# a `push_back`/`emplace_back`/`assign`/`insert`/`resize` call on it. A
# read (`x = c.field`, `c.field.lo`, a call taking `c.field`) is not.
#
# A write counts only in a program file that includes the struct's
# header, directly or through other project headers (quoted
# `#include`s, resolved as `analognf/<module>/...` under
# src/<module>/include/ or else beside the including file). So a generic
# name (`seed`, `device`, `alpha`, ...) is not counted as set because a
# program writes a same-named field of a struct it cannot see.
#
# Blind spots, both passing unseen:
#   - positional aggregate initialisation (`{label, params}`) names no
#     field, so a field set only that way reads as unset and must be
#     allowlisted;
#   - a field that every program sets to one identical value other than
#     its default (or to its default spelled differently) counts as set,
#     although it too has only one setting in use.
#
# Usage: scripts/check_knobs.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
allowlist=scripts/knobs_allowlist.txt

# Prints "<Struct>::<field> <default>" for every data member of every
# *Config and *Spec struct in header $1: declarations ending in `;` at
# the struct's own brace depth, minus methods, static members, aliases
# and nested types. <default> is the initializer text with its blanks
# removed (`=` dropped, braces kept), or empty.
config_fields() {
  awk '
    function strip_comment(s) { sub(/\/\/.*/, "", s); return s }
    {
      line = strip_comment($0)
      if (!in_struct &&
          match(line, /^[ \t]*struct[ \t]+[A-Za-z0-9_]*(Config|Spec)[ \t]*\{/)) {
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
          # `double lo, hi;` declares every name after a top-level comma.
          if (decl !~ /[<(]/) {
            k = split(decl, names, ",")
            for (i = 1; i < k; ++i) {
              if (match(names[i], /[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)) {
                other = substr(names[i], RSTART, RLENGTH)
                sub(/[ \t]+$/, "", other)
                print name "::" other, ""
              }
            }
          }
          init = line
          sub(/;[ \t]*$/, "", init)
          eq = index(init, "=")
          brace = index(init, "{")
          if (brace > 0 && (eq == 0 || brace < eq)) init = substr(init, brace)
          else if (eq > 0) init = substr(init, eq + 1)
          else init = ""
          gsub(/[ \t]/, "", init)
          print name "::" field, init
        }
      }
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      depth += opens - closes
      if (depth <= 0) in_struct = 0
    }
  ' "$1"
}

# Prints one line per write of `.<field>`/`-><field>` in the files given:
# "=<value>" for a plain assignment or designated initializer (<value>
# with its blanks removed, up to the `;`, or the `,` or bracket that ends
# it), "*" for any other write.
field_writes() {
  awk -v field="$1" '
    # The initializer text at the start of s, up to its terminator.
    function value_text(s,    i, c, depth, out) {
      depth = 0
      out = ""
      for (i = 1; i <= length(s); ++i) {
        c = substr(s, i, 1)
        if (c == "(" || c == "[" || c == "{") ++depth
        else if (c == ")" || c == "]" || c == "}") {
          if (depth == 0) break
          --depth
        } else if (depth == 0 && (c == ";" || c == ",")) break
        out = out c
      }
      gsub(/[ \t]/, "", out)
      return out
    }
    {
      line = $0
      sub(/\/\/.*/, "", line)
      pattern = "(\\.|->)" field "([^A-Za-z0-9_]|$)"
      while (match(line, pattern)) {
        head = substr(line, RSTART, 2) == "->" ? 2 : 1
        rest = substr(line, RSTART + head + length(field))
        line = rest
        if (rest ~ /^[ \t]*=([^=]|$)/) {
          sub(/^[ \t]*=/, "", rest)
          print "=" value_text(rest)
        } else if (rest ~ /^[ \t]*\{/) {
          sub(/^[ \t]*/, "", rest)
          print "=" value_text(rest)
        } else if (rest ~ /^[ \t]*(<<|>>|[-+*\/%&|^])=/ ||
                   rest ~ /^[ \t]*(\+\+|--)/ ||
                   rest ~ /^((\.|->)[A-Za-z_][A-Za-z0-9_]*|\[[^]]*\])+[ \t]*(<<|>>|[-+*\/%&|^])?=([^=]|$)/ ||
                   rest ~ /^((\.|->)[A-Za-z_][A-Za-z0-9_]*|\[[^]]*\])*(\.|->)(push_back|emplace_back|assign|insert|resize)[ \t]*\(/) {
          print "*"
        }
      }
    }
  ' "${@:2}"
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

# "<Struct>::<field> unset" or "<Struct>::<field> default <value>" for
# every field with one setting in use.
flagged_fields=$(
  for header in src/*/include/analognf/*/*.hpp; do
    own="${header%%/include/*}/$(basename "$header" .hpp).cpp"
    includers=$(printf '%s\n' "$included" |
      awk -v h="$header" '$2 == h {print $1}')
    config_fields "$header" | while read -r knob default; do
      field="${knob#*::}"
      users=$(grep -lE "(\.|->)${field}\b" $program_files |
        grep -vxF -e "$header" -e "$own" |
        grep -xF -f <(printf '%s\n' "$includers") || true)
      writes=""
      [ -z "$users" ] || writes=$(field_writes "$field" $users | sort -u)
      if [ -z "$writes" ]; then
        echo "$knob unset"
      elif [ -n "$default" ] && [ "$writes" = "=$default" ]; then
        echo "$knob default $default"
      fi
    done
  done | sort -u
)
flagged=$(printf '%s\n' "$flagged_fields" | awk 'NF {print $1}')

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

while read -r knob kind default; do
  [ -n "$knob" ] || continue
  if printf '%s\n' "$listed" | grep -qxF "$knob"; then
    echo "allowlisted knob: $knob"
  elif [ "$kind" = unset ]; then
    echo "unset knob: $knob is written by no program; make it a constant"
    status=1
  else
    echo "default-only knob: $knob is written by programs only as its" \
      "default ($default); make it a constant"
    status=1
  fi
done <<< "$flagged_fields"

while IFS= read -r knob; do
  [ -n "$knob" ] || continue
  if ! printf '%s\n' "$flagged" | grep -qxF "$knob"; then
    echo "stale allowlist entry: $knob is gone or set by a program"
    status=1
  fi
done <<< "$listed"

exit "$status"
