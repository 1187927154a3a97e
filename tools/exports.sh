#!/bin/sh
# Exports only tests reach, checked against an allowlist.
#
# Lists every value a lib/*/*.mli exports (signatures inside
# `module type` excepted) that no code outside test/ calls, and compares
# that list with tools/exports.allow. A file calls `M.v` when, outside
# comments, it names both the module `M` and the value `v`; files under
# lib/ (other than M's own), bin/, examples/ and benchsuite/ count. The
# match is by name, so a value another module also defines can hide an
# export: the list is a lower bound.
#
# Fails when a listed export is missing from the allowlist, or when an
# allowlist entry is stale (its export is gone or has gained a caller),
# so the allowlist can only shrink honestly. Every entry needs a reason.
#
#   tools/exports.sh          check (exit 0 clean, 1 on a mismatch)
#   tools/exports.sh --list   print the exports only tests reach
set -eu
cd "$(dirname "$0")/.."
allow=tools/exports.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# callers with comments, string and character literals blanked out
# (comments nest; a quote inside a comment opens no string)
for f in lib/*/*.ml bin/*.ml examples/*.ml benchsuite/*.ml; do
  mkdir -p "$tmp/src/${f%/*}"
  awk '{
    out = ""; n = length($0); i = 1
    while (i <= n) {
      c = substr($0, i, 1); c2 = substr($0, i, 2)
      if (instr) {
        if (c == "\\") { i += 2; continue }
        if (c == "\"") { instr = 0; out = out c }
        i++; continue
      }
      if (c == "\047" && substr($0, i + 2, 1) == "\047") { i += 3; continue }
      if (c2 == "\047\\" && substr($0, i + 3, 1) == "\047") { i += 4; continue }
      if (c2 == "(*") { depth++; i += 2; continue }
      if (depth && c2 == "*)") { depth--; i += 2; continue }
      if (!depth) { if (c == "\"") instr = 1; out = out c }
      i++
    }
    print out
  }' "$f" > "$tmp/src/$f"
done

# "<mli> <module> <qualified name> <value>" per export
awk '
FNR == 1 {
  m = FILENAME; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
  m = toupper(substr(m, 1, 1)) substr(m, 2); skip = 0; pre = ""
}
/^module type / { skip = 1; next }
/^module [A-Z]/ { pre = $2 "." }
/^end/ { skip = 0; pre = "" }
/^ *val / && !skip {
  v = $0; sub(/^ *val +/, "", v); sub(/[ :].*/, "", v)
  print FILENAME, m, m "." pre v, v
}' lib/*/*.mli > "$tmp/vals"

cd "$tmp/src"
while read -r mli m q v; do
  own=${mli%i}
  found=
  for g in $(grep -lw -e "$v" lib/*/*.ml bin/*.ml examples/*.ml benchsuite/*.ml); do
    if [ "$g" != "$own" ] && grep -qw -e "$m" "$g"; then found=1; break; fi
  done
  [ -n "$found" ] || echo "$q"
done < "$tmp/vals" | sort > "$tmp/flagged"
cd - > /dev/null

if [ "${1:-}" = --list ]; then cat "$tmp/flagged"; exit 0; fi

status=0
grep -v -e '^#' -e '^[[:space:]]*$' "$allow" > "$tmp/entries" || true
if awk -v f="$allow" 'NF < 2 { print "exports: " f ": no reason given for " $1; bad = 1 }
        END { exit bad }' "$tmp/entries" >&2; then :; else status=1; fi
awk '{ print $1 }' "$tmp/entries" | sort > "$tmp/listed"
for e in $(comm -23 "$tmp/flagged" "$tmp/listed"); do
  echo "exports: $e has no caller outside test/ and is not in $allow:" \
    "declare it there with a reason, or delete it" >&2
  status=1
done
for e in $(comm -13 "$tmp/flagged" "$tmp/listed"); do
  echo "exports: stale entry $e in $allow: the export is gone or has" \
    "a caller outside test/; remove the entry" >&2
  status=1
done
[ "$status" = 0 ] && echo "exports: $(wc -l < "$tmp/listed") allowlisted, all reached only by tests"
exit "$status"
