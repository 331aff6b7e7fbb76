#!/usr/bin/env bash
# Surface report: for each crate under crates/ and vendor/, and in total, the
# non-test code lines and the public items outside test modules — the one
# count issues and CHANGES.md quote when they say "smaller".
#
# Counting rule (the verify skill's): only the lines above each file's first
# `#[cfg(test)]`, `tests/` directories excluded, through
# `grep -vc '^\s*//\|^\s*$'` (comment-only and blank lines dropped).  A public
# item is a non-test line declaring `pub fn|struct|enum|trait|type|const|
# static|mod|use|…`; `pub(crate)` / `pub(super)` and struct fields are not
# counted.  A report, not a gate: it always exits 0.
#
#   usage: scripts/surface.sh [ROOT]     (default: the repo this script is in)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# The non-test part of a Rust file: everything above its first #[cfg(test)].
non_test() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

pub_item='^\s*pub (fn|struct|enum|trait|type|const|static|mod|use|union|unsafe|async|extern)\b'

printf '%-20s %10s %10s\n' crate code_lines pub_items
total_lines=0
total_items=0
for dir in crates/*/ vendor/*/; do
    [[ -d "$dir" ]] || continue
    lines=0
    items=0
    while IFS= read -r file; do
        body="$(non_test "$file")"
        l="$(printf '%s\n' "$body" | grep -vc '^\s*//\|^\s*$' || true)"
        p="$(printf '%s\n' "$body" | grep -Ec "$pub_item" || true)"
        lines=$((lines + l))
        items=$((items + p))
    done < <(find "$dir" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' | sort)
    printf '%-20s %10d %10d\n' "${dir%/}" "$lines" "$items"
    total_lines=$((total_lines + lines))
    total_items=$((total_items + items))
done
printf '%-20s %10d %10d\n' total "$total_lines" "$total_items"
