#!/usr/bin/env bash
# Diffs a directory of BENCH_<experiment>.json perf reports against the
# committed baseline and fails on regressions.
#
#   scripts/bench_diff.sh <baseline_dir> <current_dir>
#
# Gating rules (see crates/bench/src/emit.rs for the report schema):
#
#   * parity flags        — hard gate, exact: every parity flag that holds in
#                           the baseline must hold in the current run, and no
#                           current parity flag may be 0.
#   * lower-is-better     — metrics named *_us / *_ns / *_ms and wall_us:
#     timing metrics        fail only on a blow-up (current > 8x baseline AND
#                           above an absolute slack floor), so ordinary
#                           machine-to-machine noise never trips the gate.
#   * everything else     — informational; printed, never gated.
#
# Missing reports, reports without a baseline and missing baseline keys fail
# hard: silently dropping (or never gating) an experiment or metric is how a
# perf trajectory rots.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <baseline_dir> <current_dir>" >&2
    exit 2
fi
baseline_dir="$1"
current_dir="$2"

# Absolute slack floor for lower-is-better metrics: below this many units
# (ns/us/ms) a ratio blow-up is still noise (e.g. a 40us stage becoming 400us
# on a loaded runner).
SLACK=${BENCH_DIFF_SLACK:-100000}
RATIO=${BENCH_DIFF_RATIO:-8}

# section_entries <file> <section> -> lines of "key value"
section_entries() {
    awk -v section="$2" '
        $0 ~ "^  \"" section "\": {}" { next }
        $0 ~ "^  \"" section "\": {" { open = 1; next }
        open && /^  }/ { open = 0 }
        open {
            line = $0
            gsub(/^[ \t]+"/, "", line); gsub(/",?$/, "", line)
            split(line, kv, /": */)
            value = kv[2]; gsub(/,$/, "", value)
            print kv[1], value
        }
    ' "$1"
}

failures=0
fail() {
    echo "FAIL: $*"
    failures=$((failures + 1))
}

shopt -s nullglob
baseline_reports=("$baseline_dir"/BENCH_*.json)
if [[ ${#baseline_reports[@]} -eq 0 ]]; then
    echo "no BENCH_*.json baselines under $baseline_dir" >&2
    exit 2
fi

for baseline in "${baseline_reports[@]}"; do
    name="$(basename "$baseline")"
    current="$current_dir/$name"
    if [[ ! -f "$current" ]]; then
        fail "$name: report missing from $current_dir (experiment dropped?)"
        continue
    fi

    # Parity flags: exact.
    while read -r key value; do
        [[ -n "$key" ]] || continue
        cur="$(section_entries "$current" parity | awk -v k="$key" '$1 == k { print $2 }')"
        if [[ -z "$cur" ]]; then
            fail "$name:parity.$key: flag missing from current run"
        elif [[ "$value" == "1" && "$cur" != "1" ]]; then
            fail "$name:parity.$key: baseline holds, current run VIOLATED"
        fi
    done < <(section_entries "$baseline" parity)
    while read -r key value; do
        [[ -n "$key" ]] || continue
        if [[ "$value" != "1" ]]; then
            base="$(section_entries "$baseline" parity | awk -v k="$key" '$1 == k { print $2 }')"
            [[ "$base" == "0" ]] || fail "$name:parity.$key: current run VIOLATED"
        fi
    done < <(section_entries "$current" parity)

    # Metrics: tolerance-aware by name.
    while read -r key value; do
        [[ -n "$key" ]] || continue
        cur="$(section_entries "$current" metrics | awk -v k="$key" '$1 == k { print $2 }')"
        if [[ -z "$cur" ]]; then
            fail "$name:metrics.$key: metric missing from current run"
            continue
        fi
        case "$key" in
        *_us | *_ns | *_ms | wall_us)
            if ((cur > value * RATIO && cur > value + SLACK)); then
                fail "$name:metrics.$key: regressed ${value} -> ${cur} (gate: <= ${RATIO}x baseline + ${SLACK})"
            else
                echo "ok   $name:metrics.$key: ${value} -> ${cur} (lower-is-better)"
            fi
            ;;
        *)
            echo "info $name:metrics.$key: ${value} -> ${cur} (not gated)"
            ;;
        esac
    done < <(section_entries "$baseline" metrics)

    # wall_us: top-level, lower-is-better.
    base_wall="$(awk -F': ' '/^  "wall_us":/ { gsub(/,/, "", $2); print $2 }' "$baseline")"
    cur_wall="$(awk -F': ' '/^  "wall_us":/ { gsub(/,/, "", $2); print $2 }' "$current")"
    if [[ -n "$base_wall" && -n "$cur_wall" ]]; then
        if ((cur_wall > base_wall * RATIO && cur_wall > base_wall + SLACK)); then
            fail "$name:wall_us: regressed ${base_wall} -> ${cur_wall} (gate: <= ${RATIO}x baseline + ${SLACK})"
        else
            echo "ok   $name:wall_us: ${base_wall} -> ${cur_wall}"
        fi
    fi
done

# The loop above walks baselines only; a report without one would never be
# gated, so it fails too.
for current in "$current_dir"/BENCH_*.json; do
    name="$(basename "$current")"
    [[ -f "$baseline_dir/$name" ]] || fail "$name: no baseline in $baseline_dir (new experiment never gated?)"
done

if ((failures > 0)); then
    echo "bench diff: $failures regression(s) against $baseline_dir"
    exit 1
fi
echo "bench diff: all reports within tolerance of $baseline_dir"
