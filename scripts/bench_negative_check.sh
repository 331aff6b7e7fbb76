#!/usr/bin/env bash
# Proves the bench diff gate actually gates: copies a set of current
# BENCH_*.json reports and asserts `bench_diff.sh` (which must pass on the
# pristine copies) rejects two doctored sets and names the offender:
#
#   1. a 20x wall-clock regression plus a parity-flag violation in one report;
#   2. an extra report with no committed baseline (an experiment that would
#      otherwise never be gated).
#
#   scripts/bench_negative_check.sh <current_dir>
set -euo pipefail

current_dir="${1:-target/bench-ci}"
if ! ls "$current_dir"/BENCH_*.json >/dev/null 2>&1; then
    echo "no BENCH_*.json reports under $current_dir — run the bench smoke first" >&2
    exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cp "$current_dir"/BENCH_*.json "$workdir/"

echo "== pristine copies must pass the gate =="
./scripts/bench_diff.sh benchmarks/baseline "$workdir" >/dev/null

# must_fail <what> <pattern>…: the gate rejects $workdir and its output
# matches every pattern.
must_fail() {
    local what="$1" output pattern
    shift
    if output="$(./scripts/bench_diff.sh benchmarks/baseline "$workdir" 2>&1)"; then
        echo "bench_diff.sh passed $what — the gate is not gating" >&2
        echo "$output" >&2
        exit 1
    fi
    for pattern in "$@"; do
        if ! grep -q "$pattern" <<<"$output"; then
            echo "failure output for $what does not name \`$pattern\`" >&2
            echo "$output" >&2
            exit 1
        fi
    done
}

victim="BENCH_quantized_serve.json"
echo "== injecting 20x wall_us regression + parity violation into $victim =="
awk '
    /^  "wall_us":/ { sub(/[0-9]+/, $2 * 20 ",");
                      sub(/,,/, ","); print; next }
    inparity && /": 1,?$/ && !flipped { sub(/: 1/, ": 0"); flipped = 1 }
    /^  "parity": {$/ { inparity = 1 }
    /^  }/ { inparity = 0 }
    { print }
' "$current_dir/$victim" > "$workdir/$victim"
must_fail "a 20x regression" "$victim:wall_us" "$victim:parity\."
cp "$current_dir/$victim" "$workdir/$victim"

echo "== adding a report with no baseline =="
cp "$current_dir/$victim" "$workdir/BENCH_unbaselined.json"
must_fail "an unbaselined report" "BENCH_unbaselined.json: no baseline"

echo "bench negative check: gate rejects injected regressions and unbaselined reports and names them"
