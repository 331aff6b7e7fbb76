#!/usr/bin/env bash
# Paired runs of the end-to-end benchmark: a parent rev against a change rev.
#
#   usage: scripts/pairs.sh <parent-rev> <change-rev> <workload>...
#                           [--pairs N] [--secs S] [--seed K]
#          (defaults: 10 pairs of 20 s runs at the benchmark's default seed)
#
# Each rev's committed files are exported (`git archive`) into a throwaway
# directory, and the benchmark is built from *inside* that directory into its
# own target directory, the way `BENCHMARK.json`'s command builds it from a
# fresh checkout.  So each side builds with its own `.cargo/config.toml` (or
# none), and nothing in this checkout is touched — its `Cargo.lock` files
# included.  The throwaway directory comes from `mktemp -d` (`TMPDIR` moves
# it) and must not sit inside a checkout: cargo also reads the
# `.cargo/config.toml` of every ancestor of the directory it builds in.  An
# environment `RUSTFLAGS` would replace both sides' committed flags, so it is
# cleared for the builds.
#
# Both binaries are copied out before the first run.  The runs alternate, and
# which side goes first flips every pair.  A run whose verdicts are not all
# correct stops the script.  The output is one markdown table: per workload
# and end-to-end metric (the `end_to_end` list of `BENCHMARK.json`), q25 /
# median / q75 of each side, the ratio of the medians (change / parent) and in
# how many pairs the change read better (ties count for neither side).
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <change-rev> <workload>... [--pairs N] [--secs S] [--seed K]" >&2
    exit 2
}

pairs=10
secs=20
seed_args=()
positional=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
        --secs) secs="${2:?--secs needs a value}"; shift 2 ;;
        --seed) seed_args=(--seed "${2:?--seed needs a value}"); shift 2 ;;
        --*) usage ;;
        *) positional+=("$1"); shift ;;
    esac
done
[[ ${#positional[@]} -ge 3 ]] || usage
parent_rev="${positional[0]}"
change_rev="${positional[1]}"
workloads=("${positional[@]:2}")

repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# `name better` for every end-to-end metric (the entries that carry a bound).
metrics="$(sed -nE 's/.*"name": "([^"]+)".*"better": "([a-z]+)".*"bound".*/\1 \2/p' "$repo/BENCHMARK.json")"

build() { # <rev> <side>
    local src="$work/$2-src"
    mkdir -p "$src"
    git -C "$repo" archive "$1" | tar -x -C "$src"
    echo "building $2 ($1)" >&2
    (cd "$src" && env -u RUSTFLAGS -u CARGO_ENCODED_RUSTFLAGS CARGO_TARGET_DIR="$src/target" \
        cargo build --release --quiet --offline --manifest-path benchmarks/e2e/Cargo.toml)
    cp "$src/target/release/ptolemy-e2e-bench" "$work/$2"
    rm -rf "$src"
}
build "$parent_rev" parent
build "$change_rev" change

# One line per run and metric: `workload pair side metric value`.
runs="$work/runs"
: >"$runs"
for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        order=(parent change)
        ((pair % 2 == 0)) && order=(change parent)
        for side in "${order[@]}"; do
            result="$("$work/$side" run --workload "$workload" "${seed_args[@]}" \
                --seconds "$secs" --trace 0 2>/dev/null | tail -n 1)"
            if [[ "$result" != *'"correct": true'* ]]; then
                echo "$workload pair $pair ($side): verdicts not all correct: $result" >&2
                exit 1
            fi
            while read -r name _; do
                value="$(sed -nE "s/.*\"$name\": \\{\"value\": ([^,}]+).*/\\1/p" <<<"$result")"
                echo "$workload $pair $side $name $value" >>"$runs"
            done <<<"$metrics"
            p50="$(awk -v w="$workload" -v p="$pair" -v s="$side" \
                '$1 == w && $2 == p && $3 == s && $4 == "latency_p50_us" { print $5 }' "$runs")"
            echo "$workload pair $pair/$pairs $side: latency_p50_us $p50" >&2
        done
    done
done

# q25 / median / q75 (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '{ x[NR] = $1 }
        function q(p,  h, lo) { h = (NR - 1) * p; lo = int(h); return x[lo + 1] + (h - lo) * (x[lo + 2] - x[lo + 1]) }
        END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

side_values() { # <workload> <metric> <side>
    awk -v w="$1" -v m="$2" -v s="$3" '$1 == w && $4 == m && $3 == s { print $5 }' "$runs"
}

echo "scripts/pairs.sh $parent_rev $change_rev ${workloads[*]} --pairs $pairs --secs $secs ${seed_args[*]}"
echo
echo "| workload | metric | parent q25 / median / q75 | change q25 / median / q75 | change / parent | change better |"
echo "|---|---|---|---|---|---|"
for workload in "${workloads[@]}"; do
    while read -r name better; do
        read -r pq1 pq2 pq3 < <(side_values "$workload" "$name" parent | quartiles)
        read -r cq1 cq2 cq3 < <(side_values "$workload" "$name" change | quartiles)
        wins="$(awk -v w="$workload" -v m="$name" -v better="$better" '
            $1 == w && $4 == m { v[$2, $3] = $5; n[$2] = 1 }
            END {
                for (p in n) {
                    total++
                    d = v[p, "change"] - v[p, "parent"]
                    if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) won++
                }
                printf "%d/%d\n", won, total
            }' "$runs")"
        ratio="$(awk -v c="$cq2" -v p="$pq2" 'BEGIN { if (p == 0) print "-"; else printf "%.3f\n", c / p }')"
        echo "| $workload | $name ($better) | $pq1 / $pq2 / $pq3 | $cq1 / $cq2 / $cq3 | $ratio | $wins |"
    done <<<"$metrics"
done
