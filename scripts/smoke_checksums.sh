#!/usr/bin/env bash
# Gates the bits of every served verdict: runs the e2e benchmark's smoke pass
# (every workload, the default seed, one short segment each) and fails unless
# its six `verdicts: … checksum X` lines, in workload order, are exactly the
# values recorded below.
#
#   scripts/smoke_checksums.sh
#
# A checksum folds every verdict of a workload: the path bits, the score, the
# predicted class.  It moves when any kernel changes the order in which it
# sums, when a non-finite value reaches a kernel on real traffic, or when a
# workload's inputs change.  A kernel change that moves one is fixed, never
# re-recorded; a deliberate change of the workloads records the new values
# here in the same commit.
set -euo pipefail

EXPECTED=(
    38da8c64cf7faa40 # direct_fwab_alexnet
    c90d4fe97ae084f0 # direct_bwcu_resnet
    0275baacf898d7fc # serve_steady_zipf
    a3dd14c05ea2e02b # serve_burst_scan
    cf6cdc8499af2d64 # serve_closed_f32
    52faa5e24510678c # serve_closed_int8
)
manifest=benchmarks/e2e/Cargo.toml
cd "$(dirname "$0")/.."
# Building the benchmark rewrites one stale line of its lock file (see
# ROADMAP "Infra"); put it back so the check leaves the tree clean.
trap 'git checkout -q -- benchmarks/e2e/Cargo.lock 2>/dev/null || true' EXIT

out="$(cargo run --release --quiet --manifest-path "$manifest" -- run --smoke)"
mapfile -t got < <(printf '%s\n' "$out" | sed -n 's/^verdicts: .* checksum \([0-9a-f]\{16\}\)$/\1/p')

if [[ "${got[*]}" != "${EXPECTED[*]}" ]]; then
    echo "smoke checksums moved:" >&2
    echo "  expected ${EXPECTED[*]}" >&2
    echo "  got      ${got[*]}" >&2
    exit 1
fi
echo "smoke checksums: all ${#EXPECTED[@]} match"
