#!/usr/bin/env bash
# Guards the work-conserving batch cut: runs the e2e benchmark's light-load
# serving workload and fails unless every verdict is correct, nothing failed
# and the median latency stays well under a millisecond.
#
#   scripts/serve_latency_check.sh
#
# `serve_steady_zipf` offers 1 600 req/s to a two-worker server, far below its
# capacity, so a request's latency is a screen pass plus whatever the queue
# policy adds.  A free worker cuts a non-empty queue at once; the expected p50
# is ~150-250 us.  A batch-forming timer (the 2 ms one this replaced read
# ~1 400 us here) or any other wait on a non-empty queue lands above the
# limit.  The limit is loose on purpose: it catches a policy regression, not
# machine noise.
set -euo pipefail

LIMIT_US=1000
manifest=benchmarks/e2e/Cargo.toml
# Building the benchmark rewrites one stale line of its lock file (see
# ROADMAP "Infra"); put it back so the check leaves the tree clean.
trap 'git checkout -q -- benchmarks/e2e/Cargo.lock 2>/dev/null || true' EXIT

result="$(cargo run --release --quiet --manifest-path "$manifest" -- \
    run --workload serve_steady_zipf --seconds 5 --trace 0 | tail -n 1)"
echo "$result"

field() { # field <regex with one capture group>
    sed -nE "s/.*$1.*/\1/p" <<<"$result"
}
correct="$(field '"correct": (true|false)')"
failed="$(field '"failed": ([0-9]+)')"
p50_us="$(field '"latency_p50_us": \{"value": ([0-9]+)')"
if [[ -z "$correct" || -z "$failed" || -z "$p50_us" ]]; then
    echo "FAIL: could not read correct / failed / latency_p50_us from the result line" >&2
    exit 2
fi

status=0
[[ "$correct" == "true" ]] || { echo "FAIL: verdict oracle reported incorrect verdicts"; status=1; }
[[ "$failed" -eq 0 ]] || { echo "FAIL: $failed requests failed"; status=1; }
if ((p50_us >= LIMIT_US)); then
    echo "FAIL: serve_steady_zipf latency_p50_us ${p50_us} >= ${LIMIT_US}: a free worker is waiting on a non-empty queue"
    status=1
fi
((status != 0)) || echo "serve latency check: p50 ${p50_us} us < ${LIMIT_US} us, ${failed} failed, verdicts correct"
exit "$status"
