#!/usr/bin/env bash
# Negative-path check for the ptolemy-lint CI gate: a gate that never fails is
# indistinguishable from a broken one, so this script proves the failure path
# works end to end.  It copies the scanned tree into a temp directory, asserts
# the clean copy passes, injects a violation, and asserts the lint exits
# non-zero naming the injected file, line and lint.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
bin="${PTOLEMY_LINT_BIN:-$root/target/release/ptolemy-lint}"
if [[ ! -x "$bin" ]]; then
    echo "ptolemy-lint binary not found at $bin — building it"
    (cd "$root" && cargo build --release -q -p ptolemy-lint)
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cp "$root/lint.toml" "$tmp/"
for sub in crates src examples tests; do
    [[ -d "$root/$sub" ]] && cp -r "$root/$sub" "$tmp/"
done

echo "== clean copy must pass"
"$bin" --root "$tmp" >/dev/null

echo "== injected violation must fail with the right span"
victim_rel="crates/tensor/src/lib.rs"
victim="$tmp/$victim_rel"
printf '\npub fn injected_violation() { todo!() }\n' >>"$victim"
line="$(wc -l <"$victim")"

set +e
out="$("$bin" --root "$tmp")"
code=$?
set -e
if [[ "$code" -ne 1 ]]; then
    echo "FAIL: expected exit code 1 on an injected violation, got $code"
    echo "$out"
    exit 1
fi
if ! grep -q "$victim_rel:$line:" <<<"$out"; then
    echo "FAIL: report does not name the injected site $victim_rel:$line"
    echo "$out"
    exit 1
fi
if ! grep -q "todo-marker" <<<"$out"; then
    echo "FAIL: report does not name the todo-marker lint"
    echo "$out"
    exit 1
fi

echo "== a second spawn site must fail as raw-thread-spawn"
spawn_rel="crates/core/src/extraction.rs"
printf '\npub fn injected_spawn_site() { std::thread::scope(|_| ()); }\n' >>"$tmp/$spawn_rel"
spawn_line="$(wc -l <"$tmp/$spawn_rel")"
set +e
out="$("$bin" --root "$tmp")"
code=$?
set -e
if [[ "$code" -ne 1 ]] || ! grep -q "$spawn_rel:$spawn_line:.*raw-thread-spawn" <<<"$out"; then
    echo "FAIL: a thread::scope outside the allow-list was not reported (exit $code)"
    echo "$out"
    exit 1
fi

echo "== --json must agree"
set +e
json="$("$bin" --root "$tmp" --json)"
jcode=$?
set -e
if [[ "$jcode" -ne 1 ]] || ! grep -q '"clean":false' <<<"$json"; then
    echo "FAIL: JSON report disagrees (exit $jcode): $json"
    exit 1
fi

echo "ptolemy-lint negative-path check passed"
