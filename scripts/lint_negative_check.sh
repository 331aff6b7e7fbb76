#!/usr/bin/env bash
# Negative-path check for the two lint gates: a gate that never fails is
# indistinguishable from a broken one.  Each of the workspace's ten rules is
# carried by exactly one tool (docs/ARCHITECTURE.md, "Enforced invariants"):
#
# * seven by clippy — the root Cargo.toml's [workspace.lints] plus the
#   disallowed-methods list in clippy.toml;
# * three by ptolemy-lint — float-eq, raw-numeric-cast, test-hook-in-prod.
#
# The script copies the workspace into a temp directory, asserts the clean copy
# passes both gates, then injects one violation at a time into a product crate
# and asserts that the gate carrying the rule fails and names it at the
# injected line.  The clippy half checks the copy in its own target directory
# (one full `cargo clippy` pass, then one crate per injection).
#
#   usage: scripts/lint_negative_check.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
bin="${PTOLEMY_LINT_BIN:-$root/target/release/ptolemy-lint}"
if [[ ! -x "$bin" ]]; then
    echo "ptolemy-lint binary not found at $bin — building it"
    (cd "$root" && cargo build --release -q -p ptolemy-lint)
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
copy="$tmp/ws"
mkdir "$copy"
# The copy carries .cargo/config.toml so cargo, run from inside it, builds
# with the committed flags.
tar -C "$root" --exclude=target -cf - \
    Cargo.toml Cargo.lock clippy.toml .cargo crates src examples tests vendor |
    tar -C "$copy" -xf -

clippy() {
    (cd "$copy" && CARGO_TARGET_DIR="$tmp/target" \
        cargo clippy --workspace --all-targets -q -- -D warnings 2>&1)
}

# inject FILE SNIPPET: appends the one-line SNIPPET to FILE in the copy and
# sets `line` to its line number.
inject() {
    printf '\n%s\n' "$2" >>"$copy/$1"
    line="$(wc -l <"$copy/$1")"
}

restore() {
    cp "$root/$1" "$copy/$1"
}

fail() {
    echo "FAIL: $1"
    echo "$2"
    exit 1
}

echo "== clean copy must pass clippy and ptolemy-lint"
out="$(clippy)" || fail "clippy rejects the clean copy" "$out"
out="$("$bin" --root "$copy")" || fail "ptolemy-lint rejects the clean copy" "$out"

# clippy_case LINT FILE SNIPPET: clippy must fail on SNIPPET appended to FILE,
# with a diagnostic at the injected line that names LINT.
clippy_case() {
    local lint="$1" file="$2" snippet="$3" out code
    inject "$file" "$snippet"
    set +e
    out="$(clippy)"
    code=$?
    set -e
    restore "$file"
    [[ "$code" -ne 0 ]] || fail "clippy passed with '$snippet' in $file" "$out"
    grep -q -- "--> $file:$line:" <<<"$out" ||
        fail "clippy does not report the injected site $file:$line" "$out"
    grep -q -- "$lint" <<<"$out" || fail "clippy does not name $lint" "$out"
    echo "  $lint at $file:$line"
}

product="crates/serve/src/lib.rs"
# Every product crate is #![forbid(unsafe_code)], so the unsafe cases go where
# unsafe is allowed: the umbrella's allocator-counting test.
unsafe_file="tests/alloc_budget.rs"
quiet='#[allow(dead_code, reason = "injected")]'

echo "== direct-available-parallelism, unbounded-channel, raw-instant, raw-thread-spawn (clippy: disallowed_methods)"
for snippet in \
    'pub fn injected() -> usize { std::thread::available_parallelism().map_or(1, usize::from) }' \
    'pub fn injected() { let _ = std::sync::mpsc::channel::<u32>(); }' \
    'pub fn injected() -> std::time::Instant { std::time::Instant::now() }' \
    'pub fn injected() { std::thread::scope(|_| ()); }' \
    "pub fn injected<'s>(s: &'s std::thread::Scope<'s, '_>) { s.spawn(|| ()); }" \
    'pub fn injected() { drop(std::thread::spawn(|| ())); }' \
    'pub fn injected() { drop(std::thread::Builder::new().spawn(|| ())); }' \
    "pub fn injected<'s>(s: &'s std::thread::Scope<'s, '_>) { drop(std::thread::Builder::new().spawn_scoped(s, || ())); }"; do
    clippy_case "clippy::disallowed_methods" "$product" "$snippet"
done

echo "== panic-in-worker (clippy: unwrap_used, expect_used, panic, unreachable)"
clippy_case "clippy::unwrap_used" "$product" 'pub fn injected(x: Option<u8>) -> u8 { x.unwrap() }'
clippy_case "clippy::expect_used" "$product" 'pub fn injected(x: Option<u8>) -> u8 { x.expect("set") }'
clippy_case "clippy::panic" "$product" 'pub fn injected() { panic!("boom") }'
clippy_case "clippy::unreachable" "$product" 'pub fn injected() { unreachable!() }'

echo "== todo-marker (clippy: todo, unimplemented)"
clippy_case "clippy::todo" "$product" 'pub fn injected() { todo!() }'
clippy_case "clippy::unimplemented" "$product" 'pub fn injected() { unimplemented!() }'

echo "== undocumented-unsafe (clippy: undocumented_unsafe_blocks; rustc: unsafe_op_in_unsafe_fn)"
clippy_case "clippy::undocumented_unsafe_blocks" "$unsafe_file" \
    "$quiet fn injected(p: *const u8) -> u8 { unsafe { *p } }"
clippy_case "clippy::undocumented_unsafe_blocks" "$unsafe_file" \
    "$quiet struct Injected(*const u8); unsafe impl Send for Injected {}"
clippy_case "unsafe_op_in_unsafe_fn" "$unsafe_file" \
    "$quiet unsafe fn injected(p: *const u8) -> u8 { *p }"

echo "== every allowance keeps its reason and stays live"
clippy_case "clippy::allow_attributes_without_reason" "$product" \
    '#[allow(dead_code)] fn injected() {}'
clippy_case "unfulfilled_lint_expectations" "$product" \
    '#[expect(clippy::unwrap_used, reason = "nothing unwraps")] pub fn injected() {}'

# lint_case LINT SNIPPET: ptolemy-lint must exit 1 naming LINT at the
# injected line of the product file.
lint_case() {
    local lint="$1" snippet="$2" out code
    inject "$product" "$snippet"
    set +e
    out="$("$bin" --root "$copy")"
    code=$?
    set -e
    restore "$product"
    [[ "$code" -eq 1 ]] || fail "ptolemy-lint exited $code with '$snippet' in $product" "$out"
    grep -q "$product:$line:.*\[$lint\]" <<<"$out" ||
        fail "ptolemy-lint does not report [$lint] at $product:$line" "$out"
    echo "  $lint at $product:$line"
}

echo "== float-eq, raw-numeric-cast, test-hook-in-prod, suppression (ptolemy-lint)"
lint_case "float-eq" 'pub fn injected(a: f32) -> bool { a == 0.5 }'
lint_case "raw-numeric-cast" 'pub fn injected(x: u32) -> u8 { x as u8 }'
lint_case "test-hook-in-prod" 'pub fn injected() { #[cfg(test)] hook(); }'
lint_case "suppression" '// lint:allow(panic-in-worker): clippy carries this rule'

echo "== --json must agree"
inject "$product" 'pub fn injected(a: f32) -> bool { a == 0.5 }'
set +e
json="$("$bin" --root "$copy" --json)"
jcode=$?
set -e
if [[ "$jcode" -ne 1 ]] || ! grep -q '"clean":false' <<<"$json"; then
    fail "JSON report disagrees (exit $jcode)" "$json"
fi

echo "lint negative-path check passed: all ten rules fail their gate"
