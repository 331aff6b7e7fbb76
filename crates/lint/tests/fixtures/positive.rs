//! Deliberate violations — one per lint — used by the fixture-driven
//! integration test.  This file is excluded from the workspace scan and is
//! never compiled (it is read as data, not as a module).  The rules clippy
//! carries are exercised by `scripts/lint_negative_check.sh` instead.

fn compare(a: f32) -> bool {
    // float-eq: accidental float equality instead of bit comparison.
    a == 0.5
}

fn compare_cast(n: u32, b: f32) -> bool {
    // float-eq: a float cast on either side counts too.
    (n as f32) != b
}

fn lossy_quantize(x: f32) -> i8 {
    // raw-numeric-cast: saturating rounding casts live in the quant module.
    (x * 127.0) as i8
}

fn lossy_byte(word: u32) -> u8 {
    // raw-numeric-cast: `as u8` is policed like `as i8`.
    word as u8
}

fn hooked(flag: &std::sync::atomic::AtomicBool) {
    // test-hook-in-prod: a statement that exists only under test.
    #[cfg(test)]
    flag.store(false, std::sync::atomic::Ordering::SeqCst);
}
