//! Idiomatic look-alikes that must produce **zero** findings: the lints match
//! token adjacency, so strings, comments, documented unsafe, bounded channels
//! and `#[cfg(test)]` regions are all fine.

//! A doc comment mentioning std::thread::available_parallelism() is not a call.

fn bounded_handoff() {
    // sync_channel is the sanctioned bounded handoff.
    let (_tx, _rx) = std::sync::mpsc::sync_channel::<u32>(1);
}

fn message() -> &'static str {
    // The forbidden phrases inside literals are data, not code:
    "call channel() or unwrap() or panic!() — none of these count"
}

fn graceful(input: Option<u32>) -> u32 {
    // unwrap_or / unwrap_or_else are the non-panicking cousins.
    input.unwrap_or_else(|| 0)
}

fn bits_equal(a: f32, b: f32) -> bool {
    // Bit comparison is the sanctioned float-equality idiom.
    a.to_bits() == b.to_bits()
}

fn int_compare(a: usize, b: usize) -> bool {
    a == b
}

fn documented(ptr: *const u8) -> u8 {
    // SAFETY: the caller guarantees `ptr` points at a live, aligned byte.
    unsafe { *ptr }
}

fn clock_timing(clock: &ptolemy_obs::Clock) -> u64 {
    // now_ns() on a Clock is the sanctioned timing read; other now()s
    // (SystemTime::now()) are not Instant and stay legal.
    let _wall = std::time::SystemTime::now();
    clock.now_ns()
}

fn widening_casts_are_fine(x: i8, y: u8) -> (i32, u32, i8) {
    // Widening `as i32` / `as u32` and the checked conversions never lose
    // information; only `as i8` / `as u8` narrowing is policed.
    let wide = x as i32;
    let wider = y as u32;
    let checked = i8::try_from(wide).unwrap_or(0);
    (wide, wider, checked)
}

fn cast_in_string() -> &'static str {
    // The phrase inside a literal is data, not a cast:
    "quantize with `as i8` only inside crates/tensor/src/quant.rs"
}

fn range_not_float() -> u32 {
    // `1..8` must lex as ints + range, never as a float comparison operand.
    (1..8).sum()
}

fn gated_fan_out(items: &[u32]) -> Vec<u32> {
    // The work-gated primitives are the sanctioned way to use more cores; a
    // local that happens to be called `scope` or `spawn` is just a name.
    let scope = items.len();
    let spawn = scope * 2;
    ptolemy_tensor::parallel::par_map(items, spawn, |x| x + 1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn threads_are_fine_in_tests() {
        assert_eq!(std::thread::spawn(|| 3).join().ok(), Some(3));
    }

    #[test]
    fn unwraps_are_fine_in_tests() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
        let nan = f32::NAN;
        assert!(!(nan == nan));
    }
}
