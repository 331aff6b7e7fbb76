//! Idiomatic look-alikes that must produce **zero** findings: the lints match
//! token adjacency, so strings, comments, bit comparisons, widening casts and
//! `#[cfg(test)]` regions are all fine.

//! A doc comment mentioning `x as i8` and `a == 0.5` is not code.

fn message() -> &'static str {
    // The forbidden phrases inside literals are data, not code:
    "compare a == 1.0 or cast as u8 — none of these count"
}

fn bits_equal(a: f32, b: f32) -> bool {
    // Bit comparison is the sanctioned float-equality idiom.
    a.to_bits() == b.to_bits()
}

fn int_compare(a: usize, b: usize) -> bool {
    a == b
}

fn widening_casts_are_fine(x: i8, y: u8) -> (i32, u32, i8) {
    // Widening `as i32` / `as u32` and the checked conversions never lose
    // information; only `as i8` / `as u8` narrowing is policed.
    let wide = x as i32;
    let wider = y as u32;
    let checked = i8::try_from(wide).unwrap_or(0);
    (wide, wider, checked)
}

fn range_not_float() -> u32 {
    // `1..8` must lex as ints + range, never as a float comparison operand.
    (1..8).sum()
}

fn ordering_is_not_equality(a: f32) -> bool {
    // `<=` and `=>` are not `==`.
    match a <= 0.5 {
        true => a >= -0.5,
        false => false,
    }
}

#[cfg(test)]
fn test_only_helper() -> u8 {
    // A whole test-only item is legal, and test code may cast freely.
    300u32 as u8
}

#[cfg(test)]
mod tests {
    #[test]
    fn floats_and_casts_are_fine_in_tests() {
        let nan = f32::NAN;
        assert!(!(nan == nan));
        assert_eq!(-1i32 as u8, 255);
    }
}
