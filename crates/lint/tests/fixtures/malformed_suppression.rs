//! Ill-formed suppressions: a missing reason, an unknown lint name or a rule
//! that clippy carries is itself a finding, and the broken marker does **not**
//! suppress the underlying violation.

fn missing_reason(word: u32) -> u8 {
    // lint:allow(raw-numeric-cast)
    word as u8
}

fn unknown_lint(a: f32) -> bool {
    // lint:allow(no-such-lint): the name is not registered
    a == 0.5
}

fn clippy_carried(input: Option<u32>) -> u32 {
    // lint:allow(panic-in-worker): excused with #[expect(clippy::…)] instead
    input.unwrap()
}
