//! Violations carrying well-formed `lint:allow` suppressions — each names the
//! lint and gives a reason, so the file must produce **zero** findings.

fn trailing(word: u32) -> u8 {
    (word & 0xFF) as u8 // lint:allow(raw-numeric-cast): fixture demonstrates trailing form
}

fn line_above(word: u32) -> u8 {
    // lint:allow(raw-numeric-cast): fixture demonstrates the line-above form
    (word >> 24) as u8
}

fn sentinel(a: f32) -> bool {
    // lint:allow(float-eq): comparing against an exact sentinel value
    a == 0.0
}

fn both(a: f32, word: u32) -> bool {
    // lint:allow(float-eq, raw-numeric-cast): one marker may name several lints
    a != 1.0 && word as u8 > 0
}

fn sanctioned_hook(flag: &std::sync::atomic::AtomicBool) {
    // lint:allow(test-hook-in-prod): fixture demonstrates suppressing the hook
    #[cfg(test)]
    flag.store(false, std::sync::atomic::Ordering::SeqCst);
}
