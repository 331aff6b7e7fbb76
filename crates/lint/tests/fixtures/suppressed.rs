//! Violations carrying well-formed `lint:allow` suppressions — each names the
//! lint and gives a reason, so the file must produce **zero** findings.

fn trailing(input: Option<u32>) -> u32 {
    input.unwrap() // lint:allow(panic-in-worker): fixture demonstrates trailing form
}

fn line_above(input: Option<u32>) -> u32 {
    // lint:allow(panic-in-worker): fixture demonstrates the line-above form
    input.unwrap()
}

fn sentinel(a: f32) -> bool {
    // lint:allow(float-eq): comparing against an exact sentinel value
    a == 0.0
}

fn deliberate_todo() {
    // lint:allow(todo-marker): fixture demonstrates suppressing the marker
    todo!()
}

fn sanctioned_clock_source() {
    // lint:allow(raw-instant): fixture stands in for the Clock's own OS read
    let _epoch = std::time::Instant::now();
}

fn field_encoding(word: u32) -> u8 {
    // lint:allow(raw-numeric-cast): fixture stands in for an ISA word-field mask
    (word & 0xFF) as u8
}

fn sanctioned_service_thread() {
    // lint:allow(raw-thread-spawn): fixture stands in for a server's worker start-up
    let _worker = std::thread::spawn(|| ());
}
