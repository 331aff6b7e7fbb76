//! `test-hook-in-prod`: `#[cfg(test)]` may gate a whole item, never a struct
//! field, a statement or an expression — three violations below, then the
//! legal forms.  Read as data by the fixture test, never compiled.

struct Shared {
    queue: Vec<u32>,
    // A field that exists only under test: the production struct has two
    // shapes, and every constructor needs a matching hook.
    #[cfg(test)]
    fault_armed: std::sync::atomic::AtomicBool,
}

fn screen_batch(shared: &Shared) -> usize {
    // A statement that runs only under test.
    #[cfg(test)]
    inject_fault(&shared.fault_armed);
    shared.queue.len()
}

fn start() -> Shared {
    Shared {
        queue: Vec::new(),
        // An expression (a field initialiser) compiled only under test.
        #[cfg(test)]
        fault_armed: std::sync::atomic::AtomicBool::new(false),
    }
}

// Whole items are fine, with or without a visibility qualifier.
#[cfg(test)]
fn inject_fault(flag: &std::sync::atomic::AtomicBool) {
    let _ = flag;
}

#[cfg(test)]
pub(crate) struct Probe;

#[cfg(test)]
impl Probe {}

#[cfg(test)]
use std::sync::Arc;

#[cfg(test)]
mod tests {
    #[test]
    fn anything_goes_inside_a_test_region() {
        #[cfg(test)]
        let _x = 1;
    }
}
