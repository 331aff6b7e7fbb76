//! Deliberate violations — one per lint — used by the fixture-driven
//! integration test.  This file is excluded from the workspace scan by
//! `lint.toml` and is never compiled (it is read as data, not as a module).

fn spawn_workers() -> usize {
    // direct-available-parallelism: must go through the cached accessor.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    threads
}

fn make_queue() {
    // unbounded-channel: the serving runtime is bounded end-to-end.
    let (_tx, _rx) = std::sync::mpsc::channel::<u32>();
}

fn risky(input: Option<u32>) -> u32 {
    // panic-in-worker: bare unwrap in non-test library code.
    input.unwrap()
}

fn also_risky(flag: bool) {
    if flag {
        // panic-in-worker: explicit panic in non-test library code.
        panic!("boom");
    }
}

fn compare(a: f32) -> bool {
    // float-eq: accidental float equality instead of bit comparison.
    a == 0.5
}

fn touch(ptr: *const u8) -> u8 {
    // undocumented-unsafe: no SAFETY comment anywhere above.
    unsafe { *ptr }
}

fn later() {
    // todo-marker: unfinished code must not land.
    todo!()
}

fn hand_rolled_timer() {
    // raw-instant: library timings must flow through ptolemy_obs::Clock.
    let _start = std::time::Instant::now();
}

fn lossy_quantize(x: f32) -> i8 {
    // raw-numeric-cast: saturating rounding casts live in the quant module.
    (x * 127.0) as i8
}

fn hand_rolled_fan_out(items: &[u32]) -> u32 {
    // raw-thread-spawn: data parallelism goes through ptolemy_tensor::parallel.
    std::thread::scope(|scope| scope.spawn(|| items.iter().sum()).join().unwrap_or(0))
}

fn hooked(flag: &std::sync::atomic::AtomicBool) {
    // test-hook-in-prod: a statement that exists only under test.
    #[cfg(test)]
    flag.store(false, std::sync::atomic::Ordering::SeqCst);
}
