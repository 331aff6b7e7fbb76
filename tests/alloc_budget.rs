//! Allocation budget of a recorded forward pass and of the BwCu reverse walk.
//!
//! The walk reads partial sums the inference already produced (paper
//! Sec. III-A), so what it allocates should not grow with the number of
//! neurons it marks: decompositions go into one walk-owned buffer, ranking is
//! a scan over reused scratch, and merges are a bitset.  Nor should keeping
//! activations cost a copy each: the forward driver hands every boundary and
//! interior over by value once it is done with it, so `forward_trace` and the
//! streamed walk's retention keep them by move.  A counting global allocator
//! measures, on `resnet_mini`, a plain forward pass, `forward_trace` and a
//! streamed BwCu extraction at two thresholds:
//!
//! * `forward_trace` allocates exactly what the forward pass does plus
//!   [`TRACE_BEYOND_FORWARD`]: the trace's two vectors, less the forward's
//!   reshape of the logits;
//! * the θ 0.5 extraction allocates exactly what the forward pass does plus
//!   [`WALK_BEYOND_FORWARD`]: the plan, the path and the walk's buffers —
//!   no retained activation is copied;
//! * a larger θ marks more neurons, and the only extra allocations it may
//!   cost are the walk's buffers growing, at most one per enabled layer.
//!
//! This binary holds exactly one test, so nothing else allocates while it
//! counts.  Run it with `--nocapture` to see the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ptolemy::core::{extract_path_streaming, variants};
use ptolemy::nn::zoo;
use ptolemy::prelude::Tensor;
use ptolemy::tensor::parallel::with_forced_width;
use ptolemy::tensor::Rng64;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is an atomic that touches no
// allocated memory and never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` goes to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`: the call goes to `System` unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`: the call goes to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`: the call goes to `System` unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of `forward_trace` beyond a forward pass on the same input.
const TRACE_BEYOND_FORWARD: usize = 1;

/// Allocations of a streamed θ 0.5 BwCu extraction beyond a forward pass on
/// the same input.  An optimised build elides 23 short-lived ones.
const WALK_BEYOND_FORWARD: usize = if cfg!(debug_assertions) { 111 } else { 88 };

/// Allocations made while `f` runs, all on this thread: fan-outs are forced
/// to width 1.
fn allocations<R>(f: impl FnOnce() -> R) -> usize {
    with_forced_width(1, || {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        std::hint::black_box(f());
        ALLOCATIONS.load(Ordering::SeqCst) - before
    })
}

#[test]
fn a_larger_theta_costs_at_most_buffer_growth() {
    let mut rng = Rng64::new(29);
    let network = zoo::resnet_mini(10, &mut rng).unwrap();
    let len: usize = network.input_shape().iter().product();
    let input = Tensor::from_vec(
        (0..len).map(|_| rng.normal()).collect(),
        network.input_shape(),
    )
    .unwrap();
    let programs = [0.5f32, 0.9].map(|theta| variants::bw_cu(&network, theta).unwrap());
    // Warm-up: packed weight panels and other first-call caches.
    for program in &programs {
        extract_path_streaming(&network, program, &input).unwrap();
    }

    let forward = allocations(|| network.forward(&input).unwrap());
    let traced = allocations(|| network.forward_trace(&input).unwrap());
    let walk = programs.each_ref().map(|program| {
        let streamed = allocations(|| extract_path_streaming(&network, program, &input).unwrap());
        let path = extract_path_streaming(&network, program, &input)
            .unwrap()
            .path;
        (streamed - forward, path.count_ones(), path.segments().len())
    });
    let [(low, low_bits, enabled), (high, high_bits, _)] = walk;
    println!(
        "forward: {forward} allocations; forward_trace beyond it: {}; walk beyond it: \
         θ 0.5 → {low} ({low_bits} bits), θ 0.9 → {high} ({high_bits} bits), {enabled} enabled layers",
        traced - forward
    );
    assert_eq!(
        traced - forward,
        TRACE_BEYOND_FORWARD,
        "forward_trace allocates per boundary: a recorded activation is copied"
    );
    assert_eq!(
        low, WALK_BEYOND_FORWARD,
        "the streamed walk's allocations beyond the forward pass moved"
    );
    assert!(high_bits > low_bits, "θ 0.9 must mark more than θ 0.5");
    assert!(
        high <= low + enabled,
        "θ 0.9 allocated {high} beyond the forward pass, θ 0.5 {low}: more than one \
         allocation per enabled layer ({enabled}) — the walk allocates per neuron"
    );
}
