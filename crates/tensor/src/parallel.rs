//! The workspace's only data-parallel spawn site: one work-gated fork-join.
//!
//! Every kernel and every batch driver that wants more than one core goes
//! through [`fork_join`] (directly, or through the [`par_row_chunks`] /
//! [`par_chunks`] / [`par_map`] adapters).  The caller states how much work it
//! has, in MAC-equivalents, and `fork_join` decides how many threads that work
//! is worth *right now*:
//!
//! ```text
//! width = min(parts, idle cores, work / MIN_WORK_PER_THREAD)
//! ```
//!
//! * `width <= 1` runs everything inline on the caller — no thread, no
//!   channel, and below the work gate not even an atomic load;
//! * otherwise the **caller runs chunk 0** and only `width - 1` scoped helper
//!   threads are spawned for the rest.
//!
//! "Idle cores" is [`available_parallelism`] minus a process-wide count of
//! **claimed** threads ([`claimed_threads`]).  A fork-join claims its caller
//! and its helpers while they run; long-lived compute threads that are not
//! fork-join helpers (each serve worker, and its escalator, while it holds a
//! batch) claim themselves through the RAII [`ThreadClaim`].  A nested call
//! therefore sees the cores its parent already occupies and fans out nothing,
//! and a saturated server runs every kernel inline, while a call from an
//! otherwise idle process still uses every core.
//!
//! Deliberately **not** a persistent pool — see "Threading model" in
//! `docs/ARCHITECTURE.md` for that trade-off and the full thread inventory.

use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Least work, in MAC-equivalents, every participating thread must be handed
/// before [`fork_join`] fans out.
///
/// Measured on the 2-core reference box (release build, blocked f32 GEMM at
/// ~9 GMAC/s; an empty scope + one helper spawn + join costs 16 µs at the
/// median when the helper lands on the caller's core and ~60 µs when it has
/// to wake the other one), serial vs a forced 2-way row split, median of 12
/// interleaved rounds:
///
/// | product (m×k×n) | MACs  | serial  | 2-way   | at the gate |
/// |-----------------|-------|---------|---------|-------------|
/// | 96×128×64       | 0.79M | 90 µs   | 117 µs  | inline      |
/// | 128×128×64      | 1.05M | 105 µs  | 116 µs  | inline      |
/// | 128×128×120     | 1.97M | 194 µs  | 195 µs  | inline      |
/// | 128×128×128     | 2.10M | 207 µs  | 181 µs  | 2 threads   |
/// | 192×192×192     | 7.08M | 730 µs  | 492 µs  | 2 threads   |
/// | 256×256×256     | 16.8M | 1.85 ms | 1.56 ms | 2 threads   |
///
/// so the split breaks even at ~2M MACs, i.e. `1 << 20` per thread.  A fused
/// forward over a batch is gated the same way on `batch ×
/// Network::total_macs`; a whole forward costs more time than its MACs
/// suggest (im2col, pooling, allocation), so that estimate errs towards
/// staying inline: 16 × 0.17M-MAC forwards take 2.22 ms on one thread and
/// 1.27 ms on two.  (The box's second core comes and goes with its host; in
/// the stretches where two threads get one core's worth, a 2-way split costs
/// 5–12 % instead; this table, not a timing gate, justifies the constant.)
pub const MIN_WORK_PER_THREAD: usize = 1 << 20;

/// Threads currently claimed as busy, process-wide.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// Helper threads [`fork_join`] has spawned since process start.
static HELPERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is already counted in [`CLAIMED`].
    static HOLDS_CLAIM: Cell<bool> = const { Cell::new(false) };
    /// Test hook: the width [`with_forced_width`] pinned for this thread.
    static FORCED_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Cached [`std::thread::available_parallelism`] (clamped to at least 1).
///
/// The std lookup re-reads cgroup state on Linux — microseconds per call, far
/// too slow to query per GEMM or per layer on hot paths, so the whole
/// workspace shares this single cached read.
pub fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        // lint:allow(direct-available-parallelism): the cached accessor itself primes the cache
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Threads currently claimed as busy: fork-join callers and helpers in
/// flight plus every live [`ThreadClaim`].
pub fn claimed_threads() -> usize {
    CLAIMED.load(Ordering::SeqCst)
}

/// Helper threads [`fork_join`] has spawned since process start (monotone).
pub fn helpers_spawned() -> usize {
    HELPERS_SPAWNED.load(Ordering::SeqCst)
}

/// RAII claim of the current thread as busy: while it lives, [`fork_join`]
/// calls on *other* threads see one idle core fewer, and calls on this thread
/// count it as the core the caller already occupies.
///
/// Claims nest: acquiring on a thread that already holds one is a no-op, so
/// a fork-join chunk that itself takes a claim is counted once.
#[derive(Debug)]
pub struct ThreadClaim {
    /// `true` if this guard (not an enclosing one) counted the thread.
    fresh: bool,
    /// The guard must drop on the thread that acquired it.
    _not_send: PhantomData<*const ()>,
}

impl ThreadClaim {
    /// Claims the current thread until the guard drops.
    pub fn acquire() -> ThreadClaim {
        let fresh = !HOLDS_CLAIM.replace(true);
        if fresh {
            CLAIMED.fetch_add(1, Ordering::SeqCst);
        }
        ThreadClaim {
            fresh,
            _not_send: PhantomData,
        }
    }
}

impl Drop for ThreadClaim {
    fn drop(&mut self) {
        if self.fresh {
            HOLDS_CLAIM.set(false);
            CLAIMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The threads one fan-out occupies: the caller's own claim plus a block of
/// helper claims, all released on drop (so a panicking chunk cannot leak
/// them).
struct Reservation {
    helpers: usize,
    _caller: ThreadClaim,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        CLAIMED.fetch_sub(self.helpers, Ordering::SeqCst);
    }
}

/// Decides the width of one fan-out and claims its threads; `None` means
/// "run inline" (and below the work gate touches no shared state).
fn reserve(parts: usize, work: usize) -> Option<Reservation> {
    let forced = FORCED_WIDTH.get();
    let width = parts.min(forced.unwrap_or(work / MIN_WORK_PER_THREAD));
    if width <= 1 {
        return None;
    }
    let caller = ThreadClaim::acquire();
    let mut helpers = 0;
    CLAIMED
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |claimed| {
            // A forced width (the test hook) ignores the idle-core limit.
            let idle = match forced {
                Some(_) => usize::MAX,
                None => available_parallelism().saturating_sub(claimed),
            };
            helpers = (width - 1).min(idle);
            (helpers > 0).then_some(claimed + helpers)
        })
        .ok()?;
    Some(Reservation {
        helpers,
        _caller: caller,
    })
}

/// Runs `run` over the tasks `split(width)` produces and returns the results
/// in task order.
///
/// `parts` is the finest split the caller can produce, `work` its total size
/// in MAC-equivalents; the width chosen from them (see the [module
/// docs](self)) is handed to `split`, which returns at most that many tasks.
/// Task 0 runs on the calling thread, every other task on its own scoped
/// helper.  At width 1 `split(1)` and `run` are called inline with no
/// synchronisation at all.
///
/// A panicking task resurfaces on the caller with its original payload once
/// every helper has been joined; the claimed threads are released either way.
pub fn fork_join<T, R, S, F>(parts: usize, work: usize, split: S, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    S: FnOnce(usize) -> Vec<T>,
    F: Fn(T) -> R + Sync,
{
    let Some(reservation) = reserve(parts, work) else {
        return split(1).into_iter().map(run).collect();
    };
    let mut tasks = split(reservation.helpers + 1).into_iter();
    let first = tasks.next();
    // Nested calls made by the caller's own chunk obey the real gate.
    let _real_gate = RestoreForcedWidth(FORCED_WIDTH.take());
    thread::scope(|scope| {
        let run = &run;
        let helpers: Vec<_> = tasks
            .map(|task| {
                HELPERS_SPAWNED.fetch_add(1, Ordering::SeqCst);
                scope.spawn(move || {
                    // Counted by the caller's reservation, not by a claim of
                    // its own: the thread ends with the task.
                    HOLDS_CLAIM.set(true);
                    run(task)
                })
            })
            .collect();
        let mut results: Vec<R> = first.map(run).into_iter().collect();
        for helper in helpers {
            results.push(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        results
    })
}

/// Puts a thread's forced width back when dropped.
struct RestoreForcedWidth(Option<usize>);

impl Drop for RestoreForcedWidth {
    fn drop(&mut self) {
        FORCED_WIDTH.set(self.0);
    }
}

/// Runs `f` over contiguous row chunks of `out` (a row-major `[rows, row_len]`
/// buffer), fanning the chunks out when `work` MAC-equivalents justify it.
///
/// `f(first_row, chunk)` fills rows `first_row ..` of its chunk.  Each row is
/// computed by exactly one invocation, so per-element arithmetic is identical
/// to a serial pass — threading partitions the output, never a reduction.
///
/// Generic over the element type so the f32 kernels (`&mut [f32]`) and the
/// int8 GEMM's i32 accumulator buffers (`&mut [i32]`) share one partitioner.
pub fn par_row_chunks<T, F>(out: &mut [T], rows: usize, row_len: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_len);
    let parts = if row_len == 0 { 1 } else { rows };
    fork_join(
        parts,
        work,
        |width| {
            if width <= 1 {
                return vec![(0, out)];
            }
            let chunk_rows = rows.div_ceil(width);
            out.chunks_mut(chunk_rows * row_len)
                .enumerate()
                .map(|(i, chunk)| (i * chunk_rows, chunk))
                .collect()
        },
        |(first_row, chunk)| f(first_row, chunk),
    );
}

/// Maps `f` over contiguous chunks of `items` — one chunk per participating
/// thread — and returns the per-chunk results in order.  The chunks partition
/// `items`; at width 1 `f` sees the whole slice once.
pub fn par_chunks<T, R, F>(items: &[T], work: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    fork_join(
        items.len(),
        work,
        |width| {
            if width <= 1 {
                return vec![items];
            }
            items.chunks(items.len().div_ceil(width)).collect()
        },
        f,
    )
}

/// Maps `f` over `items`, preserving order: `par_map(xs, w, f)[i] == f(&xs[i])`
/// exactly, whatever width `work` (the MAC-equivalents of the *whole* map)
/// buys.
pub fn par_map<T, U, F>(items: &[T], work: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let chunks = par_chunks(items, work, |chunk| {
        chunk.iter().map(&f).collect::<Vec<U>>()
    });
    chunks.into_iter().flatten().collect()
}

/// Test hook: every [`fork_join`] that `f` calls directly on this thread uses
/// `width` threads (clamped to its `parts`) regardless of the work gate and
/// the idle-core count; calls nested inside a chunk obey the real gate.
///
/// This is how the parity suites compare width 1 against width N on small
/// models and on single-core runners — it is not a tuning knob, and nothing
/// outside tests may call it.
#[doc(hidden)]
pub fn with_forced_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _restore = RestoreForcedWidth(FORCED_WIDTH.replace(Some(width)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    /// The claim and spawn counters are process-wide and `cargo test` runs
    /// tests on parallel threads, so every test that asserts on them (or
    /// forces a width, which moves them) runs under this lock.  No other unit
    /// test of this crate reaches the work gate, so nothing else moves them.
    static COUNTERS: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// One fork-join over `0..parts` in contiguous ranges; returns each
    /// range's indices and the thread that ran it.
    fn ranges(parts: usize, work: usize) -> Vec<(Vec<usize>, thread::ThreadId)> {
        let indices: Vec<usize> = (0..parts).collect();
        par_chunks(&indices, work, |chunk| {
            (chunk.to_vec(), thread::current().id())
        })
    }

    #[test]
    fn parallelism_is_at_least_one_and_stable() {
        let first = available_parallelism();
        assert!(first >= 1);
        assert_eq!(first, available_parallelism());
        let live = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(first, live);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn every_width_covers_every_index_once_with_identical_output(
            parts in 0usize..40,
            row_len in 1usize..5,
        ) {
            let _lock = exclusive();
            let serial: Vec<usize> = (0..parts).map(|i| i * 3 + 1).collect();
            for width in 1..=4usize {
                let items: Vec<usize> = (0..parts).collect();
                let mapped = with_forced_width(width, || par_map(&items, 0, |i| i * 3 + 1));
                prop_assert_eq!(&mapped, &serial);

                let chunks = with_forced_width(width, || ranges(parts, 0));
                prop_assert!(chunks.len() <= width.max(1));
                let seen: Vec<usize> = chunks.iter().flat_map(|(c, _)| c.clone()).collect();
                prop_assert_eq!(&seen, &items);

                let mut out = vec![0usize; parts * row_len];
                with_forced_width(width, || {
                    par_row_chunks(&mut out, parts, row_len, 0, |first_row, chunk| {
                        for (local, row) in chunk.chunks_mut(row_len).enumerate() {
                            for v in row.iter_mut() {
                                *v += first_row + local + 1;
                            }
                        }
                    });
                });
                for (i, row) in out.chunks(row_len).enumerate() {
                    prop_assert!(row.iter().all(|v| *v == i + 1));
                }
            }
        }
    }

    #[test]
    fn caller_runs_chunk_zero_and_only_the_rest_spawn() {
        let _lock = exclusive();
        let before = helpers_spawned();
        let chunks = with_forced_width(3, || ranges(9, 0));
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].1, thread::current().id());
        assert!(chunks[1..]
            .iter()
            .all(|(_, id)| *id != thread::current().id()));
        assert_eq!(helpers_spawned() - before, 2);
        assert_eq!(claimed_threads(), 0);
    }

    #[test]
    fn below_the_gate_or_single_part_never_spawns() {
        let _lock = exclusive();
        let before = helpers_spawned();
        let me = thread::current().id();
        // Plenty of parts, too little work for a second thread.
        for work in [0, MIN_WORK_PER_THREAD, 2 * MIN_WORK_PER_THREAD - 1] {
            let chunks = ranges(64, work);
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].1, me);
        }
        // Plenty of work, nothing to split.
        for parts in [0, 1] {
            let chunks = ranges(parts, usize::MAX);
            assert!(chunks.len() <= 1);
            assert!(chunks.iter().all(|(_, id)| *id == me));
        }
        // A zero-width row buffer is one serial call over the empty slice.
        let mut empty: Vec<f32> = Vec::new();
        par_row_chunks(&mut empty, 0, 0, usize::MAX, |first, chunk| {
            assert_eq!(first, 0);
            assert!(chunk.is_empty());
        });
        assert_eq!(helpers_spawned(), before);
        assert_eq!(claimed_threads(), 0);
    }

    #[test]
    fn work_above_the_gate_uses_the_idle_cores_and_no_more() {
        let _lock = exclusive();
        let cores = available_parallelism();
        let chunks = ranges(64, usize::MAX);
        assert_eq!(chunks.len(), cores.min(64));
        // Two threads' worth of work never takes a third.
        let chunks = ranges(64, 2 * MIN_WORK_PER_THREAD);
        assert_eq!(chunks.len(), cores.min(2));
        assert_eq!(claimed_threads(), 0);
    }

    #[test]
    fn nested_call_inside_a_saturating_fan_out_spawns_nothing() {
        let _lock = exclusive();
        // The outer call occupies every core, so the inner one — real gate,
        // unbounded work — must find none idle, on the caller's chunk and on
        // the helpers' alike.
        let width = available_parallelism().max(2);
        let outer: Vec<usize> = (0..width).collect();
        let inner_spawns = with_forced_width(width, || {
            par_map(&outer, 0, |_| {
                let me = thread::current().id();
                let before = helpers_spawned();
                let chunks = ranges(64, usize::MAX);
                assert_eq!(chunks.len(), 1);
                assert_eq!(chunks[0].1, me);
                helpers_spawned() - before
            })
        });
        assert_eq!(inner_spawns, vec![0; width]);
        assert_eq!(claimed_threads(), 0);
    }

    #[test]
    fn held_claims_count_against_other_threads_but_not_their_holder() {
        let _lock = exclusive();
        let cores = available_parallelism();
        let claim = ThreadClaim::acquire();
        assert_eq!(claimed_threads(), 1);
        // Nested acquire is a no-op, and so is its drop.
        drop(ThreadClaim::acquire());
        assert_eq!(claimed_threads(), 1);
        // The holder is the core it occupies: it still fans out to the rest.
        assert_eq!(ranges(64, usize::MAX).len(), cores);
        // Another thread sees one core fewer.
        let seen_elsewhere = thread::spawn(|| ranges(64, usize::MAX).len())
            .join()
            .unwrap();
        assert_eq!(seen_elsewhere, cores.saturating_sub(1).max(1));
        drop(claim);
        assert_eq!(claimed_threads(), 0);
    }

    #[test]
    fn panicking_chunk_resurfaces_and_releases_its_claims() {
        let _lock = exclusive();
        let items: Vec<usize> = (0..4).collect();
        for bad in [0usize, 3] {
            // `bad == 0` panics on the caller's chunk, `bad == 3` on a helper.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_forced_width(2, || {
                    par_map(&items, 0, |&i| {
                        if i == bad {
                            std::panic::panic_any(format!("chunk {i} failed"));
                        }
                        i
                    })
                })
            }));
            let payload = outcome.unwrap_err();
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("chunk {bad} failed").as_str())
            );
            assert_eq!(claimed_threads(), 0, "claims leaked by chunk {bad}");
        }
        // The forced width did not leak either, and the next call fans out.
        assert_eq!(ranges(64, 0).len(), 1);
        assert_eq!(
            ranges(64, usize::MAX).len(),
            available_parallelism().min(64)
        );
    }
}
