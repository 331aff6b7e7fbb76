//! Poison-tolerant lock and condvar helpers shared across the serving runtime.
//!
//! A worker thread that panics mid-batch poisons every mutex it held.  The
//! server's recovery story (see `worker_loop`: `catch_unwind` + ticket
//! cancellation + the `worker_panics` counter) only works if the surviving
//! threads — submitters blocked on backpressure, other workers, `shutdown` —
//! can still take those locks.  The queue/stats/cache state they protect is
//! kept consistent by construction (every critical section either completes
//! its update or never starts it; tickets a dead worker abandoned are
//! cancelled), so recovering the guard with `into_inner` is sound here and
//! panic propagation would only turn one failed request into a wedged server.
//!
//! These helpers are the **only** place the workspace recovers poisoned
//! guards; everything else goes through them (enforced by convention and kept
//! honest by clippy's `unwrap_used`, which rejects bare `unwrap`).

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Poison-tolerant lock: a panicking worker must not wedge every submitter.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poison-tolerant `Condvar::wait`: re-acquires the guard even if another
/// thread panicked while holding the mutex.
pub(crate) fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poison-tolerant `Condvar::wait_timeout`; the caller still observes whether
/// the wait timed out.
pub(crate) fn wait_timeout<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests spawn a thread to poison a mutex"
)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn lock_recovers_from_poison() {
        let mutex = Arc::new(Mutex::new(7u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7);
    }

    #[test]
    fn wait_timeout_recovers_from_poison() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let clone = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _guard = clone.0.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        let (mutex, condvar) = &*pair;
        let guard = lock(mutex);
        let (guard, result) = wait_timeout(condvar, guard, Duration::from_millis(1));
        assert!(result.timed_out());
        assert!(!*guard);
    }
}
