//! The workspace clock: monotonic nanoseconds behind a swappable source.
//!
//! Every timing measurement in the workspace flows through a [`Clock`] so that
//! (a) tests can substitute a manually-advanced source and make latency paths
//! deterministic, and (b) the `raw-instant` lint can forbid bare
//! `std::time::Instant::now()` everywhere else.  This module is the single
//! sanctioned call site (see `lint.toml`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock.
///
/// Two sources exist: [`Clock::monotonic`] reads the OS monotonic clock
/// relative to a per-clock epoch, and [`Clock::manual`] reads an atomic
/// counter that only [`Clock::advance`] moves — the deterministic source
/// tests use to script queue waits and latency budgets.
///
/// Readings are plain `u64` nanoseconds since the clock's epoch, so they can
/// be stored in atomics, subtracted without `Duration` arithmetic, and fed
/// straight into [`crate::Histogram`]s.
#[derive(Debug)]
pub struct Clock {
    source: Source,
}

#[derive(Debug)]
enum Source {
    Monotonic(Instant),
    Manual(AtomicU64),
}

impl Clock {
    /// A clock backed by the OS monotonic clock; `now_ns` is the elapsed time
    /// since this constructor ran.
    pub fn monotonic() -> Clock {
        Clock {
            // lint:allow(raw-instant): the Clock is the sanctioned wrapper — the one place the workspace reads the OS clock
            source: Source::Monotonic(Instant::now()),
        }
    }

    /// A manually-advanced clock starting at 0; `now_ns` only moves when
    /// [`Clock::advance`] is called.  Deterministic by construction.
    pub fn manual() -> Clock {
        Clock {
            source: Source::Manual(AtomicU64::new(0)),
        }
    }

    /// Nanoseconds since the clock's epoch.
    pub fn now_ns(&self) -> u64 {
        match &self.source {
            Source::Monotonic(epoch) => {
                let nanos = epoch.elapsed().as_nanos();
                u64::try_from(nanos).unwrap_or(u64::MAX)
            }
            Source::Manual(counter) => counter.load(Ordering::Acquire),
        }
    }

    /// Advances a [`Clock::manual`] clock by `ns` nanoseconds.
    ///
    /// On a monotonic clock this is a no-op: real time cannot be scripted,
    /// and tests that share timing code with production paths should not have
    /// to branch on the clock flavour.
    pub fn advance(&self, ns: u64) {
        if let Source::Manual(counter) = &self.source {
            counter.fetch_add(ns, Ordering::AcqRel);
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::monotonic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = Clock::monotonic();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let clock = Clock::manual();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(1_500);
        assert_eq!(clock.now_ns(), 1_500);
        clock.advance(0);
        assert_eq!(clock.now_ns(), 1_500);
    }

    #[test]
    fn advance_is_a_noop_on_monotonic_clocks() {
        let clock = Clock::monotonic();
        let before = clock.now_ns();
        clock.advance(u64::MAX / 2);
        // The reading keeps tracking real elapsed time, not the advance.
        assert!(clock.now_ns() < u64::MAX / 2 || before >= u64::MAX / 2);
    }
}
