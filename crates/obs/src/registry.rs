//! The named metrics registry: atomic counters plus latency histograms behind
//! one enabled gate, snapshotted to the workspace JSON dialect.
//!
//! A [`Registry`] is the unit a subsystem threads through its hot path: the
//! serving runtime owns one, hands [`Counter`] and [`HistogramHandle`]s to
//! its workers, and renders the whole thing with [`Registry::snapshot`].
//! Instrumented code guards optional work with [`Registry::enabled`] — a
//! single relaxed atomic load — so a disabled registry costs essentially
//! nothing on the hot path (the `ptolemy-serve` test
//! `disabled_registry_gates_stage_instrumentation_but_not_stats` pins that a
//! disabled registry records no stage sample).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::Clock;
use crate::hist::Histogram;
use crate::json::JsonValue;

/// A named bundle of counters and histograms sharing a clock and an enabled
/// gate.  Cheap to share via `Arc`; every handle it vends stays valid for the
/// registry's lifetime.
#[derive(Debug)]
pub struct Registry {
    name: String,
    enabled: AtomicBool,
    clock: Clock,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

/// A monotonically-increasing atomic counter vended by [`Registry::counter`].
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current counter value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A shared histogram vended by [`Registry::histogram`].
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    cell: Arc<Mutex<Histogram>>,
}

impl HistogramHandle {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        lock(&self.cell).record(value);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> Histogram {
        lock(&self.cell).clone()
    }
}

/// Poison-tolerant lock: a panicking instrumented thread must not take the
/// metrics plane down with it (histogram state is a plain value — any
/// interrupted `record` left it internally consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Registry {
    /// A new enabled registry named `name`, timing against the OS monotonic
    /// clock.
    pub fn new(name: &str) -> Registry {
        Registry::with_clock(name, Clock::monotonic())
    }

    /// A new enabled registry with an explicit clock — pass [`Clock::manual`]
    /// to make every timing this registry records deterministic under test.
    pub fn with_clock(name: &str, clock: Clock) -> Registry {
        Registry {
            name: name.to_string(),
            enabled: AtomicBool::new(true),
            clock,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The registry's name (the `"registry"` field of the snapshot).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock all of this registry's spans and timelines read.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// `true` when instrumentation guarded by this registry should run.  One
    /// relaxed atomic load — the entire cost of the disabled path.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns optional instrumentation on or off.  Counters and histograms a
    /// caller updates unconditionally keep recording either way; the gate is
    /// advisory for the expensive paths (timelines, per-layer timings).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = lock(&self.counters);
        let cell = counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut histograms = lock(&self.histograms);
        let cell = histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Histogram::new())));
        HistogramHandle {
            cell: Arc::clone(cell),
        }
    }

    /// A point-in-time snapshot of every counter and histogram as a JSON
    /// value:
    ///
    /// ```json
    /// {"registry": "serve", "enabled": 1,
    ///  "counters": {"requests": 42, …},
    ///  "histograms": {"latency_ns": {"total": …, "buckets": […]}, …}}
    /// ```
    ///
    /// Keys are sorted, so two snapshots of identical state render
    /// identically.
    pub fn snapshot(&self) -> JsonValue {
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), JsonValue::UInt(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, cell)| (name.clone(), lock(cell).to_json()))
            .collect();
        JsonValue::Object(vec![
            ("registry".into(), JsonValue::String(self.name.clone())),
            ("enabled".into(), JsonValue::UInt(u64::from(self.enabled()))),
            ("counters".into(), JsonValue::Object(counters)),
            ("histograms".into(), JsonValue::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let registry = Registry::new("test");
        let a = registry.counter("requests");
        let b = registry.counter("requests");
        a.incr();
        b.add(2);
        assert_eq!(registry.counter("requests").get(), 3);
        assert_eq!(registry.counter("other").get(), 0);
    }

    #[test]
    fn histograms_are_shared_by_name() {
        let registry = Registry::new("test");
        registry.histogram("lat").record(5);
        registry.histogram("lat").record(7);
        let snap = registry.histogram("lat").snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.min(), Some(5));
        assert_eq!(snap.max(), Some(7));
    }

    #[test]
    fn enabled_gate_toggles() {
        let registry = Registry::new("test");
        assert!(registry.enabled());
        registry.set_enabled(false);
        assert!(!registry.enabled());
        registry.set_enabled(true);
        assert!(registry.enabled());
    }

    #[test]
    fn snapshot_renders_parseable_json() {
        let registry = Registry::with_clock("snap", Clock::manual());
        registry.counter("b_counter").add(4);
        registry.counter("a_counter").incr();
        registry.histogram("lat_ns").record(1_000);
        let snapshot = registry.snapshot();
        let text = snapshot.to_json();
        let parsed = crate::json::parse(&text).expect("snapshot parses");
        assert_eq!(
            parsed.get("registry").and_then(JsonValue::as_str),
            Some("snap")
        );
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(
            counters.get("a_counter").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            counters.get("b_counter").and_then(JsonValue::as_u64),
            Some(4)
        );
        let hist = parsed.get("histograms").and_then(|h| h.get("lat_ns"));
        let hist = Histogram::from_json(hist.expect("histogram present")).expect("valid");
        assert_eq!(hist.count(), 1);
    }
}
