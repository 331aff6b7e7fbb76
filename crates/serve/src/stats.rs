//! Serving counters and their user-facing snapshot.
//!
//! Queue-to-result latency percentiles are computed from a
//! [`ptolemy_obs::Histogram`] covering **every completed request since
//! startup** — the historical fixed-size recency ring silently forgot history
//! and conflated warm-up with steady state.  The histogram is log-bucketed
//! (bounded memory, ~12.5% relative resolution) and its percentiles are
//! clamped to the exact recorded `[min, max]`, so reported values are
//! monotone in the quantile and can never leave the observed range.

use ptolemy_obs::json::JsonValue;
use ptolemy_obs::Histogram;

/// A point-in-time snapshot of the server's counters, taken with
/// [`crate::Server::stats`].
///
/// Every completed request is counted in exactly one of
/// [`ServeStats::screen_served`], [`ServeStats::escalated`] or
/// [`ServeStats::cache_hits`]; the first two count freshly-scored requests per
/// tier, the third counts requests resolved from the path-prefix cache without
/// re-scoring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests accepted: queued for a worker, or answered from the
    /// exact-input cache inside `submit` without taking a queue slot
    /// ([`ServeStats::cache_hits_at_submit`]).  Always
    /// `completed + failed + in flight`.
    pub submitted: u64,
    /// Requests resolved with a verdict.
    pub completed: u64,
    /// Requests resolved with an engine error.
    pub failed: u64,
    /// Times a worker's screening or escalation pass panicked mid-batch.  The
    /// affected requests resolve as [`crate::ServeError::Canceled`] (counted
    /// under [`ServeStats::failed`]) and the worker keeps draining the queue —
    /// this counter is how operators notice the degradation.
    pub worker_panics: u64,
    /// Requests answered by the tier-1 screening engine alone.
    pub screen_served: u64,
    /// Requests whose tier-1 screening pass ran the **int8 quantized** path
    /// ([`crate::ServerBuilder::quantized_screen`]), whether they were then
    /// screen-served or escalated.  0 in f32 screening mode; equal to the
    /// number of freshly-screened requests (cache hits skip screening) when
    /// the quantized screen is on.
    pub int8_screens: u64,
    /// Requests whose screening score fell in the uncertainty band and were
    /// re-scored by a tier-2 escalation engine (summed over all shards).
    pub escalated: u64,
    /// Requests rejected at submission by admission control
    /// ([`crate::AdmissionPolicy`]): the deadline was predicted unmeetable at
    /// the current queue depth.  Shed submissions never enter the queue and
    /// are **not** counted in [`ServeStats::submitted`].
    pub shed_admission: u64,
    /// Requests dropped at batch formation because their deadline expired
    /// while they waited in the queue.  These entered the queue (counted in
    /// [`ServeStats::submitted`]) and resolve as
    /// [`crate::ServeError::Shed`], counted under [`ServeStats::failed`].
    pub shed_expired: u64,
    /// Requests whose completion latency exceeded their deadline (only
    /// requests submitted with a deadline can miss; sheds are not misses —
    /// they never completed).
    pub deadline_misses: u64,
    /// In-band requests answered by the tier-1 screening verdict because the
    /// server was in degraded mode ([`crate::DegradePolicy`]); a subset of
    /// [`ServeStats::screen_served`], flagged per-request via
    /// [`crate::Served::degraded`].
    pub degraded_served: u64,
    /// Times the server entered degraded (screen-tier-only) mode.
    pub degrade_entered: u64,
    /// Times the server recovered from degraded mode (the queue drained to
    /// the low watermark).  At most [`ServeStats::degrade_entered`]; equal to
    /// it once the server has fully recovered.
    pub degrade_exited: u64,
    /// Escalated requests routed to each tier-2 shard, indexed like the
    /// engine list passed to [`crate::ServerBuilder::escalate_sharded`]
    /// (length 1 for a single [`crate::ServerBuilder::escalate`] engine, empty
    /// without tiered routing).  Sums to [`ServeStats::escalated`].
    pub shard_escalations: Vec<u64>,
    /// Batches whose tier-2 escalation sliver was handed to the worker's
    /// overlap thread, so tier-2 extraction of batch *k* ran concurrently with
    /// tier-1 screening of batch *k+1*.  Only batches with at least one
    /// escalated request count here or in [`ServeStats::serial_batches`].
    pub pipelined_batches: u64,
    /// Batches whose tier-2 sliver ran inline on the worker because the
    /// overlap thread still had the previous sliver running *and* one
    /// waiting: the handoff is a bounded rendezvous, so tier-2 work can lag
    /// the screen by one batch and never pile up unboundedly.  Every other
    /// sliver is handed off ([`ServeStats::pipelined_batches`]), so a share
    /// above a few percent means tier 2 is the bottleneck.
    pub serial_batches: u64,
    /// Requests resolved from the path-prefix result cache.
    pub cache_hits: u64,
    /// The subset of [`ServeStats::cache_hits`] answered on the submitting
    /// thread, inside `submit`: a byte-identical repeat of a cached input,
    /// returned as an already-ready [`crate::Ticket`] that took no queue slot,
    /// woke no worker and joined no batch.  The remainder were answered by a
    /// worker (the entry appeared while the request was queued, or only the
    /// path prefix matched).
    pub cache_hits_at_submit: u64,
    /// Cache lookups that missed (always 0 with the cache disabled).
    pub cache_misses: u64,
    /// Entries restored from the persisted cache file at startup
    /// ([`crate::CacheConfig::persist_path`]); 0 when persistence is off or no
    /// usable file existed.
    pub cache_entries_loaded: u64,
    /// 1 if a persisted cache file existed at startup but was ignored —
    /// corrupt, unreadable, or written under a different engine fingerprint or
    /// prefix depth (see [`crate::CacheConfig`]); 0 otherwise.
    pub cache_load_rejected: u64,
    /// Entries written to the persisted cache file at shutdown; 0 when
    /// persistence is off or the write failed.
    pub cache_entries_persisted: u64,
    /// Batches the workers cut.
    pub batches: u64,
    /// Largest batch cut so far.
    pub max_batch: usize,
    /// Mean requests per batch: requests the workers cut ÷ batches.  A hit
    /// answered inside `submit` joins no batch and counts in neither.
    pub mean_batch: f64,
    /// Median queue-to-result latency over all completed requests, in
    /// milliseconds (0.0 before the first completion).  Histogram-derived:
    /// ~12.5% bucket resolution with within-bucket rank interpolation,
    /// clamped to the recorded `[min, max]`.
    pub p50_latency_ms: f64,
    /// 90th-percentile queue-to-result latency, in milliseconds (0.0 before
    /// the first completion).  Same derivation as
    /// [`ServeStats::p50_latency_ms`].
    pub p90_latency_ms: f64,
    /// 99th-percentile queue-to-result latency over all completed requests,
    /// in milliseconds (0.0 before the first completion).  Same derivation as
    /// [`ServeStats::p50_latency_ms`].
    pub p99_latency_ms: f64,
}

impl ServeStats {
    /// Fraction of cache lookups that hit (0.0 when the cache is disabled or
    /// nothing was looked up yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// The `"stats"` object of [`crate::Server::metrics_json`], integer-only
    /// (the workspace JSON dialect): `mean_batch` scaled by 1000, latencies in
    /// microseconds.
    ///
    /// The destructuring is exhaustive on purpose — no `..` — so a new field
    /// is a compile error here until it is exported or visibly left out.
    pub(crate) fn into_json(self) -> JsonValue {
        let ServeStats {
            submitted,
            completed,
            failed,
            worker_panics,
            screen_served,
            int8_screens,
            escalated,
            shed_admission,
            shed_expired,
            deadline_misses,
            degraded_served,
            degrade_entered,
            degrade_exited,
            shard_escalations,
            pipelined_batches,
            serial_batches,
            cache_hits,
            cache_hits_at_submit,
            cache_misses,
            // What the persisted cache did at startup and shutdown: facts of
            // one moment, read off `Server::stats`, not serving counters.
            cache_entries_loaded: _,
            cache_load_rejected: _,
            cache_entries_persisted: _,
            batches,
            max_batch,
            mean_batch,
            p50_latency_ms,
            p90_latency_ms,
            p99_latency_ms,
        } = self;
        let milli = |x: f64| JsonValue::UInt((x * 1000.0).round() as u64);
        let shards = shard_escalations.into_iter().map(JsonValue::UInt);
        let fields = [
            ("submitted", JsonValue::UInt(submitted)),
            ("completed", JsonValue::UInt(completed)),
            ("failed", JsonValue::UInt(failed)),
            ("worker_panics", JsonValue::UInt(worker_panics)),
            ("screen_served", JsonValue::UInt(screen_served)),
            ("int8_screens", JsonValue::UInt(int8_screens)),
            ("escalated", JsonValue::UInt(escalated)),
            ("shard_escalations", JsonValue::Array(shards.collect())),
            ("pipelined_batches", JsonValue::UInt(pipelined_batches)),
            ("serial_batches", JsonValue::UInt(serial_batches)),
            ("cache_hits", JsonValue::UInt(cache_hits)),
            (
                "cache_hits_at_submit",
                JsonValue::UInt(cache_hits_at_submit),
            ),
            ("cache_misses", JsonValue::UInt(cache_misses)),
            ("shed_admission", JsonValue::UInt(shed_admission)),
            ("shed_expired", JsonValue::UInt(shed_expired)),
            ("deadline_misses", JsonValue::UInt(deadline_misses)),
            ("degraded_served", JsonValue::UInt(degraded_served)),
            ("degrade_entered", JsonValue::UInt(degrade_entered)),
            ("degrade_exited", JsonValue::UInt(degrade_exited)),
            ("batches", JsonValue::UInt(batches)),
            ("max_batch", JsonValue::UInt(max_batch as u64)),
            ("mean_batch_milli", milli(mean_batch)),
            ("p50_latency_us", milli(p50_latency_ms)),
            ("p90_latency_us", milli(p90_latency_ms)),
            ("p99_latency_us", milli(p99_latency_ms)),
        ];
        JsonValue::Object(fields.map(|(key, value)| (key.into(), value)).into())
    }
}

/// The live state behind [`ServeStats`], guarded by the server's stats mutex:
/// the counters themselves (written in place — their derived fields stay 0
/// here) plus what the derived fields are computed from.  `Clone` exists so a
/// snapshot copies the state out under the lock and derives percentiles
/// *outside* it — workers take this lock once per stage of a batch.
#[derive(Debug, Default, Clone)]
pub(crate) struct StatsInner {
    pub counters: ServeStats,
    /// Requests over all batches cut (the numerator of `mean_batch`).
    pub batched_requests: u64,
    /// Every queue-to-result latency since startup (bounded memory however
    /// many requests complete).
    pub latency_ns: Histogram,
}

/// What one stage of a batch (`crate::stage`) changes in the stats: every
/// counter a batch can move, plus the latency samples of the requests the
/// stage answered.  A stage takes no lock; the worker folds its delta once
/// ([`StatsInner::fold`]) and only then resolves the tickets, so a waiter that
/// wakes finds its own request counted.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct BatchDelta {
    /// Batches cut — 1 in the delta of a batch's first stage, 0 in the rest —
    /// and the requests in that batch.
    pub batches: u64,
    pub batched_requests: u64,
    /// Requests the int8 screen ran on.
    pub int8_screens: u64,
    /// How the batch's tier-2 sliver ran: handed to the overlap thread, or
    /// inline because the rendezvous was full.
    pub pipelined_batches: u64,
    pub serial_batches: u64,
    /// Requests answered with a verdict / with an error.
    pub completed: u64,
    pub failed: u64,
    pub screen_served: u64,
    pub degraded_served: u64,
    /// Requests tier 2 re-scored, all on escalation shard `shard`.
    pub escalated: u64,
    pub shard: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shed_expired: u64,
    pub deadline_misses: u64,
    /// Queue-to-result latency of every request counted in `completed` or
    /// `failed`.
    pub latencies_ns: Vec<u64>,
}

impl StatsInner {
    /// Applies one stage's [`BatchDelta`].
    pub fn fold(&mut self, delta: &BatchDelta) {
        let counters = &mut self.counters;
        counters.batches += delta.batches;
        self.batched_requests += delta.batched_requests;
        counters.max_batch = counters.max_batch.max(delta.batched_requests as usize);
        counters.int8_screens += delta.int8_screens;
        counters.pipelined_batches += delta.pipelined_batches;
        counters.serial_batches += delta.serial_batches;
        counters.completed += delta.completed;
        counters.failed += delta.failed;
        counters.screen_served += delta.screen_served;
        counters.degraded_served += delta.degraded_served;
        counters.escalated += delta.escalated;
        if let Some(routed) = counters.shard_escalations.get_mut(delta.shard) {
            *routed += delta.escalated;
        }
        counters.cache_hits += delta.cache_hits;
        counters.cache_misses += delta.cache_misses;
        counters.shed_expired += delta.shed_expired;
        counters.deadline_misses += delta.deadline_misses;
        for latency_ns in &delta.latencies_ns {
            self.latency_ns.record(*latency_ns);
        }
    }

    /// The counters plus the four derived fields.
    pub fn snapshot(&self) -> ServeStats {
        let percentile_ms = |q: f64| -> f64 {
            self.latency_ns
                .percentile(q)
                .map_or(0.0, |ns| ns as f64 / 1e6)
        };
        let batches = self.counters.batches;
        ServeStats {
            mean_batch: if batches == 0 {
                0.0
            } else {
                self.batched_requests as f64 / batches as f64
            },
            p50_latency_ms: percentile_ms(0.50),
            p90_latency_ms: percentile_ms(0.90),
            p99_latency_ms: percentile_ms(0.99),
            ..self.counters.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_percentiles_are_monotone_and_bounded_by_recorded_extremes() {
        let mut inner = StatsInner::default();
        assert_eq!(inner.snapshot().p50_latency_ms, 0.0);
        assert_eq!(inner.snapshot().p99_latency_ms, 0.0);
        for i in 1..=100u64 {
            inner.latency_ns.record(i * 1_000_000); // 1..=100 ms
        }
        inner.counters.batches = 4;
        inner.batched_requests = 10;
        inner.counters.max_batch = 5;
        let stats = inner.snapshot();
        // Histogram-derived percentiles: monotone and inside [min, max].
        assert!(stats.p50_latency_ms <= stats.p99_latency_ms);
        for p in [stats.p50_latency_ms, stats.p99_latency_ms] {
            assert!((1.0..=100.0).contains(&p), "{p} outside recorded range");
        }
        // And still resolve the distribution: the median of 1..=100 ms sits
        // near 50 ms (log-bucket resolution is ~12.5%).
        assert!((stats.p50_latency_ms - 50.0).abs() <= 50.0 * 0.15);
        assert!(stats.p99_latency_ms >= 85.0);
        assert_eq!(stats.mean_batch, 2.5);
        assert_eq!(stats.max_batch, 5);
        // The export is integer-only: milli-batches, microseconds.
        let p50_us = (stats.p50_latency_ms * 1000.0).round() as u64;
        let json = stats.into_json();
        let exported = |key: &str| json.get(key).and_then(JsonValue::as_u64);
        assert_eq!(exported("mean_batch_milli"), Some(2500));
        assert_eq!(exported("max_batch"), Some(5));
        assert_eq!(exported("p50_latency_us"), Some(p50_us));
    }

    #[test]
    fn percentiles_are_pinned_on_a_known_latency_sequence() {
        // The estimator contract on a fully-known sequence: record
        // 1..=1000 ms of uniformly-spread latencies, whose true p50/p90/p99
        // are 500/900/990 ms.  Within-bucket rank interpolation must land
        // each within one ≈12.5% log bucket of the truth (the old midpoint
        // estimator only guaranteed the bucket's centre), stay mutually
        // monotone, and stay inside the exact recorded extremes.
        let mut inner = StatsInner::default();
        for i in 1..=1_000u64 {
            inner.latency_ns.record(i * 1_000_000);
        }
        let stats = inner.snapshot();
        assert!(
            (stats.p50_latency_ms - 500.0).abs() <= 500.0 * 0.125,
            "p50 drifted: {}",
            stats.p50_latency_ms
        );
        assert!(
            (stats.p90_latency_ms - 900.0).abs() <= 900.0 * 0.125,
            "p90 drifted: {}",
            stats.p90_latency_ms
        );
        assert!(
            (stats.p99_latency_ms - 990.0).abs() <= 990.0 * 0.125,
            "p99 drifted: {}",
            stats.p99_latency_ms
        );
        assert!(stats.p50_latency_ms <= stats.p90_latency_ms);
        assert!(stats.p90_latency_ms <= stats.p99_latency_ms);
        assert!((1.0..=1_000.0).contains(&stats.p99_latency_ms));
        // Evenly-spread bucket occupants interpolate to within 1% of the
        // truth — an order of magnitude tighter than the bucket resolution.
        assert!((stats.p50_latency_ms - 500.0).abs() <= 5.0);
        assert!((stats.p90_latency_ms - 900.0).abs() <= 9.0);
        assert!((stats.p99_latency_ms - 990.0).abs() <= 9.9);
    }

    #[test]
    fn percentiles_cover_full_history_not_a_recency_window() {
        // The historical 4096-entry ring forgot the first regime entirely:
        // after 4096 slow completions the fast warm-up vanished and p50
        // jumped to the slow regime.  The histogram keeps both.
        let mut inner = StatsInner::default();
        for _ in 0..4096 {
            inner.latency_ns.record(1_000_000); // 1 ms regime
        }
        for _ in 0..4096 {
            inner.latency_ns.record(9_000_000); // 9 ms regime
        }
        let stats = inner.snapshot();
        // Half the history is 1 ms, so the median stays in the fast regime
        // (the old ring reported 9.0 here) while the tail sees the slow one.
        assert!(stats.p50_latency_ms <= 1.2, "{}", stats.p50_latency_ms);
        assert!(stats.p99_latency_ms >= 8.0, "{}", stats.p99_latency_ms);
        assert!(stats.p99_latency_ms <= 9.0, "{}", stats.p99_latency_ms);
    }

    #[test]
    fn cache_hit_rate_handles_empty_and_mixed() {
        let stats = ServeStats::default();
        assert_eq!(stats.cache_hit_rate(), 0.0);
        let stats = ServeStats {
            cache_hits: 3,
            cache_misses: 1,
            ..ServeStats::default()
        };
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
