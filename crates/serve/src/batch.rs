//! Adaptive batch sizing driven by [`BackendEstimate`].
//!
//! A free worker takes whatever is queued, at once, up to the *adaptive cap*
//! — the largest batch whose modelled execution latency on the screening
//! engine's backend stays within the target.  The cap therefore differs per
//! backend: an [`ptolemy_core::SoftwareBackend`]-bound engine is capped
//! through its algorithm-level op counts (converted to a pseudo-latency by
//! [`BatchPolicy::software_ops_per_ms`]), while an accelerator-bound engine is
//! capped through the cycle model's modelled milliseconds — exactly the
//! `estimate_batch` contract the engine API exposes.  The cut itself is the
//! queue model's (`queue.rs`); this module only sizes it.

use ptolemy_core::{BackendEstimate, DetectionEngine};

/// Sizing knobs of the batch cut.
///
/// There is no batching *delay* to configure: the cut is work-conserving.  A
/// worker that becomes free while requests are queued takes
/// `min(queued, cap)` of them immediately, and sleeps only on an empty queue.
/// Batches execute **fused** (one batched forward pass per cut), and they grow
/// exactly when fusing pays — requests accumulate while every worker is busy,
/// so a loaded server cuts cap-sized batches while a lightly loaded one
/// answers each request as soon as a worker sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Hard upper bound on requests per batch, whatever the backend estimate
    /// says.
    pub max_batch: usize,
    /// Target modelled execution latency for one batch, in milliseconds; a
    /// cut never takes more requests than the backend estimate fits in it.
    pub target_batch_latency_ms: f64,
    /// Operation throughput (ops per millisecond) used to turn software-backend
    /// op counts into a pseudo-latency, since [`ptolemy_core::SoftwareBackend`]
    /// reports algorithm-level counts rather than wall-clock time.
    pub software_ops_per_ms: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            target_batch_latency_ms: 5.0,
            software_ops_per_ms: 5.0e5,
        }
    }
}

impl BatchPolicy {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        if !self.target_batch_latency_ms.is_finite() || self.target_batch_latency_ms <= 0.0 {
            return Err(format!(
                "target_batch_latency_ms {} must be finite and positive",
                self.target_batch_latency_ms
            ));
        }
        if !self.software_ops_per_ms.is_finite() || self.software_ops_per_ms <= 0.0 {
            return Err(format!(
                "software_ops_per_ms {} must be finite and positive",
                self.software_ops_per_ms
            ));
        }
        Ok(())
    }
}

/// Modelled latency of the estimated batch, in milliseconds: the backend's own
/// number when it models wall-clock time, otherwise a pseudo-latency derived
/// from the software op counts.  `None` when the backend models neither.
///
/// Estimates price the whole batch as one fused program (the
/// [`BackendEstimate`] contract), so the software op counts already cover
/// every input — no per-input multiplication here.
pub(crate) fn predicted_latency_ms(
    estimate: &BackendEstimate,
    policy: &BatchPolicy,
) -> Option<f64> {
    if let Some(ms) = estimate.latency_ms {
        return Some(ms);
    }
    estimate.software.as_ref().map(|report| {
        let batch_ops = report.inference_macs
            + report.sort_elements
            + report.compare_ops
            + report.accumulate_ops;
        batch_ops as f64 / policy.software_ops_per_ms
    })
}

/// The adaptive cap: the largest batch size within `policy.max_batch` whose
/// predicted latency on `engine`'s backend stays within the target, at the
/// given activation-path density (the parameter the backend cost models scale
/// with).
///
/// Always at least 1 — a backend too slow for even a single input within the
/// target still has to serve one at a time.  Backends that model no cost at
/// all impose no adaptive constraint.
pub(crate) fn adaptive_cap(engine: &DetectionEngine, policy: &BatchPolicy, density: f32) -> usize {
    let per_input = engine
        .estimate_batch(1, density)
        .ok()
        .and_then(|estimate| predicted_latency_ms(&estimate, policy));
    let Some(per_input) = per_input else {
        return policy.max_batch;
    };
    if per_input <= 0.0 || !per_input.is_finite() {
        return policy.max_batch;
    }
    let mut cap =
        ((policy.target_batch_latency_ms / per_input) as usize).clamp(1, policy.max_batch);
    // Both in-tree cost models are linear in batch size, so the division above
    // is exact — but verify against the real batch estimate and back off in
    // case a custom backend models super-linear batch cost.
    while cap > 1 {
        let predicted = engine
            .estimate_batch(cap, density)
            .ok()
            .and_then(|estimate| predicted_latency_ms(&estimate, policy));
        match predicted {
            Some(ms) if ms > policy.target_batch_latency_ms => cap /= 2,
            _ => break,
        }
    }
    cap.max(1)
}

/// Shard-aware adaptive cap: the batch must fit the latency target on **every**
/// engine a batch might touch — the screening engine and each escalation
/// shard — so the cap is the minimum of the per-engine caps.
///
/// This is deliberately the worst case (a whole batch landing in the
/// uncertainty band and escalating to one shard): a cap that only modelled the
/// screen would let an expensive tier-2 program blow the latency target
/// whenever traffic turned suspicious, which is exactly when predictable
/// latency matters most.  Without escalation shards this degenerates to the
/// plain screen-only [`adaptive_cap`].
pub(crate) fn adaptive_cap_tiered(
    screen: &DetectionEngine,
    shards: &[std::sync::Arc<DetectionEngine>],
    policy: &BatchPolicy,
    density: f32,
) -> usize {
    let mut cap = adaptive_cap(screen, policy, density);
    for shard in shards {
        cap = cap.min(adaptive_cap(shard, policy, density));
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_core::SoftwareCostReport;

    fn software_estimate(batch_size: usize, ops: u64) -> BackendEstimate {
        BackendEstimate {
            backend: "software",
            batch_size,
            software: Some(SoftwareCostReport {
                inference_macs: ops,
                ..SoftwareCostReport::default()
            }),
            ..BackendEstimate::default()
        }
    }

    #[test]
    fn predicted_latency_prefers_modelled_milliseconds() {
        let policy = BatchPolicy::default();
        let accel = BackendEstimate {
            backend: "accel",
            batch_size: 4,
            latency_ms: Some(3.5),
            ..BackendEstimate::default()
        };
        assert_eq!(predicted_latency_ms(&accel, &policy), Some(3.5));

        // Software counts already price the whole fused batch; they become a
        // pseudo-latency without any per-input multiplication.
        let policy = BatchPolicy {
            software_ops_per_ms: 1000.0,
            ..BatchPolicy::default()
        };
        let software = software_estimate(2, 1000);
        assert_eq!(predicted_latency_ms(&software, &policy), Some(1.0));

        // A backend that models nothing imposes no latency estimate.
        let empty = BackendEstimate::default();
        assert_eq!(predicted_latency_ms(&empty, &policy), None);
    }

    #[test]
    fn default_policy_is_valid_and_bad_knobs_are_rejected() {
        BatchPolicy::default().validate().unwrap();
        assert!(BatchPolicy {
            max_batch: 0,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            target_batch_latency_ms: 0.0,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            software_ops_per_ms: f64::NAN,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
    }
}
