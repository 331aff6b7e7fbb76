//! The stages of a batch as functions over the batch.
//!
//! A stage takes what the previous one passed on and **returns** what it
//! decided — the tickets it answered, the counter delta, the next stage's
//! input — without touching a lock, a clock or a thread, the way `queue.rs`
//! holds the queue policy.  `server.rs` supplies the clock reading and the
//! cache, folds the delta into the stats once per batch and resolves the
//! tickets.  Phase 1 (expiry drop + exact-input probe) lives here; phases 2
//! and 3 (fused screen, routing) are still inline in `screen_batch`.

use std::sync::Arc;

use ptolemy_tensor::Tensor;

use crate::error::{Result, ServeError, ShedReason};
use crate::server::{InFlight, Request, Served, TicketSlot};
use crate::stats::ProbeDelta;

/// What [`probe_stage`] made of one batch.
pub(crate) struct Probed {
    /// The requests still to be screened and, index-aligned, their inputs —
    /// *moved* (not cloned) into the fused-batch buffer.
    pub(crate) pending: Vec<InFlight>,
    pub(crate) inputs: Vec<Tensor>,
    /// The tickets the stage answered.  The caller folds `delta` first and
    /// resolves these second, so a waiter that wakes finds its own request
    /// counted.
    pub(crate) answered: Vec<(Arc<TicketSlot>, Result<Served>)>,
    pub(crate) delta: ProbeDelta,
}

/// Phase 1 of a batch: a request whose deadline passed before `now_ns` gets
/// no inference — it is shed, and the cycles go to requests that can still
/// make theirs; one whose input `probe` finds is answered from the cache; the
/// rest survive, in order.  The probe already ran once inside `submit`; it
/// runs again here because a request whose byte-identical twin was still in
/// flight then must hit now.
pub(crate) fn probe_stage(
    batch: Vec<Request>,
    now_ns: u64,
    probe: impl Fn(u64) -> Option<Served>,
) -> Probed {
    let mut out = Probed {
        pending: Vec::with_capacity(batch.len()),
        inputs: Vec::with_capacity(batch.len()),
        answered: Vec::new(),
        delta: ProbeDelta::default(),
    };
    for Request { input, flight } in batch {
        let outcome = if flight.deadline_ns.is_some_and(|deadline| now_ns > deadline) {
            out.delta.shed_expired += 1;
            Err(ServeError::Shed(ShedReason::DeadlineExpired))
        } else if let Some(served) = flight.input_key.and_then(&probe) {
            out.delta.cache_hits += 1;
            Ok(served)
        } else {
            out.pending.push(flight);
            out.inputs.push(input);
            continue;
        };
        let latency_ns = now_ns.saturating_sub(flight.submitted_ns);
        out.delta.latencies_ns.push(latency_ns);
        out.answered.push((flight.slot, outcome));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Tier;
    use ptolemy_core::Detection;

    fn request(tag: f32, submitted_ns: u64, deadline_ns: Option<u64>, key: Option<u64>) -> Request {
        Request {
            input: Tensor::full(&[2], tag),
            flight: InFlight {
                slot: TicketSlot::new(None),
                submitted_ns,
                deadline_ns,
                input_key: key,
            },
        }
    }

    #[test]
    fn expired_are_shed_hits_are_answered_and_misses_survive_with_their_key() {
        let cached = Served {
            detection: Detection {
                is_adversary: true,
                score: 0.75,
                similarity: 0.5,
                predicted_class: 1,
            },
            tier: Tier::Escalated,
            cache_hit: true,
            degraded: false,
        };
        // Key 7 is cached; the clock reads 1000.
        let probe = |key: u64| (key == 7).then_some(cached);
        let batch = vec![
            request(0.0, 100, Some(999), Some(7)), // expired: shed, even though cached
            request(1.0, 200, Some(1000), Some(7)), // due exactly now: still served
            request(2.0, 300, None, Some(8)),      // not cached
            request(3.0, 400, None, None),         // cache off for this one
            request(4.0, 500, None, Some(7)),
        ];
        let slots: Vec<_> = batch.iter().map(|r| r.flight.slot.clone()).collect();
        let out = probe_stage(batch, 1000, probe);

        // Survivors keep their order, inputs aligned, the submitter's key intact.
        let keys: Vec<_> = out.pending.iter().map(|f| f.input_key).collect();
        assert_eq!(keys, [Some(8), None]);
        let tags: Vec<f32> = out.inputs.iter().map(|x| x.as_slice()[0]).collect();
        assert_eq!(tags, [2.0, 3.0]);
        assert!(Arc::ptr_eq(&out.pending[0].slot, &slots[2]));
        assert!(Arc::ptr_eq(&out.pending[1].slot, &slots[3]));

        // Each answered ticket is its own request's, in batch order.
        assert_eq!(out.answered.len(), 3);
        for ((slot, _), expected) in out.answered.iter().zip([&slots[0], &slots[1], &slots[4]]) {
            assert!(Arc::ptr_eq(slot, expected));
        }
        assert_eq!(
            out.answered[0].1,
            Err(ServeError::Shed(ShedReason::DeadlineExpired))
        );
        assert_eq!(out.answered[1].1, Ok(cached));
        assert_eq!(out.answered[2].1, Ok(cached));

        // The delta says exactly that, and nothing has been resolved yet.
        assert_eq!(
            out.delta,
            ProbeDelta {
                cache_hits: 2,
                shed_expired: 1,
                latencies_ns: vec![900, 800, 500],
            }
        );
    }

    #[test]
    fn a_probe_that_never_hits_passes_the_whole_batch_on() {
        let batch = vec![request(0.0, 0, None, Some(1)), request(1.0, 0, None, None)];
        let out = probe_stage(batch, 5, |_| None);
        assert_eq!(out.pending.len(), 2);
        assert_eq!(out.inputs.len(), 2);
        assert!(out.answered.is_empty());
        assert_eq!(out.delta, ProbeDelta::default());
    }
}
