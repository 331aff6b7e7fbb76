//! The stages of a batch as functions over the batch.
//!
//! A stage takes what the previous one passed on and **returns** what it
//! decided — the tickets it answered, the counter delta, the next stage's
//! input — without touching a lock, a clock or a thread, the way `queue.rs`
//! holds the queue policy.  `server.rs` is the shell around them: it reads the
//! clock, calls the engine, hands the stage the verdicts (and the caches it
//! locked, once per batch), folds the returned delta into the stats under one
//! lock and only then resolves the tickets.  A batch is [`probe_stage`] →
//! tier-1 screen → [`route_stage`] → per shard group: tier-2 pass →
//! [`escalated_stage`].

use std::sync::Arc;

use ptolemy_core::{ActivationPath, Detection};
use ptolemy_tensor::Tensor;

use crate::cache::{CachedVerdict, LruCache};
use crate::error::{Result, ServeError, ShedReason};
use crate::server::{InFlight, Request, Served, TicketSlot, Tier};
use crate::stats::BatchDelta;

/// One engine verdict of a fused pass: the detection and the path it scored.
type Verdict = ptolemy_core::Result<(Detection, ActivationPath)>;

/// What a stage answered: the tickets with their outcomes, and the delta that
/// counts exactly them.  The caller folds `delta` first and resolves
/// `tickets` second, so a waiter that wakes finds its own request counted.
#[derive(Default)]
pub(crate) struct Answers {
    pub(crate) tickets: Vec<(Arc<TicketSlot>, Result<Served>)>,
    pub(crate) delta: BatchDelta,
}

impl Answers {
    /// Answers `flight` with `outcome` at the stage's clock reading `now_ns`:
    /// completion, deadline-miss and latency accounting for one request.
    fn push(&mut self, now_ns: u64, flight: InFlight, outcome: Result<Served>) {
        match &outcome {
            Ok(served) => {
                self.delta.completed += 1;
                self.delta.cache_hits += u64::from(served.cache_hit);
                let missed = flight.deadline_ns.is_some_and(|deadline| now_ns > deadline);
                self.delta.deadline_misses += u64::from(missed);
            }
            Err(_) => self.delta.failed += 1,
        }
        let latency_ns = now_ns.saturating_sub(flight.submitted_ns);
        self.delta.latencies_ns.push(latency_ns);
        self.tickets.push((flight.slot, outcome));
    }

    /// Answers `flight` with a freshly scored verdict, remembering it under
    /// `remember`'s key when there is a cache to remember it in.
    fn push_fresh(
        &mut self,
        now_ns: u64,
        flight: InFlight,
        detection: Detection,
        tier: Tier,
        degraded: bool,
        remember: Option<(&mut LruCache<CachedVerdict>, u64)>,
    ) {
        if let Some((cache, key)) = remember {
            cache.insert(key, CachedVerdict { detection, tier });
        }
        let served = Served {
            detection,
            tier,
            cache_hit: false,
            degraded,
        };
        self.push(now_ns, flight, Ok(served));
    }
}

/// What [`probe_stage`] made of one batch.
pub(crate) struct Probed {
    /// The requests still to be screened and, index-aligned, their inputs —
    /// *moved* (not cloned) into the fused-batch buffer.
    pub(crate) pending: Vec<InFlight>,
    pub(crate) inputs: Vec<Tensor>,
    pub(crate) answers: Answers,
}

/// The first stage of a batch, which also counts the cut itself: a request
/// whose deadline passed before `now_ns` gets no inference — it is shed, and
/// the cycles go to requests that can still make theirs; one whose input
/// `probe` finds is answered from the cache; the rest survive, in order.  The
/// probe already ran once inside `submit`; it runs again here because a
/// request whose byte-identical twin was still in flight then must hit now.
pub(crate) fn probe_stage(
    batch: Vec<Request>,
    now_ns: u64,
    probe: impl Fn(u64) -> Option<Served>,
) -> Probed {
    let mut out = Probed {
        pending: Vec::with_capacity(batch.len()),
        inputs: Vec::with_capacity(batch.len()),
        answers: Answers::default(),
    };
    out.answers.delta.batches = 1;
    out.answers.delta.batched_requests = batch.len() as u64;
    for Request { input, flight } in batch {
        if flight.deadline_ns.is_some_and(|deadline| now_ns > deadline) {
            out.answers.delta.shed_expired += 1;
            let shed = ServeError::Shed(ShedReason::DeadlineExpired);
            out.answers.push(now_ns, flight, Err(shed));
        } else if let Some(served) = flight.input_key.and_then(&probe) {
            out.answers.push(now_ns, flight, Ok(served));
        } else {
            out.pending.push(flight);
            out.inputs.push(input);
        }
    }
    out
}

/// The routing facts of one batch: fixed at start-up but for `degraded`, which
/// is the mode the batch was cut under.
pub(crate) struct Routing<'a> {
    /// Screening scores in `[band.0, band.1]` escalate to tier 2.
    pub(crate) band: (f32, f32),
    /// `owner_of[class]` is the escalation shard owning that class.
    pub(crate) owner_of: &'a [usize],
    /// Number of escalation shards; 0 without tiered routing.
    pub(crate) shards: usize,
    pub(crate) degraded: bool,
    /// The verdict-cache key of a screened path; called with the cache on.
    pub(crate) path_key: &'a dyn Fn(&ActivationPath) -> u64,
}

/// The requests of one batch routed to one escalation shard, their inputs
/// index-aligned and ready for that shard's fused pass.  A request carries the
/// path-prefix key its tier-2 verdict will be cached under (cache on).
pub(crate) struct EscalationGroup {
    pub(crate) shard: usize,
    pub(crate) requests: Vec<(InFlight, Option<u64>)>,
    pub(crate) inputs: Vec<Tensor>,
}

/// What [`route_stage`] made of one screened batch.
pub(crate) struct Routed {
    pub(crate) answers: Answers,
    /// The tier-2 sliver: one group per shard that got work, in shard order.
    pub(crate) groups: Vec<EscalationGroup>,
}

/// Routes one screened batch (`screened[i]` is the tier-1 verdict of
/// `pending[i]` / `inputs[i]`; `now_ns` the clock reading after the screen).
/// An engine error fails its own request alone.  With `caches` — the
/// exact-input map and the verdict cache, keyed by `routing.path_key` — the
/// request's input key is mapped to its path-prefix key, and a cached verdict
/// under that key answers it.  Otherwise a score inside the band escalates to
/// the shard owning the screened class, unless the batch was cut `degraded`:
/// then the tier-1 verdict answers, flagged and **not cached** — a degraded
/// answer must never masquerade as a full-pipeline verdict on a later hit.
/// A score outside the band is the screen's to answer, and is cached.
pub(crate) fn route_stage(
    pending: Vec<InFlight>,
    inputs: Vec<Tensor>,
    screened: Vec<Verdict>,
    now_ns: u64,
    routing: &Routing<'_>,
    mut caches: Option<(&mut LruCache<u64>, &mut LruCache<CachedVerdict>)>,
) -> Routed {
    let mut answers = Answers::default();
    let mut groups: Vec<EscalationGroup> = (0..routing.shards)
        .map(|shard| EscalationGroup {
            shard,
            requests: Vec::new(),
            inputs: Vec::new(),
        })
        .collect();
    for ((flight, input), verdict) in pending.into_iter().zip(inputs).zip(screened) {
        let (detection, path) = match verdict {
            Ok(scored) => scored,
            Err(e) => {
                answers.push(now_ns, flight, Err(e.into()));
                continue;
            }
        };
        let mut remember = None;
        if let Some((input_keys, verdicts)) = &mut caches {
            let key = (routing.path_key)(&path);
            if let Some(input_key) = flight.input_key {
                input_keys.insert(input_key, key);
            }
            if let Some(cached) = verdicts.get(key).copied() {
                answers.push(now_ns, flight, Ok(cached.hit()));
                continue;
            }
            answers.delta.cache_misses += 1;
            remember = Some((&mut **verdicts, key));
        }
        let in_band =
            routing.shards > 0 && (routing.band.0..=routing.band.1).contains(&detection.score);
        if in_band && !routing.degraded {
            // Validation pinned the tiers to one network instance, so the
            // shard's own pass predicts the same class.  `owner_of` covers
            // every class the network predicts; were one ever out of range,
            // shard 0 answers with its loud non-ownership error.
            let shard = routing.owner_of.get(detection.predicted_class);
            let group = &mut groups[shard.copied().unwrap_or(0)];
            group.requests.push((flight, remember.map(|(_, key)| key)));
            group.inputs.push(input);
            continue;
        }
        answers.delta.screen_served += 1;
        answers.delta.degraded_served += u64::from(in_band);
        let remember = remember.filter(|_| !in_band);
        answers.push_fresh(now_ns, flight, detection, Tier::Screen, in_band, remember);
    }
    groups.retain(|group| !group.requests.is_empty());
    Routed { answers, groups }
}

/// Answers one shard group from its tier-2 `verdicts` (index-aligned with
/// its requests; `now_ns` the clock reading after the pass): each verdict is
/// cached under the key [`route_stage`] gave its request, and an engine error
/// fails its own request alone.
pub(crate) fn escalated_stage(
    group: EscalationGroup,
    verdicts: Vec<Verdict>,
    now_ns: u64,
    mut cache: Option<&mut LruCache<CachedVerdict>>,
) -> Answers {
    let mut answers = Answers::default();
    answers.delta.shard = group.shard;
    for ((flight, path_key), verdict) in group.requests.into_iter().zip(verdicts) {
        match verdict {
            Ok((detection, _)) => {
                answers.delta.escalated += 1;
                let remember = cache.as_deref_mut().zip(path_key);
                answers.push_fresh(now_ns, flight, detection, Tier::Escalated, false, remember);
            }
            Err(e) => answers.push(now_ns, flight, Err(e.into())),
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ServeStats, StatsInner};
    use ptolemy_core::CoreError;

    fn flight(submitted_ns: u64, deadline_ns: Option<u64>, key: Option<u64>) -> InFlight {
        InFlight {
            slot: TicketSlot::new(None),
            submitted_ns,
            deadline_ns,
            input_key: key,
        }
    }

    fn request(tag: f32, submitted_ns: u64, deadline_ns: Option<u64>, key: Option<u64>) -> Request {
        Request {
            input: Tensor::full(&[2], tag),
            flight: flight(submitted_ns, deadline_ns, key),
        }
    }

    fn detection(score: f32, predicted_class: usize) -> Detection {
        Detection {
            is_adversary: score >= 0.5,
            score,
            similarity: 0.5,
            predicted_class,
        }
    }

    /// A path told apart by its length alone: `bits` names it.
    fn path(bits: usize) -> ActivationPath {
        ActivationPath::empty(&[(0, bits)])
    }

    fn verdict(score: f32, predicted_class: usize, bits: usize) -> Verdict {
        Ok((detection(score, predicted_class), path(bits)))
    }

    fn path_key(path: &ActivationPath) -> u64 {
        path.prefix_fingerprint(usize::MAX)
    }

    /// Band [0.25, 0.75]; three classes over two shards (class 0 on shard 0).
    fn routing(degraded: bool) -> Routing<'static> {
        Routing {
            band: (0.25, 0.75),
            owner_of: &[0, 1, 1],
            shards: 2,
            degraded,
            path_key: &path_key,
        }
    }

    fn tags(inputs: &[Tensor]) -> Vec<f32> {
        inputs.iter().map(|x| x.as_slice()[0]).collect()
    }

    /// What every stage owes its caller: one delta entry per answered ticket.
    fn assert_conserved(answers: &Answers) {
        let answered = answers.tickets.len() as u64;
        assert_eq!(answers.delta.completed + answers.delta.failed, answered);
        assert_eq!(answers.delta.latencies_ns.len() as u64, answered);
    }

    #[test]
    fn expired_are_shed_hits_are_answered_and_misses_survive_with_their_key() {
        let cached = Served {
            detection: detection(0.75, 1),
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
        assert_eq!(tags(&out.inputs), [2.0, 3.0]);
        assert!(Arc::ptr_eq(&out.pending[0].slot, &slots[2]));
        assert!(Arc::ptr_eq(&out.pending[1].slot, &slots[3]));

        // Each answered ticket is its own request's, in batch order.
        let answered = &out.answers.tickets;
        assert_eq!(answered.len(), 3);
        for ((slot, _), expected) in answered.iter().zip([&slots[0], &slots[1], &slots[4]]) {
            assert!(Arc::ptr_eq(slot, expected));
        }
        assert_eq!(
            answered[0].1,
            Err(ServeError::Shed(ShedReason::DeadlineExpired))
        );
        assert_eq!(answered[1].1, Ok(cached));
        assert_eq!(answered[2].1, Ok(cached));

        // The delta says exactly that — and counts the cut — and nothing has
        // been resolved yet.
        assert_conserved(&out.answers);
        let probed = BatchDelta {
            batches: 1,
            batched_requests: 5,
            completed: 2,
            failed: 1,
            cache_hits: 2,
            shed_expired: 1,
            latencies_ns: vec![900, 800, 500],
            ..BatchDelta::default()
        };
        assert_eq!(out.answers.delta, probed);

        // Folding it moves exactly the counters it names; so does folding a
        // later stage's delta of the same batch, which cut nothing.
        let mut inner = StatsInner::default();
        inner.counters.shard_escalations = vec![0; 2];
        inner.fold(&probed);
        let mut expected = ServeStats {
            batches: 1,
            max_batch: 5,
            completed: 2,
            failed: 1,
            cache_hits: 2,
            shed_expired: 1,
            shard_escalations: vec![0; 2],
            ..ServeStats::default()
        };
        assert_eq!(inner.counters, expected);
        assert_eq!((inner.batched_requests, inner.latency_ns.count()), (5, 3));
        inner.fold(&BatchDelta {
            int8_screens: 4,
            pipelined_batches: 1,
            serial_batches: 1,
            completed: 3,
            screen_served: 2,
            degraded_served: 1,
            escalated: 1,
            shard: 1,
            cache_misses: 3,
            deadline_misses: 2,
            latencies_ns: vec![10, 20, 30],
            ..BatchDelta::default()
        });
        expected = ServeStats {
            int8_screens: 4,
            pipelined_batches: 1,
            serial_batches: 1,
            completed: 5,
            screen_served: 2,
            degraded_served: 1,
            escalated: 1,
            shard_escalations: vec![0, 1],
            cache_misses: 3,
            deadline_misses: 2,
            ..expected
        };
        assert_eq!(inner.counters, expected);
        assert_eq!((inner.batched_requests, inner.latency_ns.count()), (5, 6));
    }

    #[test]
    fn a_probe_that_never_hits_passes_the_whole_batch_on() {
        let batch = vec![request(0.0, 0, None, Some(1)), request(1.0, 0, None, None)];
        let out = probe_stage(batch, 5, |_| None);
        assert_eq!(out.pending.len(), 2);
        assert_eq!(out.inputs.len(), 2);
        assert!(out.answers.tickets.is_empty());
        let cut = BatchDelta {
            batches: 1,
            batched_requests: 2,
            ..BatchDelta::default()
        };
        assert_eq!(out.answers.delta, cut);
    }

    #[test]
    fn routing_answers_or_groups_every_request_and_an_engine_error_fails_alone() {
        let pending = vec![
            flight(100, None, None),      // confident: the screen answers
            flight(200, None, None),      // in band, class 0: shard 0
            flight(300, None, None),      // the engine failed on this one
            flight(400, None, None),      // in band, class 2: shard 1
            flight(500, None, None),      // in band, class out of range: shard 0
            flight(600, Some(900), None), // confident, but past its deadline
        ];
        let slots: Vec<_> = pending.iter().map(|f| f.slot.clone()).collect();
        let inputs: Vec<Tensor> = (0..6).map(|i| Tensor::full(&[2], i as f32)).collect();
        let screened = vec![
            verdict(0.1, 0, 8),
            verdict(0.25, 0, 8), // the band is closed at both ends
            Err(CoreError::InvalidInput("poisoned".into())),
            verdict(0.75, 2, 8),
            verdict(0.5, 9, 8),
            verdict(0.9, 1, 16),
        ];
        let out = route_stage(pending, inputs, screened, 1000, &routing(false), None);

        // (a) every request is answered or grouped, exactly once.
        let grouped: usize = out.groups.iter().map(|g| g.requests.len()).sum();
        assert_eq!(out.answers.tickets.len() + grouped, 6);
        assert_conserved(&out.answers);
        // Groups in shard order, inputs aligned with their requests, no cache
        // key without a cache.
        let shards: Vec<_> = out.groups.iter().map(|g| g.shard).collect();
        assert_eq!(shards, [0, 1]);
        assert_eq!(tags(&out.groups[0].inputs), [1.0, 4.0]);
        assert_eq!(tags(&out.groups[1].inputs), [3.0]);
        assert!(Arc::ptr_eq(&out.groups[0].requests[0].0.slot, &slots[1]));
        assert!(Arc::ptr_eq(&out.groups[0].requests[1].0.slot, &slots[4]));
        assert!(Arc::ptr_eq(&out.groups[1].requests[0].0.slot, &slots[3]));
        assert!(out
            .groups
            .iter()
            .flat_map(|g| &g.requests)
            .all(|r| r.1.is_none()));

        // (d) the error is its own request's; the neighbours got verdicts.
        let fresh = |score, class| Served {
            detection: detection(score, class),
            tier: Tier::Screen,
            cache_hit: false,
            degraded: false,
        };
        let answered = &out.answers.tickets;
        for ((slot, _), expected) in answered.iter().zip([&slots[0], &slots[2], &slots[5]]) {
            assert!(Arc::ptr_eq(slot, expected));
        }
        assert_eq!(answered[0].1, Ok(fresh(0.1, 0)));
        assert!(matches!(answered[1].1, Err(ServeError::Engine(_))));
        assert_eq!(answered[2].1, Ok(fresh(0.9, 1)));
        let routed = BatchDelta {
            completed: 2,
            failed: 1,
            screen_served: 2,
            deadline_misses: 1,
            latencies_ns: vec![900, 700, 400],
            ..BatchDelta::default()
        };
        assert_eq!(out.answers.delta, routed);
    }

    #[test]
    fn a_degraded_in_band_verdict_is_flagged_counted_and_never_cached() {
        let (mut input_keys, mut verdicts) = (LruCache::new(8), LruCache::new(8));
        let pending = vec![flight(0, None, Some(41)), flight(0, None, Some(42))];
        let inputs = vec![Tensor::full(&[2], 0.0), Tensor::full(&[2], 1.0)];
        let screened = vec![verdict(0.5, 0, 8), verdict(0.9, 1, 16)];
        let caches = Some((&mut input_keys, &mut verdicts));
        let out = route_stage(pending, inputs, screened, 10, &routing(true), caches);

        assert!(out.groups.is_empty(), "a degraded batch escalates nothing");
        let degraded = Served {
            detection: detection(0.5, 0),
            tier: Tier::Screen,
            cache_hit: false,
            degraded: true,
        };
        assert_eq!(out.answers.tickets[0].1, Ok(degraded));
        assert_eq!(
            out.answers.tickets[1].1.as_ref().map(|s| s.degraded),
            Ok(false)
        );
        assert_conserved(&out.answers);
        let delta = &out.answers.delta;
        assert_eq!((delta.screen_served, delta.degraded_served), (2, 1));
        assert_eq!((delta.cache_hits, delta.cache_misses), (0, 2));
        // The confident verdict is cached; the degraded one is not — though
        // its input still maps to its path key, for the day a full verdict
        // lands there.
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts.get(path_key(&path(8))).is_none());
        assert_eq!(
            verdicts.get(path_key(&path(16))).map(|v| v.tier),
            Some(Tier::Screen)
        );
        assert_eq!(input_keys.get(41), Some(&path_key(&path(8))));
        assert_eq!(input_keys.get(42), Some(&path_key(&path(16))));
    }

    #[test]
    fn a_path_prefix_hit_is_a_hit_not_a_miss_and_still_maps_the_input() {
        let (mut input_keys, mut verdicts) = (LruCache::new(8), LruCache::new(8));
        let cached = CachedVerdict {
            detection: detection(0.6, 2),
            tier: Tier::Escalated,
        };
        verdicts.insert(path_key(&path(8)), cached);
        // A different input (new input key) whose screen extracted that path;
        // its fresh score is in band, but the cached verdict answers first.
        let pending = vec![flight(0, None, Some(77)), flight(0, None, Some(78))];
        let inputs = vec![Tensor::full(&[2], 0.0), Tensor::full(&[2], 1.0)];
        let screened = vec![verdict(0.5, 0, 8), verdict(0.5, 2, 16)];
        let caches = Some((&mut input_keys, &mut verdicts));
        let out = route_stage(pending, inputs, screened, 10, &routing(false), caches);

        assert_eq!(out.answers.tickets.len(), 1);
        assert_eq!(out.answers.tickets[0].1, Ok(cached.hit()));
        assert_conserved(&out.answers);
        let delta = &out.answers.delta;
        assert_eq!((delta.cache_hits, delta.cache_misses), (1, 1));
        assert_eq!((delta.completed, delta.screen_served), (1, 0));
        assert_eq!(input_keys.get(77), Some(&path_key(&path(8))));
        // The miss escalates carrying the key its verdict will be cached under.
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].shard, 1);
        assert_eq!(out.groups[0].requests[0].1, Some(path_key(&path(16))));
        assert_eq!(
            verdicts.len(),
            1,
            "an escalating request caches nothing yet"
        );
    }

    #[test]
    fn escalated_verdicts_are_answered_and_cached_and_an_error_fails_alone() {
        let mut verdicts = LruCache::new(8);
        let group = EscalationGroup {
            shard: 1,
            requests: vec![
                (flight(100, Some(150), None), Some(5)),
                (flight(200, None, None), Some(6)),
                (flight(300, None, None), None),
            ],
            inputs: Vec::new(),
        };
        let slots: Vec<_> = group.requests.iter().map(|r| r.0.slot.clone()).collect();
        let scored = vec![
            verdict(0.8, 1, 8),
            Err(CoreError::InvalidInput("poisoned".into())),
            verdict(0.2, 2, 8),
        ];
        let answers = escalated_stage(group, scored, 1000, Some(&mut verdicts));

        assert_conserved(&answers);
        for ((slot, _), expected) in answers.tickets.iter().zip(&slots) {
            assert!(Arc::ptr_eq(slot, expected));
        }
        let escalated = |score, class| Served {
            detection: detection(score, class),
            tier: Tier::Escalated,
            cache_hit: false,
            degraded: false,
        };
        assert_eq!(answers.tickets[0].1, Ok(escalated(0.8, 1)));
        assert!(matches!(answers.tickets[1].1, Err(ServeError::Engine(_))));
        assert_eq!(answers.tickets[2].1, Ok(escalated(0.2, 2)));
        let expected = BatchDelta {
            completed: 2,
            failed: 1,
            escalated: 2,
            shard: 1,
            deadline_misses: 1,
            latencies_ns: vec![900, 800, 700],
            ..BatchDelta::default()
        };
        assert_eq!(answers.delta, expected);
        // Cached under the key routing gave it; no key, no entry; no verdict,
        // no entry.
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts.get(5).map(|v| v.tier), Some(Tier::Escalated));
    }
}
