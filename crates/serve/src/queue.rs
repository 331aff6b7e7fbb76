//! The submission-queue policy as a **pure** state machine.
//!
//! [`QueueModel`] owns every decision about the queue — who is admitted,
//! where a request sits (earliest deadline first, FIFO among ties), when
//! degraded mode begins and ends, what a free worker takes, and how shutdown
//! flushes — and makes each one from its arguments alone: methods take the
//! clock reading and the service-time EMA they need and return the decision
//! (and any mode transition) as a value.  The model holds no lock, condvar,
//! clock, atomic or thread.  `server.rs` keeps one model behind its state
//! mutex and only *acts* on what the model returns: count, notify, resolve.
//! That split is what lets the tests below replay whole workload traces
//! against the policy in milliseconds without starting a thread.
//!
//! The cut is **work-conserving**: a worker that asks with a non-empty queue
//! gets `min(len, max_batch)` requests from the EDF front at once, and is
//! told to sleep only on an *empty* queue.  Nothing waits in order to be
//! batched; batches grow exactly when every worker is busy and requests
//! accumulate behind them, which is when fusing them buys throughput.  No
//! decision here reads a request's submission time.  The cap is a number the
//! model is built with ([`crate::ServerBuilder::max_batch`]), not a cost
//! model's output.
//!
//! One input stays **beside** the model on purpose: the per-request
//! service-time EMA behind the admission estimate (`Shared::service_ema_ns`
//! in `server.rs`) is an atomic that [`QueueModel::admit`] takes as an
//! argument.  It is the *measured* estimate, written once per batch leg by
//! the worker and its overlap thread outside the state lock; owning it here
//! would add a `state` acquisition to every leg for nothing the model
//! decides.

use std::collections::VecDeque;

use crate::admission::{AdmissionPolicy, DegradePolicy};
use crate::error::{Result, ServeError, ShedReason};

/// A degraded-mode edge, returned by the call whose queue depth caused it so
/// the caller can count it.  Every depth observation happens inside one
/// `&mut self` call, so entries and exits strictly alternate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DegradeTransition {
    /// The depth reached the high watermark: in-band requests stop escalating.
    Entered,
    /// The depth fell to the low watermark: full two-tier service resumes.
    Exited,
}

/// What a worker asking for work should do ([`QueueModel::cut`]).
#[derive(Debug)]
pub(crate) enum Next<T> {
    /// Serve these requests (EDF order), in the mode the cut was made under.
    Batch {
        /// `min(len, max_batch)` requests from the front of the queue.
        items: Vec<T>,
        /// Whether degraded mode was in effect at the cut — the whole batch
        /// routes in that mode.
        degraded: bool,
        /// The edge the pre-drain depth caused, if any.
        transition: Option<DegradeTransition>,
    },
    /// The queue is empty: sleep until a submission or shutdown.
    Sleep,
    /// The queue is empty and shut down: the worker is done.
    Exit,
}

struct Queued<T> {
    /// The EDF key: the absolute deadline, `u64::MAX` for deadline-free
    /// requests (after everything that can miss).
    key: u64,
    item: T,
}

/// The queue policy; see the module docs.
pub(crate) struct QueueModel<T> {
    queue: VecDeque<Queued<T>>,
    capacity: usize,
    /// Worker count, the divisor of the admission wait estimate.
    workers: u64,
    /// The most requests one cut takes (at least 1).
    max_batch: usize,
    /// Deadline admission control; `None` admits everything.
    admission: Option<AdmissionPolicy>,
    /// Degraded-mode depth thresholds `(enter at >=, exit at <=)`; `None`
    /// never degrades.
    degrade_at: Option<(usize, usize)>,
    degraded: bool,
    shutdown: bool,
}

impl<T> QueueModel<T> {
    /// An empty, open queue of `capacity` slots drained by `workers` workers
    /// in cuts of at most `max_batch`.
    pub(crate) fn new(
        capacity: usize,
        workers: usize,
        max_batch: usize,
        admission: Option<AdmissionPolicy>,
        degrade: Option<DegradePolicy>,
    ) -> QueueModel<T> {
        QueueModel {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            workers: workers.max(1) as u64,
            max_batch: max_batch.max(1),
            admission,
            degrade_at: degrade.map(|policy| policy.thresholds(capacity)),
            degraded: false,
            shutdown: false,
        }
    }

    /// Requests queued (not yet cut by a worker).
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether [`QueueModel::shut_down`] has been called.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown
    }

    /// Stops admitting.  What is queued still drains: [`QueueModel::cut`]
    /// keeps cutting until the queue is empty, then answers [`Next::Exit`].
    pub(crate) fn shut_down(&mut self) {
        self.shutdown = true;
    }

    /// Whether a submission arriving at `now_ns` may be queued.
    ///
    /// Admission control estimates the request's completion from the depth
    /// ahead of it and `service_ema_ns`, the per-request service-time EMA
    /// (0 = unseeded, which leaves admission inert).  Deadline-free
    /// submissions are never shed.
    ///
    /// # Errors
    ///
    /// In precedence order: [`ServeError::ShuttingDown`],
    /// [`ServeError::QueueFull`], and [`ServeError::Shed`] when the estimate
    /// lands past `deadline_ns`.
    pub(crate) fn admit(
        &self,
        now_ns: u64,
        service_ema_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<()> {
        if self.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if self.queue.len() >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        if let (Some(_), Some(deadline_ns)) = (self.admission, deadline_ns) {
            if service_ema_ns > 0 {
                let depth = self.queue.len() as u64 + 1;
                let rounds = depth.div_ceil(self.workers);
                let estimate_ns = service_ema_ns.saturating_mul(rounds);
                if now_ns.saturating_add(estimate_ns) > deadline_ns {
                    return Err(ServeError::Shed(ShedReason::Admission));
                }
            }
        }
        Ok(())
    }

    /// Queues an admitted request ([`QueueModel::admit`] answered `Ok` under
    /// the same borrow) before every queued request with a strictly later
    /// deadline.  Equal keys keep arrival order, so deadline-free traffic
    /// (one key throughout) is exact FIFO.  Returns the degraded-mode edge
    /// the new depth caused, if any.
    pub(crate) fn push(&mut self, deadline_ns: Option<u64>, item: T) -> Option<DegradeTransition> {
        debug_assert!(!self.shutdown && self.queue.len() < self.capacity);
        let key = deadline_ns.unwrap_or(u64::MAX);
        let at = self.queue.partition_point(|queued| queued.key <= key);
        self.queue.insert(at, Queued { key, item });
        self.observe_depth()
    }

    /// What a free worker does now.  A non-empty queue always yields a batch
    /// — shutdown needs no flush rule of its own.  The pre-drain depth
    /// decides the degraded-mode edge (it is the pressure this cut answers);
    /// the batch then routes in whatever mode is in effect.
    pub(crate) fn cut(&mut self) -> Next<T> {
        if self.queue.is_empty() {
            return if self.shutdown {
                Next::Exit
            } else {
                Next::Sleep
            };
        }
        let transition = self.observe_depth();
        let n = self.queue.len().min(self.max_batch);
        Next::Batch {
            items: self.queue.drain(..n).map(|queued| queued.item).collect(),
            degraded: self.degraded,
            transition,
        }
    }

    /// Applies the watermark hysteresis to the current depth.
    fn observe_depth(&mut self) -> Option<DegradeTransition> {
        let (enter_at, exit_at) = self.degrade_at?;
        let depth = self.queue.len();
        if depth >= enter_at && !self.degraded {
            self.degraded = true;
            Some(DegradeTransition::Entered)
        } else if depth <= exit_at && self.degraded {
            self.degraded = false;
            Some(DegradeTransition::Exited)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptolemy_data::{Arrivals, WorkloadSpec};

    fn plain(capacity: usize, workers: usize, max_batch: usize) -> QueueModel<usize> {
        QueueModel::new(capacity, workers, max_batch, None, None)
    }

    /// Unwraps a [`Next::Batch`].
    fn batch(next: Next<usize>) -> (Vec<usize>, bool, Option<DegradeTransition>) {
        match next {
            Next::Batch {
                items,
                degraded,
                transition,
            } => (items, degraded, transition),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn a_free_worker_takes_min_of_queued_and_cap_and_sleeps_only_when_empty() {
        let mut model = plain(16, 2, 3);
        assert!(matches!(model.cut(), Next::Sleep));
        for id in 0..5 {
            model.push(None, id);
        }
        assert_eq!(batch(model.cut()).0, [0, 1, 2]);
        assert_eq!(batch(model.cut()).0, [3, 4]);
        assert!(matches!(model.cut(), Next::Sleep));
        // A lone request is cut at once.
        model.push(None, 5);
        assert_eq!(batch(model.cut()).0, [5]);
        // The cut is the EDF prefix of length `min(len, max_batch)` at every
        // cap and depth, deadlines or not.
        for max_batch in 1..=9 {
            let mut model = plain(16, 1, max_batch);
            let mut expected: Vec<(u64, usize)> = Vec::new();
            for id in 0..12 {
                let deadline_ns = (id % 3 != 0).then(|| 1_000 - 7 * (id as u64 % 5));
                model.push(deadline_ns, id);
                expected.push((deadline_ns.unwrap_or(u64::MAX), id));
            }
            expected.sort_unstable();
            while !expected.is_empty() {
                let n = expected.len().min(max_batch);
                let prefix: Vec<usize> = expected.drain(..n).map(|(_, id)| id).collect();
                assert_eq!(batch(model.cut()).0, prefix, "max_batch {max_batch}");
            }
            assert!(matches!(model.cut(), Next::Sleep));
        }
        // A model built with a zero cap (the builder refuses one) still makes
        // progress.
        let mut model = plain(4, 1, 0);
        model.push(None, 0);
        model.push(None, 1);
        assert_eq!(batch(model.cut()).0, [0]);
    }

    #[test]
    fn shutdown_flushes_in_cap_sized_cuts_then_exits() {
        let mut model = plain(16, 1, 2);
        for id in 0..5 {
            model.push(None, id);
        }
        model.shut_down();
        assert!(model.is_shut_down());
        assert_eq!(model.admit(0, 0, None), Err(ServeError::ShuttingDown));
        let sizes: Vec<usize> = (0..3).map(|_| batch(model.cut()).0.len()).collect();
        assert_eq!(sizes, [2, 2, 1]);
        assert!(matches!(model.cut(), Next::Exit));
    }

    /// The cut orders by deadline alone.  The model is never told when a
    /// request was submitted, so no cut decision can depend on it: a
    /// later-submitted request with an earlier deadline goes first.
    #[test]
    fn earlier_deadlines_are_cut_first_and_deadline_free_traffic_is_fifo() {
        let mut model = plain(16, 1, 3);
        for (id, deadline_ns) in [None, Some(900), Some(100), None, Some(900), Some(100)]
            .into_iter()
            .enumerate()
        {
            model.push(deadline_ns, id);
        }
        assert_eq!(
            batch(model.cut()).0,
            [2, 5, 1],
            "submitted third, due first"
        );
        assert_eq!(batch(model.cut()).0, [4, 0, 3]);

        for id in 0..9 {
            model.push(None, id);
        }
        let order: Vec<usize> = (0..3).flat_map(|_| batch(model.cut()).0).collect();
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn degrade_edges_are_decided_by_the_pre_drain_depth() {
        use DegradeTransition::{Entered, Exited};
        // Capacity 8 at the default watermarks: enter at >= 6, exit at <= 2.
        let mut model: QueueModel<usize> =
            QueueModel::new(8, 1, 1, None, Some(DegradePolicy::default()));
        let edges: Vec<_> = (0..7).map(|id| model.push(None, id)).collect();
        assert_eq!(
            edges,
            [None, None, None, None, None, Some(Entered), None],
            "the sixth request crosses the high watermark"
        );
        // Draining one request per cut from depth 7: the cut that *sees*
        // depth 3 still routes degraded even though it leaves 2 behind; the
        // next one sees 2 and recovers.
        let cuts: Vec<_> = (0..7)
            .map(|_| {
                let (_, degraded, edge) = batch(model.cut());
                (degraded, edge)
            })
            .collect();
        let mut expected = vec![(true, None); 5];
        expected.extend([(false, Some(Exited)), (false, None)]);
        assert_eq!(cuts, expected);
        // Without a policy no depth ever degrades.
        let mut never = plain(2, 1, 2);
        assert_eq!(never.push(None, 0), None);
        assert_eq!(never.push(None, 1), None);
        assert_eq!(batch(never.cut()), (vec![0, 1], false, None));
    }

    #[test]
    fn admission_is_inert_unseeded_and_never_sheds_deadline_free_traffic() {
        const EMA_NS: u64 = 1_000_000;
        let shed = Err(ServeError::Shed(ShedReason::Admission));
        let mut model: QueueModel<usize> =
            QueueModel::new(16, 2, 8, Some(AdmissionPolicy::default()), None);
        for id in 0..10 {
            model.push(None, id);
        }
        // Eleventh in line behind two workers: six rounds of the EMA.
        let now_ns = 5_000;
        let estimate_ns = 6 * EMA_NS;
        assert_eq!(
            model.admit(now_ns, EMA_NS, Some(now_ns + estimate_ns)),
            Ok(())
        );
        assert_eq!(
            model.admit(now_ns, EMA_NS, Some(now_ns + estimate_ns - 1)),
            shed
        );
        // An unseeded EMA and a missing deadline both admit, however doomed.
        assert_eq!(model.admit(now_ns, 0, Some(now_ns)), Ok(()));
        assert_eq!(model.admit(now_ns, u64::MAX, None), Ok(()));
        // So does a model without a policy.
        let mut open = plain(1, 1, 1);
        assert_eq!(open.admit(now_ns, EMA_NS, Some(now_ns)), Ok(()));
        // A full queue is reported before the estimate, shutdown before both.
        open.push(None, 0);
        assert_eq!(
            open.admit(now_ns, EMA_NS, Some(now_ns)),
            Err(ServeError::QueueFull)
        );
        open.shut_down();
        assert_eq!(
            open.admit(now_ns, EMA_NS, Some(now_ns)),
            Err(ServeError::ShuttingDown)
        );
    }

    /// Mean service size of the replayed traces, also fed to admission as a
    /// seeded EMA.
    const SERVICE_NS: u64 = 100_000;

    /// A discrete-event replay of one trace against the model: `workers`
    /// virtual workers, each busy until its cut's summed service time has
    /// elapsed.
    struct Replay {
        model: QueueModel<usize>,
        /// The `max_batch` the model was built with.
        cap: usize,
        workers: usize,
        /// Finish times of the busy workers; the rest are idle.
        busy: Vec<u64>,
        /// Service time per request id.
        service_ns: Vec<u64>,
        /// The specification the cuts are checked against: `(EDF key, id)` of
        /// everything queued; ids are issued in arrival order.
        queued: Vec<(u64, usize)>,
        cut: Vec<usize>,
        entered: u64,
        exited: u64,
    }

    impl Replay {
        fn note(&mut self, edge: Option<DegradeTransition>) {
            match edge {
                Some(DegradeTransition::Entered) => self.entered += 1,
                Some(DegradeTransition::Exited) => self.exited += 1,
                None => {}
            }
            assert!(
                self.entered - self.exited <= 1,
                "degrade edges must alternate: {} entered, {} exited",
                self.entered,
                self.exited
            );
        }

        /// Hands work to every idle worker at `now_ns`, then checks that no
        /// request is left queued beside an idle worker.
        fn dispatch(&mut self, now_ns: u64) {
            while self.busy.len() < self.workers {
                let Next::Batch {
                    items,
                    degraded,
                    transition,
                } = self.model.cut()
                else {
                    break;
                };
                self.note(transition);
                assert_eq!(degraded, self.entered > self.exited);
                // Earliest deadline first, arrival order among ties.
                self.queued.sort_unstable();
                let n = self.queued.len().min(self.cap);
                let expected: Vec<usize> = self.queued.drain(..n).map(|(_, id)| id).collect();
                assert_eq!(items, expected);
                let service_ns: u64 = items.iter().map(|id| self.service_ns[*id]).sum();
                self.busy.push(now_ns + service_ns);
                self.cut.extend(items);
            }
            assert!(
                self.model.len() == 0 || self.busy.len() == self.workers,
                "{} queued at {now_ns} ns beside {} idle workers",
                self.model.len(),
                self.workers - self.busy.len()
            );
        }

        /// Frees the workers that finish by `until_ns`, earliest first, each
        /// taking new work the instant it does.
        fn retire(&mut self, until_ns: u64) {
            while let Some(&done_ns) = self.busy.iter().min().filter(|done| **done <= until_ns) {
                self.busy.retain(|done| *done != done_ns);
                self.dispatch(done_ns);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Seeded `ptolemy_data::workload` traces, from light load to 4x
        /// overload, Poisson and bursty, with and without deadlines: every
        /// offered request is refused or cut exactly once, every cut is the
        /// EDF/FIFO prefix of length `min(len, max_batch)`, degrade edges
        /// alternate, and no request is ever queued at an instant when a
        /// worker is idle.
        #[test]
        fn replayed_traces_conserve_tickets_and_never_idle_a_worker_past_a_queued_request(
            seed in any::<u64>(),
            requests in 1usize..=300,
            workers in 1usize..=4,
            cap in 1usize..=8,
            capacity in 1usize..=32,
            load_pct in 20u64..=400,
            bursty in any::<bool>(),
            deadlines in any::<bool>(),
        ) {
            let trace = WorkloadSpec {
                seed,
                requests,
                classes: 3,
                total_utilization: load_pct as f64 / 100.0,
                mean_service_ns: SERVICE_NS,
                arrivals: if bursty {
                    Arrivals::Bursty { burstiness: 4.0, mean_burst_ns: 20 * SERVICE_NS }
                } else {
                    Arrivals::Poisson
                },
                ..WorkloadSpec::default()
            }
            .generate()
            .expect("valid spec");
            let mut replay = Replay {
                model: QueueModel::new(
                    capacity,
                    workers,
                    cap,
                    Some(AdmissionPolicy::default()),
                    Some(DegradePolicy::default()),
                ),
                cap,
                workers,
                busy: Vec::new(),
                service_ns: Vec::new(),
                queued: Vec::new(),
                cut: Vec::new(),
                entered: 0,
                exited: 0,
            };
            let (mut full, mut shed) = (0usize, 0usize);
            for event in trace.events() {
                let now_ns = event.arrival_ns;
                replay.retire(now_ns);
                // Class 0 stays deadline-free so EDF and FIFO traffic mix.
                let deadline_ns = (deadlines && event.class != 0)
                    .then(|| now_ns + event.deadline_ns);
                match replay.model.admit(now_ns, SERVICE_NS, deadline_ns) {
                    Ok(()) => {
                        let id = replay.service_ns.len();
                        let service_ns = (event.service_scale * SERVICE_NS as f64) as u64;
                        replay.service_ns.push(service_ns.max(1));
                        replay.queued.push((deadline_ns.unwrap_or(u64::MAX), id));
                        let edge = replay.model.push(deadline_ns, id);
                        replay.note(edge);
                        replay.dispatch(now_ns);
                    }
                    Err(ServeError::QueueFull) => full += 1,
                    Err(ServeError::Shed(ShedReason::Admission)) => {
                        prop_assert!(deadline_ns.is_some(), "deadline-free request shed");
                        shed += 1;
                    }
                    Err(other) => prop_assert!(false, "unexpected refusal {other:?}"),
                }
            }
            replay.model.shut_down();
            replay.retire(u64::MAX);
            prop_assert!(matches!(replay.model.cut(), Next::Exit));
            prop_assert!(replay.busy.is_empty());
            let admitted = replay.service_ns.len();
            prop_assert_eq!(requests, admitted + full + shed);
            replay.cut.sort_unstable();
            prop_assert_eq!(replay.cut, (0..admitted).collect::<Vec<_>>());
        }
    }
}
