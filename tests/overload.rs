//! Overload-survival tests of the serving runtime: zero-overload parity
//! (deadline-aware serving is bit-for-bit identical to plain serving for
//! every `variants::*` escalation engine), degraded-mode parity against the
//! screen engine, admission-control shedding, deadline expiry in the queue,
//! degradation engaging/disengaging across a burst, a degraded verdict never
//! coming back from the cache, and the work-conserving cut on a clock that
//! never moves.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] fns unwrap and call expect; a failure there fails the test"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "tests spawn threads, use unbounded channels and read the wall clock to force interleavings"
)]

mod common;

use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ptolemy::nn::{Decompositions, Layer, LayerKind, NnError};
use ptolemy::obs::{Clock, Registry};
use ptolemy::prelude::*;

/// Engines and a request pool shared by every test: building engines needs
/// training + profiling, far too slow to repeat per test.
struct Fixtures {
    network: Arc<Network>,
    screen: Arc<DetectionEngine>,
    /// One calibrated escalation engine per `variants::*` constructor.
    escalations: Vec<(&'static str, Arc<DetectionEngine>)>,
    inputs: Vec<Tensor>,
    /// An uncertainty band spanning the middle half of the pool's screening
    /// scores, so the escalation/degradation paths are guaranteed traffic.
    band: (f32, f32),
}

/// A deadline loose enough that no test machine can miss it.
const GENEROUS: Duration = Duration::from_secs(600);

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (network, dataset) = common::trained_lenet(0x0D10);
        let network = Arc::new(network);
        let benign = common::benign_inputs(&dataset);
        let attack = Fgsm::new(0.25);
        let adversarial: Vec<Tensor> = dataset
            .test()
            .iter()
            .map(|(x, y)| attack.perturb(&network, x, *y).unwrap().input)
            .collect();
        let build = |program: DetectionProgram| {
            let class_paths = Profiler::new(program.clone())
                .profile(&network, dataset.train())
                .unwrap();
            Arc::new(
                DetectionEngine::builder(network.clone(), program, class_paths)
                    .calibrate(&benign, &adversarial)
                    .build()
                    .unwrap(),
            )
        };
        let screen = build(variants::fw_ab(&network, 0.05).unwrap());
        let escalations = vec![
            ("bw_cu", build(variants::bw_cu(&network, 0.5).unwrap())),
            ("bw_ab", build(variants::bw_ab(&network, 0.2).unwrap())),
            ("fw_ab", build(variants::fw_ab(&network, 0.1).unwrap())),
            ("fw_cu", build(variants::fw_cu(&network, 0.5).unwrap())),
            (
                "hybrid",
                build(variants::hybrid(&network, 0.2, 0.5).unwrap()),
            ),
            (
                "bw_cu_early_termination",
                build(variants::bw_cu_early_termination(&network, 0.5, 2).unwrap()),
            ),
            (
                "fw_ab_late_start",
                build(variants::fw_ab_late_start(&network, 0.05, 1).unwrap()),
            ),
        ];
        let mut inputs = benign;
        inputs.extend(adversarial);
        let mut scores: Vec<f32> = inputs
            .iter()
            .map(|x| screen.detect(x).unwrap().score)
            .collect();
        scores.sort_by(f32::total_cmp);
        let band = (scores[scores.len() / 4], scores[scores.len() * 3 / 4]);
        Fixtures {
            network,
            screen,
            escalations,
            inputs,
            band,
        }
    })
}

fn assert_same_detection(a: &Detection, b: &Detection, context: &str) {
    assert_eq!(a.is_adversary, b.is_adversary, "{context}");
    assert_eq!(a.predicted_class, b.predicted_class, "{context}");
    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{context}");
    assert_eq!(a.similarity.to_bits(), b.similarity.to_bits(), "{context}");
}

/// Zero overload ⇒ the overload machinery is inert: for every `variants::*`
/// escalation engine, a server with admission control, degradation and
/// generous per-request deadlines serves bit-for-bit the verdicts the plain
/// server serves, with every shed/degrade/miss counter at zero.
#[test]
fn zero_overload_deadline_serving_matches_plain_serving_for_every_variant() {
    let fx = fixtures();
    for (name, escalate) in &fx.escalations {
        let plain = Server::builder(fx.screen.clone())
            .escalate(escalate.clone(), fx.band.0, fx.band.1)
            .workers(2)
            .start()
            .unwrap();
        let guarded = Server::builder(fx.screen.clone())
            .escalate(escalate.clone(), fx.band.0, fx.band.1)
            .workers(2)
            .queue_capacity(1024)
            .admission(AdmissionPolicy::default())
            .degradation(DegradePolicy {
                high_watermark: 1.0,
                low_watermark: 0.25,
            })
            .start()
            .unwrap();

        let plain_tickets: Vec<Ticket> = fx
            .inputs
            .iter()
            .map(|x| plain.submit(x.clone()).unwrap())
            .collect();
        let guarded_tickets: Vec<Ticket> = fx
            .inputs
            .iter()
            .map(|x| guarded.submit_with_deadline(x.clone(), GENEROUS).unwrap())
            .collect();

        for (a, b) in plain_tickets.into_iter().zip(guarded_tickets) {
            let a = a.wait().unwrap();
            let b = b.wait().unwrap();
            assert_eq!(a.tier, b.tier, "{name}: routing must not change");
            assert!(!b.degraded, "{name}: no degradation under zero overload");
            assert_same_detection(&a.detection, &b.detection, name);
        }

        let stats = guarded.shutdown();
        assert_eq!(stats.completed, fx.inputs.len() as u64, "{name}");
        assert_eq!(stats.shed_admission, 0, "{name}");
        assert_eq!(stats.shed_expired, 0, "{name}");
        assert_eq!(stats.deadline_misses, 0, "{name}");
        assert_eq!(stats.degraded_served, 0, "{name}");
        assert_eq!(stats.degrade_entered, 0, "{name}");
        // The band spans the pool's middle half, so tiered routing escalates.
        assert!(
            stats.escalated > 0,
            "{name}: tiered routing never escalated"
        );
        plain.shutdown();
    }
}

/// A permanently-degraded server (high watermark 0: any non-empty queue
/// counts as pressure) serves every request the screen engine's direct
/// `detect` verdict, bit for bit — in-band requests flagged `degraded`, no
/// escalations at all.
#[test]
fn degraded_verdicts_match_the_screen_engine_bit_for_bit() {
    let fx = fixtures();
    let (_, escalate) = &fx.escalations[0];
    let server = Server::builder(fx.screen.clone())
        .escalate(escalate.clone(), fx.band.0, fx.band.1)
        .workers(2)
        .degradation(DegradePolicy {
            high_watermark: 0.0,
            low_watermark: 0.0,
        })
        .start()
        .unwrap();

    let tickets: Vec<Ticket> = fx
        .inputs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap())
        .collect();
    let mut degraded = 0u64;
    for (input, ticket) in fx.inputs.iter().zip(tickets) {
        let served = ticket.wait().unwrap();
        let expected = fx.screen.detect(input).unwrap();
        assert_eq!(served.tier, Tier::Screen);
        assert_same_detection(&served.detection, &expected, "degraded parity");
        let in_band = (fx.band.0..=fx.band.1).contains(&expected.score);
        assert_eq!(
            served.degraded, in_band,
            "exactly the would-have-escalated requests are flagged"
        );
        degraded += u64::from(served.degraded);
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, fx.inputs.len() as u64);
    assert_eq!(stats.escalated, 0, "degradation sheds all tier-2 work");
    assert_eq!(stats.degraded_served, degraded);
    assert!(degraded > 0, "the pool must exercise the uncertainty band");
    assert!(stats.degrade_entered >= 1);
}

/// Once the service-time EMA is seeded, submissions whose deadline the
/// backlog estimate already dooms are shed at submission — no ticket, no
/// queue slot, typed [`ServeError::Shed`].
#[test]
fn admission_control_sheds_doomed_submissions_at_the_door() {
    let fx = fixtures();
    let server = Server::builder(fx.screen.clone())
        .workers(1)
        .admission(AdmissionPolicy::default())
        .start()
        .unwrap();

    // Seed the EMA: plain submissions are never shed, and their batches time
    // the screen pass.
    for input in &fx.inputs[..4] {
        server.submit(input.clone()).unwrap().wait().unwrap();
    }

    // A 1 ns deadline budget is unmeetable next to a real screen pass: every
    // submission must shed at admission, before consuming a queue slot.
    let mut shed = 0u64;
    for input in &fx.inputs[4..12] {
        match server.submit_with_deadline(input.clone(), Duration::from_nanos(1)) {
            Err(ServeError::Shed(ShedReason::Admission)) => shed += 1,
            other => panic!("expected an admission shed, got {other:?}"),
        }
    }
    assert_eq!(shed, 8);

    // Generous deadlines still pass admission on the same server.
    server
        .submit_with_deadline(fx.inputs[0].clone(), GENEROUS)
        .unwrap()
        .wait()
        .unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.shed_admission, 8);
    assert_eq!(stats.submitted, 5, "shed submissions never enqueue");
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.shed_expired, 0);
}

/// A queued request whose deadline passes before a worker reaches it is
/// dropped at batch formation with [`ShedReason::DeadlineExpired`] — pinned
/// on a manual clock, with the single worker held by a plug, so the expiry is
/// deterministic.
#[test]
fn expired_requests_are_dropped_in_the_queue() {
    let fx = fixtures();
    let armed = Armed::default();
    let registry = Arc::new(Registry::with_clock("overload-test", Clock::manual()));
    let server = Server::builder(hooked_screen(fx, &armed))
        .workers(1)
        .max_batch(1)
        .instrument(registry.clone())
        .start()
        .unwrap();

    // While the worker is held, a deadline-less request and a deadlined one
    // queue (the deadlined one at the EDF front), and the manual clock runs
    // past the deadline before the worker can cut either.
    let (plugged, release) = plug(&server, &armed, &fx.inputs[0]);
    let busy = server.submit(fx.inputs[1].clone()).unwrap();
    let doomed = server
        .submit_with_deadline(fx.inputs[2].clone(), Duration::from_nanos(10))
        .unwrap();
    registry.clock().advance(1_000_000);
    drop(release);

    plugged.wait().unwrap();
    busy.wait().unwrap();
    match doomed.wait() {
        Err(ServeError::Shed(ShedReason::DeadlineExpired)) => {}
        other => panic!("expected a deadline-expiry shed, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.shed_expired, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1, "the expired request resolves as failed");
}

/// A free worker cuts whatever is queued at once: on a manual clock that
/// nobody advances, a lone request still resolves.  (The batch former used to
/// wait for the request to *age* on the server's clock, so this hung until
/// someone advanced it.)
#[test]
fn lone_request_resolves_on_a_manual_clock_without_an_advance() {
    let fx = fixtures();
    let registry = Arc::new(Registry::with_clock("frozen-clock", Clock::manual()));
    let server = Server::builder(fx.screen.clone())
        .workers(1)
        .instrument(registry.clone())
        .start()
        .unwrap();

    let ticket = server.submit(fx.inputs[0].clone()).unwrap();
    // Bounded in wall time so a regression fails instead of hanging the suite.
    let give_up = std::time::Instant::now() + Duration::from_secs(60);
    while !ticket.is_ready() {
        assert!(
            std::time::Instant::now() < give_up,
            "a lone request waited on a clock nobody advances"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let served = ticket.wait().unwrap();
    let direct = fx.screen.detect(&fx.inputs[0]).unwrap();
    assert_same_detection(&served.detection, &direct, "frozen clock");
    assert_eq!(registry.clock().now_ns(), 0, "nobody advanced the clock");

    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.batches, stats.max_batch), (1, 1, 1));
}

/// Degradation engages while a burst keeps the queue above the high
/// watermark and disengages as the tail drains below the low watermark; the
/// entry/exit counters pair up and degraded verdicts stay screen-tier.
#[test]
fn degradation_engages_and_disengages_across_a_burst() {
    let fx = fixtures();
    let (_, escalate) = &fx.escalations[0];
    // One worker, one request per batch, a tiny queue: blocking submissions
    // pile the queue to capacity (entering degraded mode at depth >= 6), and
    // the tail drains one request per cut so some cut must observe depth <= 2
    // and recover.
    let server = Server::builder(fx.screen.clone())
        .escalate(escalate.clone(), fx.band.0, fx.band.1)
        .workers(1)
        .queue_capacity(8)
        .max_batch(1)
        .degradation(DegradePolicy {
            high_watermark: 0.75,
            low_watermark: 0.25,
        })
        .start()
        .unwrap();

    let burst: Vec<&Tensor> = fx.inputs.iter().cycle().take(48).collect();
    let tickets: Vec<Ticket> = burst
        .iter()
        .map(|x| server.submit((*x).clone()).unwrap())
        .collect();
    for (input, ticket) in burst.iter().zip(tickets) {
        let served = ticket.wait().unwrap();
        if served.degraded {
            // A degraded verdict is the screen engine's, bit for bit.
            assert_eq!(served.tier, Tier::Screen);
            let expected = fx.screen.detect(input).unwrap();
            assert_same_detection(&served.detection, &expected, "burst degraded");
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, 48);
    assert!(
        stats.degrade_entered >= 1,
        "the burst must push the queue past the high watermark"
    );
    assert!(
        stats.degrade_exited >= 1,
        "the drain must recover below the low watermark"
    );
    assert_eq!(
        stats.degrade_entered, stats.degrade_exited,
        "the final cut drains the queue, so every entry has a paired exit"
    );
    assert!(stats.degraded_served >= 1, "the burst must degrade traffic");
    assert_eq!(stats.shed_admission, 0, "no admission policy configured");
}

/// What a hooked layer runs next, once; armed by [`plug`].
type Armed = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// Layer `index` of an already-trained network, borrowed into a second
/// [`Network`] whose first layer runs whatever is `armed` before its forward
/// passes — the `HookedLayer` of `ptolemy-serve`'s own tests, for a fixture
/// that is built once and shared: same weights, so the fixture's class paths
/// and forest bind to it, but a hook private to one test.  No layer of the
/// fixture network has an interior, so the interior entry points keep their
/// defaults (which route through `forward` / `forward_batch`).
struct Borrowed {
    network: Arc<Network>,
    index: usize,
    armed: Option<Armed>,
}

impl Borrowed {
    fn inner(&self) -> &dyn Layer {
        self.network.layer(self.index).expect("index in range")
    }

    fn run_hook(&self) {
        let fault = self
            .armed
            .as_ref()
            .and_then(|armed| armed.lock().unwrap().take());
        if let Some(fault) = fault {
            fault();
        }
    }
}

impl Layer for Borrowed {
    fn name(&self) -> &'static str {
        self.inner().name()
    }
    fn output_shape(&self) -> Vec<usize> {
        self.inner().output_shape()
    }
    fn input_shape(&self) -> Vec<usize> {
        self.inner().input_shape()
    }
    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor, NnError> {
        self.run_hook();
        self.inner().forward_batch(batch)
    }
    fn params(&self) -> Vec<&Tensor> {
        self.inner().params()
    }
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new() // borrowed weights are never trained
    }
    fn contributions_many(
        &self,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<(), NnError> {
        self.inner()
            .contributions_many(input, interior, out_idxs, out)
    }
    fn static_routing(
        &self,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<bool, NnError> {
        self.inner().static_routing(out_idxs, out)
    }
    fn kind(&self) -> LayerKind {
        self.inner().kind()
    }
}

/// Parks the server's single worker inside the screen of a **plug** request:
/// arms the hook to signal "entered" and then block, submits `input`, and
/// returns once the worker is inside the hooked layer.  The queue is then
/// empty and stays untouched — whatever is submitted next queues
/// deterministically — until the returned sender is dropped.
fn plug(server: &Server, armed: &Armed, input: &Tensor) -> (Ticket, Sender<()>) {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel::<()>();
    *armed.lock().unwrap() = Some(Box::new(move || {
        entered_tx.send(()).unwrap();
        let _ = release_rx.recv();
    }));
    let ticket = server.submit(input.clone()).unwrap();
    entered.recv().unwrap();
    (ticket, release)
}

/// The fixture's screen engine, re-bound to a hooked view of its network whose
/// first layer runs whatever is `armed` (see [`plug`]).
fn hooked_screen(fx: &Fixtures, armed: &Armed) -> DetectionEngine {
    let layers = (0..fx.network.num_layers()).map(|index| {
        Box::new(Borrowed {
            network: fx.network.clone(),
            index,
            armed: (index == 0).then(|| armed.clone()),
        }) as Box<dyn Layer>
    });
    DetectionEngine::builder(
        Network::new(layers.collect()).unwrap(),
        fx.screen.program().clone(),
        fx.screen.class_paths().clone(),
    )
    .forest(fx.screen.forest().expect("calibrated").clone())
    .threshold(fx.screen.threshold())
    .build()
    .unwrap()
}

/// A degraded verdict is never cached, so neither cache probe may ever return
/// one: after recovery, resubmitting an input that was just served
/// `degraded: true` misses the probe inside `submit` (the ticket is not born
/// resolved), takes the full two-tier pipeline, and only *that* verdict is
/// what a later repeat is answered with.
#[test]
fn a_degraded_verdict_never_comes_back_from_the_submit_side_probe() {
    let fx = fixtures();
    let (_, escalate) = &fx.escalations[0];
    let armed = Armed::default();
    let screen = hooked_screen(fx, &armed);
    // Capacity 4: degraded from depth 3, recovered at depth 1.
    let server = Server::builder(screen)
        .escalate(escalate.clone(), fx.band.0, fx.band.1)
        .workers(1)
        .queue_capacity(4)
        .cache(CacheConfig {
            capacity: 64,
            prefix_segments: usize::MAX,
            persist_path: None,
        })
        .degradation(DegradePolicy {
            high_watermark: 0.75,
            low_watermark: 0.25,
        })
        .start()
        .unwrap();

    // With the worker held inside a plug, three in-band inputs pile the
    // queue to the high watermark; released, the worker takes them in one
    // cut, which serves all three degraded.  (The plugs are in band too, but
    // each is cut alone at depth 1 and takes the full pipeline.)
    let pool: Vec<&Tensor> = fx
        .inputs
        .iter()
        .filter(|x| (fx.band.0..=fx.band.1).contains(&fx.screen.detect(x).unwrap().score))
        .collect();
    let (in_band, plugs) = (&pool[..3], &pool[pool.len() - 2..]);
    let (plugged, release) = plug(&server, &armed, plugs[0]);
    let tickets: Vec<Ticket> = in_band
        .iter()
        .map(|x| server.submit((*x).clone()).unwrap())
        .collect();
    drop(release);
    assert!(!plugged.wait().unwrap().degraded, "cut at depth 1");
    for ticket in tickets {
        let served = ticket.wait().unwrap();
        assert!(served.degraded && !served.cache_hit);
    }
    let stats = server.stats();
    assert_eq!((stats.batches, stats.degraded_served), (2, 3));
    assert_eq!((stats.degrade_entered, stats.degrade_exited), (1, 0));

    // The second plug's push observes depth 1 and recovers; the worker is
    // held again with the queue empty.  Nothing can resolve the next ticket
    // before the plug is released, so "not ready" is the probe missing.
    let (plugged, release) = plug(&server, &armed, plugs[1]);
    assert_eq!(server.stats().degrade_exited, 1);
    let again = server.submit(in_band[0].clone()).unwrap();
    assert!(
        !again.is_ready(),
        "a degraded verdict was answered from the cache"
    );
    assert_eq!(server.stats().cache_hits, 0);
    drop(release);
    plugged.wait().unwrap();
    let full = again.wait().unwrap();
    assert!(!full.cache_hit && !full.degraded);
    assert_eq!(full.tier, Tier::Escalated);
    let expected = escalate.detect(in_band[0]).unwrap();
    assert_same_detection(&full.detection, &expected, "after recovery");

    // The full-pipeline verdict *is* cached: the next repeat is born resolved.
    let hit = server.submit(in_band[0].clone()).unwrap();
    assert!(hit.is_ready());
    let hit = hit.wait().unwrap();
    assert!(hit.cache_hit && !hit.degraded);
    assert_eq!(hit.tier, Tier::Escalated);
    assert_same_detection(&hit.detection, &expected, "replayed");
    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_hits_at_submit), (1, 1));
    assert_eq!(stats.submitted, stats.completed + stats.failed);
}
