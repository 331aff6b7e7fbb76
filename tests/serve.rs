//! Cross-crate tests of the serving runtime: bit-for-bit parity between served
//! and direct detection (including sharded tier-2 escalation vs the unsharded
//! engine, across every `variants::*` program and shard counts 1..4), cache
//! persistence across server restarts, and the property that every ticket
//! resolves exactly once with its own input's result under arbitrary
//! interleavings.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers and proptest! bodies unwrap and call expect; a failure there fails the test"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "tests spawn threads, use unbounded channels and read the wall clock to force interleavings"
)]

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use ptolemy::core::CoreError;
use ptolemy::nn::NnError;
use ptolemy::prelude::*;

/// Engines and a request pool shared by every test case: building engines
/// needs training + profiling, far too slow to repeat per property-test case.
struct Fixtures {
    network: Arc<Network>,
    screen: Arc<DetectionEngine>,
    expensive: Arc<DetectionEngine>,
    /// One calibrated escalation engine per `variants::*` constructor, used by
    /// the sharded-parity property.
    escalations: Vec<(&'static str, Arc<DetectionEngine>)>,
    inputs: Vec<Tensor>,
}

const BAND: (f32, f32) = (0.3, 0.7);

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (network, dataset) = common::trained_lenet(0x5E12);
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
                    .quantized(&benign)
                    .build()
                    .unwrap(),
            )
        };
        let screen = build(variants::fw_ab(&network, 0.05).unwrap());
        let expensive = build(variants::bw_cu(&network, 0.5).unwrap());
        // Every canned program constructor: both directions, both threshold
        // kinds, the hybrid mix and both selective-extraction modes — each a
        // potential tier-2 engine to shard.
        let escalations = vec![
            ("bw_cu", expensive.clone()),
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
        Fixtures {
            network,
            screen,
            expensive,
            escalations,
            inputs,
        }
    })
}

/// Escalation shards built from `full`'s canary set, forest and threshold —
/// the recipe `ServerBuilder::escalate_sharded` documents.
fn shard_engines(fx: &Fixtures, full: &DetectionEngine, n: usize) -> Vec<Arc<DetectionEngine>> {
    full.class_paths()
        .shard(n)
        .unwrap()
        .into_iter()
        .map(|paths| {
            Arc::new(
                DetectionEngine::builder(fx.network.clone(), full.program().clone(), paths)
                    .forest(full.forest().expect("calibrated engine").clone())
                    .threshold(full.threshold())
                    .build()
                    .unwrap(),
            )
        })
        .collect()
}

/// The direct result of the engine the server's router picked for this tier.
fn direct(fx: &Fixtures, tier: Tier, input: &Tensor) -> Detection {
    match tier {
        Tier::Screen => fx.screen.detect(input).unwrap(),
        Tier::Escalated => fx.expensive.detect(input).unwrap(),
    }
}

/// Tentpole acceptance: with the cache disabled, served results are bit-for-bit
/// identical to calling `detect` directly on the engine each input was routed
/// to, and the routing decision itself is the screening score against the band.
#[test]
fn served_results_are_bit_for_bit_identical_to_direct_detection() {
    let fx = fixtures();
    let server = Server::builder(fx.screen.clone())
        .escalate(fx.expensive.clone(), BAND.0, BAND.1)
        .workers(4)
        .start()
        .unwrap();

    let tickets: Vec<Ticket> = fx
        .inputs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap())
        .collect();
    for (input, ticket) in fx.inputs.iter().zip(tickets) {
        let served = ticket.wait().unwrap();
        assert!(!served.cache_hit, "cache is disabled");

        let screen_score = fx.screen.detect(input).unwrap().score;
        let expected_tier = if (BAND.0..=BAND.1).contains(&screen_score) {
            Tier::Escalated
        } else {
            Tier::Screen
        };
        assert_eq!(served.tier, expected_tier);

        let expected = direct(fx, served.tier, input);
        assert_eq!(served.detection.is_adversary, expected.is_adversary);
        assert_eq!(served.detection.predicted_class, expected.predicted_class);
        assert_eq!(served.detection.score.to_bits(), expected.score.to_bits());
        assert_eq!(
            served.detection.similarity.to_bits(),
            expected.similarity.to_bits()
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, fx.inputs.len() as u64);
    assert_eq!(
        stats.screen_served + stats.escalated,
        fx.inputs.len() as u64
    );
}

/// A duplicated workload served with the cache enabled reports hits, and the
/// cached verdicts replay the original ones.
#[test]
fn duplicated_workload_reports_cache_hits() {
    let fx = fixtures();
    let server = Server::builder(fx.screen.clone())
        .escalate(fx.expensive.clone(), BAND.0, BAND.1)
        .workers(2)
        .cache(CacheConfig {
            capacity: 256,
            prefix_segments: usize::MAX,
            persist_path: None,
        })
        .start()
        .unwrap();

    // First pass populates the cache; second pass replays the same inputs.
    let first: Vec<Served> = fx
        .inputs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap())
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.wait().unwrap())
        .collect();
    // Every verdict of the first pass is cached by now, so the exact-input
    // probe inside `submit` answers the whole second pass: each ticket is born
    // resolved and no worker cuts a batch for it.
    let before = server.stats();
    let second: Vec<Served> = fx
        .inputs
        .iter()
        .map(|x| {
            let ticket = server.submit(x.clone()).unwrap();
            assert!(ticket.is_ready(), "a repeat must be answered inside submit");
            ticket.wait().unwrap()
        })
        .collect();
    assert_eq!(
        server.stats().batches,
        before.batches,
        "a hit cuts no batch"
    );

    for (a, b) in first.iter().zip(&second) {
        assert!(b.cache_hit, "second pass must be served from the cache");
        assert_eq!(a.detection, b.detection);
        assert_eq!(a.tier, b.tier);
    }
    let stats = server.shutdown();
    assert_eq!(stats.cache_hits, fx.inputs.len() as u64);
    assert_eq!(stats.cache_hits_at_submit, fx.inputs.len() as u64);
    assert_eq!(stats.submitted, 2 * fx.inputs.len() as u64);
    assert_eq!(stats.submitted, stats.completed + stats.failed);
    assert!(stats.cache_hit_rate() > 0.0);
}

/// Two submitters race two workers over a four-input pool with Zipf-skewed
/// popularity: a request may be answered by the probe inside `submit`, by the
/// worker-side probe (its twin finished while it was queued), by the
/// path-prefix lookup after a screen, or by the engines.  Whichever path
/// wins, the verdict is bit for bit the cache-off server's, and every ticket
/// is counted exactly once.
#[test]
fn racing_submitters_get_the_cache_off_verdicts_and_tickets_are_conserved() {
    const REQUESTS_PER_SUBMITTER: usize = 2_500;
    let fx = fixtures();
    let pool = &fx.inputs[..4];
    let builder = || {
        Server::builder(fx.screen.clone())
            .escalate(fx.expensive.clone(), BAND.0, BAND.1)
            .workers(2)
    };
    let reference: Vec<Served> = {
        let server = builder().start().unwrap();
        pool.iter()
            .map(|x| server.submit(x.clone()).unwrap().wait().unwrap())
            .collect()
    };

    let server = builder()
        .cache(CacheConfig {
            capacity: 256,
            prefix_segments: usize::MAX,
            persist_path: None,
        })
        .start()
        .unwrap();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for submitter in 0..2u64 {
            let (server, start, reference) = (&server, &start, &reference);
            scope.spawn(move || {
                let mut rng = ptolemy::tensor::Rng64::new(0xCAC4E + submitter);
                start.wait();
                // Zipf(1) over four ranks: weights 1, 1/2, 1/3, 1/4.
                let picks: Vec<usize> = (0..REQUESTS_PER_SUBMITTER)
                    .map(|_| match rng.next_f32() * (25.0 / 12.0) {
                        u if u < 1.0 => 0,
                        u if u < 1.5 => 1,
                        u if u < 11.0 / 6.0 => 2,
                        _ => 3,
                    })
                    .collect();
                let tickets: Vec<Ticket> = picks
                    .iter()
                    .map(|&i| server.submit(pool[i].clone()).unwrap())
                    .collect();
                for (i, ticket) in picks.into_iter().zip(tickets) {
                    let served = ticket.wait().unwrap();
                    let expected = &reference[i];
                    assert_eq!(served.tier, expected.tier);
                    assert!(!served.degraded);
                    assert_eq!(served.detection, expected.detection);
                    assert_eq!(
                        served.detection.score.to_bits(),
                        expected.detection.score.to_bits()
                    );
                    assert_eq!(
                        served.detection.similarity.to_bits(),
                        expected.detection.similarity.to_bits()
                    );
                }
            });
        }
    });

    let stats = server.shutdown();
    let total = 2 * REQUESTS_PER_SUBMITTER as u64;
    assert_eq!(stats.submitted, total);
    assert_eq!((stats.completed, stats.failed), (total, 0));
    assert_eq!(
        stats.screen_served + stats.escalated + stats.cache_hits,
        total,
        "every completion is counted under exactly one source"
    );
    assert!(stats.cache_hits_at_submit <= stats.cache_hits);
    assert!(stats.cache_hits_at_submit > 0, "{stats:?}");
    assert!(
        stats.batches < total,
        "hits at submit cut no batch: {stats:?}"
    );
}

/// A hostile request — NaN, ±∞ or `f32::MAX` pixels, or a tensor of the wrong
/// shape — gets exactly what a direct engine call gives it, on its own
/// ticket.  No worker panics, and the requests batched around it are served
/// their direct results.  Covers a backward-cumulative screen, a forward
/// screen, and that forward screen on the int8 tier — where quantizing a NaN
/// to 0 once laundered it into a verdict.
///
/// Every tier answers every poison by the one non-finite rule of the forward
/// pass, whatever its program:
/// * NaN and ±∞ pixels are `NonFinite` at boundary 0, the input: 8 of 8
///   poisoned requests on every tier;
/// * `f32::MAX` pixels are finite, so the input passes, and the first conv
///   overflows: `NonFinite` at boundary 1, 8 of 8 on both f32 tiers — the
///   check is on the forward pass, so the backward program no longer depends
///   on whether its walk happens to reach the overflowed neurons;
/// * the int8 tier serves all 8 `f32::MAX` requests: it quantizes the finite
///   input, saturating every `f32::MAX` to 127 (`nn/src/quant.rs`), and no
///   integer layer can overflow, so every boundary is finite and the verdict
///   is the one `detect_quantized` returns for the saturated image.
#[test]
fn a_nan_request_fails_alone_without_panicking_a_worker() {
    let fx = fixtures();
    // (screen, int8 tier?, `f32::MAX` requests rejected of 8)
    for (screen, int8, overflow_rejected) in [
        (fx.expensive.clone(), false, 8),
        (fx.screen.clone(), false, 8),
        (fx.screen.clone(), true, 0),
    ] {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX] {
            let mut builder = Server::builder(screen.clone()).workers(2);
            if int8 {
                builder = builder.quantized_screen(screen.quantized_network().unwrap().clone());
            }
            let server = builder.start().unwrap();
            let mut requests = Vec::new();
            for (i, input) in fx.inputs.iter().take(24).enumerate() {
                let mut input = input.clone();
                if i % 3 == 1 {
                    // Enough poisoned pixels that every receptive field covers one.
                    for pixel in input.as_mut_slice().iter_mut().skip(i % 5).step_by(5) {
                        *pixel = poison;
                    }
                }
                if i == 12 {
                    // Mid-batch, a tensor no layer of this network accepts.
                    input = Tensor::full(&[3], 0.5);
                }
                requests.push((i % 3 == 1, input.clone(), server.submit(input).unwrap()));
            }
            let (mut rejected, mut misshapen) = (0, 0);
            // Where the poison is non-finite: the input, or the first conv's
            // output when a finite input overflows there.
            let boundary = if poison.is_finite() { 1 } else { 0 };
            for (poisoned, input, ticket) in requests {
                let direct = if int8 {
                    screen.detect_quantized(&input)
                } else {
                    screen.detect(&input)
                };
                match (ticket.wait(), direct) {
                    (Ok(served), Ok(direct)) => {
                        assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
                        assert_eq!(served.detection, direct);
                    }
                    (Err(ServeError::Engine(served)), Err(direct)) => {
                        assert_eq!(served, direct, "the same typed error as the direct call");
                        match served {
                            CoreError::Nn(NnError::InvalidConfig(_)) => {
                                assert_eq!(input.dims(), [3], "a well-shaped request was rejected");
                                misshapen += 1;
                            }
                            CoreError::Nn(NnError::NonFinite { boundary: at }) => {
                                assert!(poisoned, "a clean request was rejected");
                                assert_eq!(at, boundary, "poison {poison}, int8 {int8}");
                                rejected += 1;
                            }
                            other => panic!("unexpected engine error {other:?}"),
                        }
                    }
                    (served, direct) => panic!("served {served:?} but direct {direct:?}"),
                }
            }
            assert_eq!(
                misshapen, 1,
                "the mis-shaped tensor fails on its own ticket"
            );
            let expected = if poison.is_finite() {
                overflow_rejected
            } else {
                8
            };
            assert_eq!(rejected, expected, "poison {poison}, int8 {int8}");
            let stats = server.shutdown();
            assert_eq!(stats.worker_panics, 0, "{stats:?}");
            assert_eq!(stats.failed, rejected + misshapen, "{stats:?}");
            assert_eq!(stats.submitted, stats.completed + stats.failed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary request interleavings, worker counts and queue pressure,
    /// the server returns exactly one result per ticket, in submission order
    /// per submitter, equal to the direct `detect` result of the routed engine
    /// (cache disabled).
    #[test]
    fn every_ticket_resolves_to_its_own_direct_result(
        workers in 1usize..=4,
        submitters in 1usize..=3,
        per_submitter in 1usize..=10,
        queue_capacity in 2usize..=16,
        seed in 0u64..1_000,
    ) {
        let fx = fixtures();
        let server = Server::builder(fx.screen.clone())
            .escalate(fx.expensive.clone(), BAND.0, BAND.1)
            .workers(workers)
            .queue_capacity(queue_capacity)
            .start()
            .unwrap();

        // Each submitter thread draws its own pseudo-random request sequence,
        // submits in order, then waits on its tickets in submission order.
        let results: Vec<Vec<(usize, Served)>> = std::thread::scope(|scope| {
            let server = &server;
            let handles: Vec<_> = (0..submitters)
                .map(|s| {
                    scope.spawn(move || {
                        let mut state = seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let picks: Vec<usize> = (0..per_submitter)
                            .map(|_| {
                                state = state
                                    .wrapping_mul(6_364_136_223_846_793_005)
                                    .wrapping_add(1_442_695_040_888_963_407);
                                (state >> 33) as usize % fx.inputs.len()
                            })
                            .collect();
                        let tickets: Vec<Ticket> = picks
                            .iter()
                            .map(|&i| server.submit(fx.inputs[i].clone()).unwrap())
                            .collect();
                        picks
                            .into_iter()
                            .zip(tickets)
                            .map(|(i, ticket)| (i, ticket.wait().unwrap()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut total = 0u64;
        for per_thread in results {
            // Exactly one result per ticket.
            prop_assert_eq!(per_thread.len(), per_submitter);
            for (input_index, served) in per_thread {
                total += 1;
                prop_assert!(!served.cache_hit);
                let input = &fx.inputs[input_index];
                let expected = direct(fx, served.tier, input);
                prop_assert_eq!(served.detection, expected);
                prop_assert_eq!(
                    served.detection.score.to_bits(),
                    expected.score.to_bits()
                );
            }
        }

        let stats = server.shutdown();
        prop_assert_eq!(stats.submitted, total);
        prop_assert_eq!(stats.completed, total);
        prop_assert_eq!(stats.failed, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole acceptance: for every `variants::*` escalation program and
    /// shard counts 1..4, the union of shard verdicts is **bit-for-bit**
    /// identical to the unsharded escalation engine, both through the one
    /// tier-2 path (handed to the overlap thread, inline when it is busy).
    #[test]
    fn sharded_escalation_is_bit_for_bit_identical_to_unsharded(
        variant in 0usize..7,
        shards in 1usize..=4,
    ) {
        let fx = fixtures();
        let (_name, full) = &fx.escalations[variant % fx.escalations.len()];
        let shard_set = shard_engines(fx, full, shards);
        // Everything escalates, so every verdict exercises the shards.
        let unsharded = Server::builder(fx.screen.clone())
            .escalate(full.clone(), 0.0, 1.0)
            .workers(2)
            .start()
            .unwrap();
        let sharded = Server::builder(fx.screen.clone())
            .escalate_sharded(shard_set, 0.0, 1.0)
            .workers(2)
            .start()
            .unwrap();

        let baseline: Vec<Ticket> = fx
            .inputs
            .iter()
            .map(|x| unsharded.submit(x.clone()).unwrap())
            .collect();
        let routed: Vec<Ticket> = fx
            .inputs
            .iter()
            .map(|x| sharded.submit(x.clone()).unwrap())
            .collect();
        for (a, b) in baseline.into_iter().zip(routed) {
            let a = a.wait().unwrap();
            let b = b.wait().unwrap();
            prop_assert_eq!(a.tier, b.tier);
            prop_assert_eq!(a.detection, b.detection);
            prop_assert_eq!(a.detection.score.to_bits(), b.detection.score.to_bits());
            prop_assert_eq!(
                a.detection.similarity.to_bits(),
                b.detection.similarity.to_bits()
            );
        }

        let reference = unsharded.shutdown();
        let stats = sharded.shutdown();
        prop_assert_eq!(reference.escalated, fx.inputs.len() as u64);
        prop_assert_eq!(stats.escalated, reference.escalated);
        prop_assert_eq!(stats.shard_escalations.len(), shards);
        prop_assert_eq!(
            stats.shard_escalations.iter().sum::<u64>(),
            stats.escalated
        );
        prop_assert_eq!(stats.pipelined_batches + stats.serial_batches, stats.batches);
        prop_assert_eq!(stats.failed, 0);
    }
}

fn persist_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ptolemy-serve-it-{}-{tag}.json",
        std::process::id()
    ))
}

/// Cache persistence: a restarted server (same engines, same config) replays
/// the warm server's hit/miss behaviour — every request that hit before the
/// restart hits again, with the bit-identical cached verdict.
#[test]
fn persisted_cache_replays_identical_hits_after_restart() {
    let fx = fixtures();
    let path = persist_file("roundtrip");
    let _ = std::fs::remove_file(&path);
    let config = CacheConfig {
        capacity: 256,
        prefix_segments: usize::MAX,
        persist_path: Some(path.clone()),
    };
    let build = || {
        Server::builder(fx.screen.clone())
            .escalate(fx.expensive.clone(), BAND.0, BAND.1)
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap()
    };

    // Run 1: a cold pass populates the cache, a second pass is served from it.
    // Waiting on each ticket keeps the hit/miss sequence deterministic.
    let server = build();
    for input in &fx.inputs {
        server.submit(input.clone()).unwrap().wait().unwrap();
    }
    let warm: Vec<Served> = fx
        .inputs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap().wait().unwrap())
        .collect();
    assert!(warm.iter().all(|served| served.cache_hit));
    let stats = server.shutdown();
    assert!(stats.cache_entries_persisted >= 1);
    assert_eq!(stats.cache_load_rejected, 0);

    // Run 2: the restarted server replays the warm hit/miss sequence.
    let server = build();
    let restarted = server.stats();
    assert_eq!(
        restarted.cache_entries_loaded,
        stats.cache_entries_persisted
    );
    assert_eq!(restarted.cache_load_rejected, 0);
    for (input, warm) in fx.inputs.iter().zip(&warm) {
        let replay = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(replay.cache_hit, warm.cache_hit);
        assert_eq!(replay.tier, warm.tier);
        assert_eq!(replay.detection, warm.detection);
        assert_eq!(
            replay.detection.score.to_bits(),
            warm.detection.score.to_bits()
        );
        assert_eq!(
            replay.detection.similarity.to_bits(),
            warm.detection.similarity.to_bits()
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.cache_hits, fx.inputs.len() as u64);
    assert_eq!(stats.cache_misses, 0);
    let _ = std::fs::remove_file(&path);
}

/// A cache file written under one engine fingerprint must not be replayed by a
/// server built around a different engine: the file is ignored, counted, and
/// serving starts cold.
#[test]
fn persisted_cache_written_by_another_engine_is_ignored() {
    let fx = fixtures();
    let path = persist_file("mismatch");
    let _ = std::fs::remove_file(&path);
    let config = CacheConfig {
        capacity: 64,
        prefix_segments: usize::MAX,
        persist_path: Some(path.clone()),
    };

    // Written by a server screening with the FwAb engine…
    let server = Server::builder(fx.screen.clone())
        .workers(1)
        .cache(config.clone())
        .start()
        .unwrap();
    server.submit(fx.inputs[0].clone()).unwrap().wait().unwrap();
    let stats = server.shutdown();
    assert!(stats.cache_entries_persisted >= 1);

    // …and offered to a server screening with the BwCu engine.
    let server = Server::builder(fx.expensive.clone())
        .workers(1)
        .cache(config)
        .start()
        .unwrap();
    let stats = server.stats();
    assert_eq!(stats.cache_load_rejected, 1);
    assert_eq!(stats.cache_entries_loaded, 0);
    let cold = server.submit(fx.inputs[0].clone()).unwrap().wait().unwrap();
    assert!(!cold.cache_hit, "a mismatched cache must not serve hits");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
