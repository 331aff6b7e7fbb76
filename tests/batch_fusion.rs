//! Property-based parity suite for the fused NCHW batch pipeline: across every
//! `variants::*` program and batch sizes 1..8, `forward_batch`,
//! `forward_trace_batch` and the fused `detect_batch` must be **bit-for-bit
//! identical** to the per-input path — each output column depends only on its
//! own input column, and every fused kernel preserves the per-input reduction
//! order.  The same holds for the hoisted fan-out: however many contiguous
//! sub-batches a batch is split into, every fused and quantized batch entry
//! point returns the bits it returns on one thread.

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use ptolemy::core::{variants, ActivationPath, CoreError, Detection, DetectionEngine, Profiler};
use ptolemy::nn::Network;
use ptolemy::prelude::{Attack, Fgsm, Tensor};
use ptolemy::tensor::parallel::{helpers_spawned, with_forced_width};
use ptolemy::tensor::Rng64;

/// One trained victim plus a calibrated engine per `variants::*` constructor.
struct Fixture {
    network: Arc<Network>,
    engines: Vec<(&'static str, DetectionEngine)>,
    inputs: Vec<Tensor>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (network, dataset) = common::trained_lenet(0xBF5);
        let network = Arc::new(network);
        let benign = common::benign_inputs(&dataset);
        let attack = Fgsm::new(0.25);
        let adversarial: Vec<Tensor> = common::correct_samples(&network, &dataset)
            .iter()
            .map(|(x, y)| attack.perturb(&network, x, *y).unwrap().input)
            .collect();

        // Every canned program constructor: both directions, both threshold
        // kinds, the hybrid mix and both selective-extraction modes.
        let programs = vec![
            ("bw_cu", variants::bw_cu(&network, 0.5).unwrap()),
            ("bw_ab", variants::bw_ab(&network, 0.2).unwrap()),
            ("fw_ab", variants::fw_ab(&network, 0.05).unwrap()),
            ("fw_cu", variants::fw_cu(&network, 0.5).unwrap()),
            ("hybrid", variants::hybrid(&network, 0.2, 0.5).unwrap()),
            (
                "bw_cu_early_termination",
                variants::bw_cu_early_termination(&network, 0.5, 2).unwrap(),
            ),
            (
                "fw_ab_late_start",
                variants::fw_ab_late_start(&network, 0.05, 1).unwrap(),
            ),
        ];
        let engines = programs
            .into_iter()
            .map(|(name, program)| {
                let class_paths = Profiler::new(program.clone())
                    .profile(&network, dataset.train())
                    .unwrap();
                let engine = DetectionEngine::builder(network.clone(), program, class_paths)
                    .calibrate(&benign, &adversarial)
                    .quantized(&benign)
                    .build()
                    .unwrap();
                (name, engine)
            })
            .collect();

        let mut inputs = benign;
        inputs.extend(adversarial);
        Fixture {
            network,
            engines,
            inputs,
        }
    })
}

/// A batch of 1..=8 inputs mixing dataset draws with one arbitrary tensor.
fn batch(seed: u64, len: usize, scale: f32) -> Vec<Tensor> {
    let fx = fixture();
    let mut rng = Rng64::new(seed);
    let mut batch: Vec<Tensor> = (0..len.saturating_sub(1))
        .map(|_| fx.inputs[rng.below(fx.inputs.len())].clone())
        .collect();
    batch.push(
        Tensor::from_vec(
            (0..3 * 8 * 8).map(|_| scale * rng.normal()).collect(),
            &[3, 8, 8],
        )
        .unwrap(),
    );
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `forward_batch` row `b` is bit-for-bit `forward(&xs[b])`, and every
    /// layer activation of `forward_trace_batch(..).trace(b)` is bit-for-bit
    /// the per-input `forward_trace` — for batch sizes 1..8.
    #[test]
    fn fused_forward_and_trace_match_per_input_bit_for_bit(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);

        let logits = fx.network.forward_batch(&inputs).unwrap();
        let batch_trace = fx.network.forward_trace_batch(&inputs).unwrap();
        prop_assert_eq!(batch_trace.batch_size(), inputs.len());
        prop_assert_eq!(batch_trace.num_layers(), fx.network.num_layers());

        for (b, input) in inputs.iter().enumerate() {
            let single_logits = fx.network.forward(input).unwrap();
            let fused_logits = logits.slice_batch(b).unwrap();
            prop_assert!(
                fused_logits
                    .as_slice()
                    .iter()
                    .zip(single_logits.as_slice())
                    .all(|(f, s)| f.to_bits() == s.to_bits()),
                "forward_batch row {} diverged from forward",
                b
            );

            let single = fx.network.forward_trace(input).unwrap();
            let sliced = batch_trace.trace(b).unwrap();
            for layer in 0..single.num_layers() {
                let outputs_match = sliced
                    .output(layer)
                    .as_slice()
                    .iter()
                    .zip(single.output(layer).as_slice())
                    .all(|(f, s)| f.to_bits() == s.to_bits());
                let inputs_match = sliced
                    .input(layer)
                    .as_slice()
                    .iter()
                    .zip(single.input(layer).as_slice())
                    .all(|(f, s)| f.to_bits() == s.to_bits());
                prop_assert!(
                    outputs_match && inputs_match,
                    "fused trace layer {} of sample {} diverged",
                    layer,
                    b
                );
            }
        }
    }

    /// Fused `detect_batch` (and `detect_batch_with_paths`) verdicts are
    /// bit-for-bit identical to per-input `detect` for every `variants::*`
    /// program and batch sizes 1..8.
    #[test]
    fn fused_detect_batch_matches_detect_bit_for_bit(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        for (name, engine) in &fx.engines {
            let batched = engine.detect_batch(&inputs).unwrap();
            let with_paths = engine.detect_batch_with_paths(&inputs);
            prop_assert_eq!(batched.len(), inputs.len());
            prop_assert_eq!(with_paths.len(), inputs.len());
            for ((input, b), traced) in inputs.iter().zip(&batched).zip(with_paths) {
                let single = engine.detect(input).unwrap();
                prop_assert!(
                    b.score.to_bits() == single.score.to_bits()
                        && b.similarity.to_bits() == single.similarity.to_bits()
                        && b.is_adversary == single.is_adversary
                        && b.predicted_class == single.predicted_class,
                    "variant {}: fused batch {:?} != single {:?}",
                    name,
                    b,
                    single
                );
                // The with-paths surface agrees and its path reproduces the
                // per-input extraction (same prefix fingerprint at any depth).
                let (detection, path) = traced.unwrap();
                prop_assert_eq!(&detection, b);
                let (_, single_path) = engine.detect_with_path(input).unwrap();
                prop_assert_eq!(
                    path.prefix_fingerprint(usize::MAX),
                    single_path.prefix_fingerprint(usize::MAX)
                );
            }
        }
    }
}

/// Widths the hoisted split is pinned at: one thread, the two-way split a
/// 2-core box takes, and an odd width that leaves ragged sub-batches.
const WIDTHS: [usize; 3] = [1, 2, 3];

type Traced = Vec<Result<(Detection, ActivationPath), CoreError>>;

/// `true` if two with-paths results agree bit for bit: same verdict bits and
/// same path where both served, an error in the same slot otherwise.
fn same_results(left: &Traced, right: &Traced) -> bool {
    left.len() == right.len()
        && left.iter().zip(right).all(|pair| match pair {
            (Ok((a, path_a)), Ok((b, path_b))) => {
                a.score.to_bits() == b.score.to_bits()
                    && a.similarity.to_bits() == b.similarity.to_bits()
                    && a.is_adversary == b.is_adversary
                    && a.predicted_class == b.predicted_class
                    && path_a == path_b
            }
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Splitting a batch into contiguous sub-batches over helper threads
    /// changes scheduling only: `detect_batch`, `detect_batch_with_paths` and
    /// the `detect_batch_quantized*` family return the same bits at width 1
    /// and width N for every `variants::*` program and batch sizes 1..8 —
    /// on the fused path and on the per-input fallback a mis-shaped input
    /// forces.
    #[test]
    fn hoisted_split_is_bit_identical_at_every_width(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let well_shaped = batch(seed, len, scale);
        let mut with_misfit = well_shaped.clone();
        with_misfit.insert(len / 2, Tensor::full(&[5], 0.1));
        for (name, engine) in &fx.engines {
            for inputs in [&well_shaped, &with_misfit] {
                let serial = with_forced_width(1, || engine.detect_batch_with_paths(inputs));
                let serial_q =
                    with_forced_width(1, || engine.detect_batch_quantized_with_paths(inputs));
                for width in WIDTHS {
                    let spawned = helpers_spawned();
                    let fanned =
                        with_forced_width(width, || engine.detect_batch_with_paths(inputs));
                    prop_assert!(
                        same_results(&serial, &fanned),
                        "variant {}: detect_batch_with_paths diverged at width {}",
                        name,
                        width
                    );
                    // The width is real: a forced split of 2+ inputs spawns.
                    prop_assert!(
                        width == 1 || inputs.len() == 1 || helpers_spawned() > spawned,
                        "width {} never fanned out",
                        width
                    );
                    let fanned_q = with_forced_width(width, || {
                        engine.detect_batch_quantized_with_paths(inputs)
                    });
                    prop_assert!(
                        same_results(&serial_q, &fanned_q),
                        "variant {}: detect_batch_quantized_with_paths diverged at width {}",
                        name,
                        width
                    );

                    // The verdict-only surfaces are the same calls minus the
                    // paths: same verdicts, or the same first error.
                    let verdicts = with_forced_width(width, || engine.detect_batch(inputs));
                    let verdicts_q =
                        with_forced_width(width, || engine.detect_batch_quantized(inputs));
                    for (traced, verdicts) in [(&serial, verdicts), (&serial_q, verdicts_q)] {
                        match verdicts {
                            Ok(verdicts) => {
                                prop_assert_eq!(verdicts.len(), traced.len());
                                for (verdict, traced) in verdicts.iter().zip(traced) {
                                    let (expected, _) = traced.as_ref().unwrap();
                                    prop_assert_eq!(
                                        verdict.score.to_bits(),
                                        expected.score.to_bits()
                                    );
                                    prop_assert_eq!(verdict, expected);
                                }
                            }
                            Err(_) => prop_assert!(traced.iter().any(Result::is_err)),
                        }
                    }
                }
            }
        }
    }
}

/// One mis-shaped input fails alone through the fused batch surface; the rest
/// of the batch still serves.
#[test]
fn fused_batch_keeps_per_input_error_granularity() {
    let fx = fixture();
    let (_, engine) = &fx.engines[0];
    let mut inputs = batch(7, 3, 0.5);
    inputs.insert(1, Tensor::full(&[5], 0.1)); // wrong shape for the 3x8x8 net
    let results = engine.detect_batch_with_paths(&inputs);
    assert_eq!(results.len(), 4);
    assert!(results[1].is_err(), "mis-shaped input must fail alone");
    for (i, result) in results.iter().enumerate() {
        if i != 1 {
            let (detection, _) = result.as_ref().unwrap();
            let single = engine.detect(&inputs[i]).unwrap();
            assert_eq!(detection.score.to_bits(), single.score.to_bits());
        }
    }
    // The all-or-nothing surface reports the first error.
    assert!(engine.detect_batch(&inputs).is_err());
}
