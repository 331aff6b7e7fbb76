//! Property-based parity suite for the fused NCHW batch pipeline: across every
//! `variants::*` program and batch sizes 1..8, `forward_batch`, every stacked
//! boundary of the fused pass and the fused `detect_batch` must be
//! **bit-for-bit identical** to the per-input path — each output column
//! depends only on its own input column, and every fused kernel preserves the
//! per-input reduction order.  The same holds for the hoisted fan-out: however many contiguous
//! sub-batches a batch is split into, the batched detect entry returns the
//! bits it returns on one thread, whichever forward provider (f32 or int8)
//! runs the pass.
//!
//! Two properties ride along because the single-sample pass *is* the fused
//! kernel at batch 1: the pooling layers' one kernel is pinned against the
//! window definition (strides off the window size, `-inf`/`NaN` inside
//! windows), and a training step must drop the packed weight panels a
//! convolution cached for its previous weights.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers and proptest! bodies unwrap; a failure there fails the test"
)]

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ptolemy::core::{variants, ActivationPath, CoreError, Detection, DetectionEngine, Profiler};
use ptolemy::nn::layer::{AvgPool2d, MaxPool2d};
use ptolemy::nn::{zoo, ForwardProvider, Layer, Network, NnError};
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

    /// `forward_batch` row `b` is bit-for-bit `forward(&xs[b])`, and slice
    /// `b` of every stacked boundary of the fused pass is bit-for-bit the
    /// per-input `forward_trace` — for batch sizes 1..8.
    #[test]
    fn fused_forward_and_trace_match_per_input_bit_for_bit(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);

        let logits = fx.network.forward_batch(&inputs).unwrap();
        let stacked = common::Stacked::record(fx.network.as_ref(), &inputs);
        prop_assert_eq!(stacked.boundaries[0].dims()[0], inputs.len());
        prop_assert_eq!(stacked.boundaries.len(), fx.network.num_layers() + 1);

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
            let sliced = stacked.trace(b);
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

/// Bit equality, with any NaN equal to any other: which of two NaN payloads
/// an addition propagates depends on operand order, which the compiler is
/// free to pick per call site.
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both pooling layers run one kernel: `forward(x)` is bit-for-bit sample
    /// 0 of `forward_batch([x])` and slab `b` of any batch, and both are the
    /// window definition — each window folded `wy` outer, `wx` inner from
    /// `-inf` (max, `f32::max`) or `0.0` (average, then `/ window²`) — for
    /// windows 1..=3 at strides 1..=3 (overlapping, exact and gapped tilings)
    /// over inputs that put `-inf`, `+inf` and `NaN` inside windows.
    #[test]
    fn pooling_single_sample_is_the_fused_kernel_and_the_window_definition(
        channels in 1usize..4,
        window in 1usize..4,
        stride in 1usize..4,
        extra_h in 0usize..6,
        extra_w in 0usize..6,
        len in 1usize..=5,
        non_finite_every in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let (in_h, in_w) = (window + extra_h, window + extra_w);
        let (out_h, out_w) = ((in_h - window) / stride + 1, (in_w - window) / stride + 1);
        let mut rng = Rng64::new(seed);
        let palette = [f32::NEG_INFINITY, f32::NAN, f32::INFINITY, -0.0];
        let samples: Vec<Tensor> = (0..len)
            .map(|_| {
                let data = (0..channels * in_h * in_w)
                    .map(|i| {
                        if non_finite_every > 0 && i % (3 * non_finite_every + 2) == 1 {
                            palette[rng.below(palette.len())]
                        } else {
                            rng.normal()
                        }
                    })
                    .collect();
                Tensor::from_vec(data, &[channels, in_h, in_w]).unwrap()
            })
            .collect();
        let stacked = Tensor::stack(&samples).unwrap();
        let norm = (window * window) as f32;
        type Fold = fn(f32, f32) -> f32;
        let layers: [(Box<dyn Layer>, f32, Fold, f32); 2] = [
            (
                Box::new(MaxPool2d::new(channels, in_h, in_w, window, stride).unwrap()),
                f32::NEG_INFINITY,
                f32::max,
                1.0,
            ),
            (
                Box::new(AvgPool2d::new(channels, in_h, in_w, window, stride).unwrap()),
                0.0,
                |acc, v| acc + v,
                norm,
            ),
        ];
        for (layer, init, fold, divisor) in &layers {
            let fused = layer.forward_batch(&stacked).unwrap();
            prop_assert_eq!(fused.dims(), &[len, channels, out_h, out_w][..]);
            for (b, sample) in samples.iter().enumerate() {
                let single = layer.forward(sample).unwrap();
                prop_assert_eq!(single.dims(), &[channels, out_h, out_w][..]);
                let alone = layer
                    .forward_batch(&Tensor::stack(std::slice::from_ref(sample)).unwrap())
                    .unwrap();
                let slab = fused.slice_batch(b).unwrap();
                let x = sample.as_slice();
                for (i, value) in single.as_slice().iter().enumerate() {
                    prop_assert_eq!(value.to_bits(), alone.as_slice()[i].to_bits());
                    prop_assert_eq!(value.to_bits(), slab.as_slice()[i].to_bits());
                    let (c, oy, ox) = (i / (out_h * out_w), i / out_w % out_h, i % out_w);
                    let mut acc = *init;
                    for wy in 0..window {
                        for wx in 0..window {
                            let at = (c * in_h + oy * stride + wy) * in_w + ox * stride + wx;
                            acc = fold(acc, x[at]);
                        }
                    }
                    prop_assert!(
                        same_value(*value, acc / divisor),
                        "{} output {} of sample {}: {} vs definition {}",
                        layer.name(),
                        i,
                        b,
                        value,
                        acc / divisor
                    );
                }
            }
        }
    }
}

/// A convolution packs its weights into micro-panels on its first forward pass
/// and keeps them; a training step rewrites the weights underneath.  After one
/// `apply_gradients` the warm network (panels packed for the old weights, by
/// single-sample *and* fused passes) must compute exactly what a network that
/// never ran a forward before receiving the same weights computes — a stale
/// panel passes every other parity test, because every other test compares a
/// network with itself.  Convolutions inside residual bodies are reached
/// through `Residual::params_mut`.
#[test]
fn a_training_step_drops_the_packed_weight_panels() {
    type Build = fn(usize, &mut Rng64) -> ptolemy::nn::Result<Network>;
    let builders: [(&str, Build); 2] = [
        ("conv_net", zoo::conv_net),
        ("resnet_mini", zoo::resnet_mini),
    ];
    for (name, build) in builders {
        let mut warm = build(4, &mut Rng64::new(0x5EED)).unwrap();
        let mut cold = build(4, &mut Rng64::new(0x5EED)).unwrap();
        let shape = warm.input_shape().to_vec();
        let mut rng = Rng64::new(9);
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| {
                let data = (0..shape.iter().product()).map(|_| rng.normal()).collect();
                Tensor::from_vec(data, &shape).unwrap()
            })
            .collect();

        // Warm every conv's panels through both entry points.
        let before = warm.forward(&inputs[0]).unwrap();
        warm.forward_batch(&inputs).unwrap();
        // Any step rewrites the weights under the packed panels; this one
        // nudges each parameter by a function of itself, the same step for
        // both networks.
        let grads: Vec<Vec<Tensor>> = warm
            .layers()
            .map(|layer| {
                let params = layer.params();
                params.iter().map(|p| p.map(|v| 0.5 * v + 0.01)).collect()
            })
            .collect();
        warm.apply_gradients(&grads, 0.05).unwrap();
        cold.apply_gradients(&grads, 0.05).unwrap();

        let after = warm.forward(&inputs[0]).unwrap();
        assert!(
            before
                .as_slice()
                .iter()
                .zip(after.as_slice())
                .any(|(b, a)| b.to_bits() != a.to_bits()),
            "{name}: the step changed no logit, so it would not expose a stale panel"
        );
        let warm_batch = warm.forward_batch(&inputs).unwrap();
        let cold_batch = cold.forward_batch(&inputs).unwrap();
        for (b, input) in inputs.iter().enumerate() {
            let warm_logits = warm.forward(input).unwrap();
            let cold_logits = cold.forward(input).unwrap();
            for (i, (w, c)) in warm_logits
                .as_slice()
                .iter()
                .zip(cold_logits.as_slice())
                .enumerate()
            {
                assert_eq!(
                    w.to_bits(),
                    c.to_bits(),
                    "{name}: forward logit {i} of input {b}"
                );
                let slab = b * warm_logits.len() + i;
                assert_eq!(w.to_bits(), warm_batch.as_slice()[slab].to_bits());
                assert_eq!(w.to_bits(), cold_batch.as_slice()[slab].to_bits());
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

/// `engine.detect_batch_on(provider, inputs)` returns the same bits at every
/// width as on one thread — and a forced split of 2+ inputs really spawns.
fn split_changes_no_bit<P: ForwardProvider>(
    name: &str,
    engine: &DetectionEngine,
    provider: &P,
    inputs: &[Tensor],
) -> Result<Traced, TestCaseError> {
    let serial = with_forced_width(1, || engine.detect_batch_on(provider, inputs));
    for width in WIDTHS {
        let spawned = helpers_spawned();
        let fanned = with_forced_width(width, || engine.detect_batch_on(provider, inputs));
        prop_assert!(
            same_results(&serial, &fanned),
            "variant {}: detect_batch_on diverged at width {}",
            name,
            width
        );
        prop_assert!(
            width == 1 || inputs.len() == 1 || helpers_spawned() > spawned,
            "width {} never fanned out",
            width
        );
    }
    Ok(serial)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Splitting a batch into contiguous sub-batches over helper threads
    /// changes scheduling only: the one batched entry, under the f32 and the
    /// int8 provider alike, and the f32 adapters over it (`detect_batch`,
    /// `detect_batch_with_paths`) return the same bits at width 1 and width N
    /// for every `variants::*` program and batch sizes 1..8 — on the fused
    /// path and on the per-input fallback a mis-shaped input forces.
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
            let qnet = engine.quantized_network().expect("fixture engines are quantized");
            for inputs in [&well_shaped, &with_misfit] {
                let serial = split_changes_no_bit(name, engine, fx.network.as_ref(), inputs)?;
                let serial_q = split_changes_no_bit(name, engine, qnet, inputs)?;
                // Slice `b` of the int8 batch is the single int8 detect.
                for (input, traced) in inputs.iter().zip(&serial_q) {
                    match (traced, engine.detect_quantized(input)) {
                        (Ok((batched, _)), Ok(single)) => {
                            prop_assert_eq!(batched.score.to_bits(), single.score.to_bits());
                            prop_assert_eq!(batched, &single);
                        }
                        (Err(_), Err(_)) => {}
                        (batched, single) => prop_assert!(
                            false,
                            "variant {}: batched {:?} but single {:?}",
                            name,
                            batched,
                            single
                        ),
                    }
                }
                for width in WIDTHS {
                    // The f32 adapters are the same call: with the paths, or
                    // the verdicts alone with the first error winning.
                    let with_paths =
                        with_forced_width(width, || engine.detect_batch_with_paths(inputs));
                    prop_assert!(same_results(&serial, &with_paths));
                    match with_forced_width(width, || engine.detect_batch(inputs)) {
                        Ok(verdicts) => {
                            prop_assert_eq!(verdicts.len(), serial.len());
                            for (verdict, traced) in verdicts.iter().zip(&serial) {
                                let (expected, _) = traced.as_ref().unwrap();
                                prop_assert_eq!(
                                    verdict.score.to_bits(),
                                    expected.score.to_bits()
                                );
                                prop_assert_eq!(verdict, expected);
                            }
                        }
                        Err(_) => prop_assert!(serial.iter().any(Result::is_err)),
                    }
                }
            }
        }
    }
}

/// One mis-shaped input and one NaN input each fail alone through the fused
/// batch surface, the NaN one with the typed non-finite error at the input
/// boundary; the rest of the batch still serves.
#[test]
fn fused_batch_keeps_per_input_error_granularity() {
    let fx = fixture();
    let (_, engine) = &fx.engines[0];
    let mut inputs = batch(7, 3, 0.5);
    inputs.insert(1, Tensor::full(&[5], 0.1)); // wrong shape for the 3x8x8 net
    let mut poisoned = inputs[2].clone();
    poisoned.as_mut_slice()[17] = f32::NAN;
    inputs.insert(3, poisoned);
    let results = engine.detect_batch_with_paths(&inputs);
    assert_eq!(results.len(), 5);
    assert!(results[1].is_err(), "mis-shaped input must fail alone");
    assert_eq!(
        results[3].as_ref().unwrap_err(),
        &CoreError::Nn(NnError::NonFinite { boundary: 0 })
    );
    for (i, result) in results.iter().enumerate() {
        if i != 1 && i != 3 {
            let (detection, _) = result.as_ref().unwrap();
            let single = engine.detect(&inputs[i]).unwrap();
            assert_eq!(detection.score.to_bits(), single.score.to_bits());
        }
    }
    // The all-or-nothing surface reports the first error.
    assert!(engine.detect_batch(&inputs).is_err());
}
