//! Property-based parity suite for the streaming extraction pipeline: across
//! every `variants::*` program (both directions, both threshold kinds, early
//! termination and late start) and batch sizes 1..8, the streamed pipeline —
//! masks computed while the forward pass runs, activations dropped eagerly —
//! must be **bit-for-bit identical** to the materialized trace-then-extract
//! pipeline: same paths, same similarities/scores, same detect verdicts —
//! whichever forward provider (f32 or int8) produced the activations.
//! The suite also pins the memory guarantee: the streamed peak resident
//! activation bytes stay strictly below what the materialized trace holds.

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use ptolemy::core::{
    extract_path, extract_path_streaming, extract_paths_streaming_batch, variants, DetectionEngine,
    DetectionProgram, Profiler,
};
use ptolemy::nn::Network;
use ptolemy::prelude::{Attack, Fgsm, Tensor};
use ptolemy::tensor::parallel::with_forced_width;
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
        let (network, dataset) = common::trained_lenet(0x57E4);
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

/// The retired pipeline the streamed one must reproduce exactly: materialize
/// the full trace, extract after the fact.
fn materialized_path(
    network: &Network,
    program: &DetectionProgram,
    input: &Tensor,
) -> (usize, ptolemy::core::ActivationPath) {
    let trace = network.forward_trace(input).unwrap();
    let predicted = trace.predicted_class().unwrap();
    let path = extract_path(network, &trace, program).unwrap();
    (predicted, path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streamed single-input and fused-batch extraction produce bit-for-bit
    /// the materialized pipeline's paths and predicted classes, for every
    /// `variants::*` program and batch sizes 1..8.
    #[test]
    fn streamed_extraction_matches_materialized_bit_for_bit(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        for (name, engine) in &fx.engines {
            let program = engine.program();

            // Fused-batch streaming vs per-sample materialized slices.
            let streamed = extract_paths_streaming_batch(&fx.network, program, &inputs).unwrap();
            prop_assert_eq!(streamed.samples.len(), inputs.len());
            let stacked = common::Stacked::record(fx.network.as_ref(), &inputs);
            for (b, input) in inputs.iter().enumerate() {
                let (expected_class, expected_path) =
                    materialized_path(&fx.network, program, input);
                let (streamed_class, streamed_path) = &streamed.samples[b];
                prop_assert!(
                    *streamed_class == expected_class,
                    "variant {}: predicted class diverged for sample {}",
                    name,
                    b
                );
                prop_assert!(
                    streamed_path == &expected_path,
                    "variant {}: streamed batch path diverged for sample {}",
                    name,
                    b
                );

                // Single-input streaming (the batch of one) agrees too.
                let single = extract_path_streaming(&fx.network, program, input).unwrap();
                prop_assert_eq!(single.predicted_class, expected_class);
                prop_assert_eq!(&single.path, &expected_path);
            }

            // Precision is an argument: the int8 provider streams through the
            // same sinks, so its (class, path) is the materialized pipeline's
            // over a boundaries-only trace of the same int8 boundaries.
            let qnet = engine.quantized_network().expect("quantized fixture");
            for (input, served) in inputs.iter().zip(engine.detect_batch_on(qnet, &inputs)) {
                let (detection, path) = served.unwrap();
                let trace = common::Stacked::record(qnet, std::slice::from_ref(input)).trace(0);
                prop_assert!(
                    detection.predicted_class == trace.predicted_class().unwrap()
                        && path == extract_path(&fx.network, &trace, program).unwrap(),
                    "variant {}: streamed int8 extraction diverged",
                    name
                );
            }

            // The hoisted split: however many contiguous sub-batches the
            // batch fans out into, every sample is the same bits, and the
            // sub-batches together retain what the single pass retains.
            for width in [2usize, 3] {
                let fanned = with_forced_width(width, || {
                    extract_paths_streaming_batch(&fx.network, program, &inputs)
                })
                .unwrap();
                prop_assert!(
                    fanned.samples == streamed.samples,
                    "variant {}: width {} changed a streamed sample",
                    name,
                    width
                );
                prop_assert_eq!(fanned.footprint, streamed.footprint);

                // A mis-shaped input fails the whole streamed batch at every
                // width (per-input granularity is the engine's fallback).
                let mut misfit = inputs.clone();
                misfit.insert(len / 2, Tensor::full(&[5], 0.1));
                let failed = with_forced_width(width, || {
                    extract_paths_streaming_batch(&fx.network, program, &misfit)
                });
                prop_assert!(failed.is_err(), "variant {}: misfit served", name);
            }

            // Memory guarantee: the streamed pipeline never holds the full
            // trace (every variant retains at most a strict subset).
            prop_assert!(
                streamed.footprint.peak_streamed_bytes < stacked.bytes(),
                "variant {}: streamed peak {} >= materialized {}",
                name,
                streamed.footprint.peak_streamed_bytes,
                stacked.bytes()
            );
        }
    }

    /// Detect verdicts served through the streamed engine (single and fused
    /// batch) are bit-for-bit what the materialized pipeline scores: the
    /// similarity comes from an identical path, so the forest score and the
    /// verdict match exactly.
    #[test]
    fn streamed_detect_matches_materialized_scoring(
        seed in 0u64..10_000,
        len in 1usize..=8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        for (name, engine) in &fx.engines {
            let batched = engine.detect_batch(&inputs).unwrap();
            prop_assert_eq!(batched.len(), inputs.len());
            for (input, served) in inputs.iter().zip(&batched) {
                let (expected_class, expected_path) =
                    materialized_path(&fx.network, engine.program(), input);
                let similarity = expected_path
                    .similarity(engine.class_paths().class_path(expected_class).unwrap())
                    .unwrap();
                let score = engine
                    .forest()
                    .expect("calibrated engine")
                    .predict_proba(&[similarity])
                    .unwrap();
                prop_assert!(
                    served.predicted_class == expected_class,
                    "variant {}: class diverged",
                    name
                );
                prop_assert!(
                    served.similarity.to_bits() == similarity.to_bits(),
                    "variant {}: similarity diverged",
                    name
                );
                prop_assert!(
                    served.score.to_bits() == score.to_bits(),
                    "variant {}: score diverged",
                    name
                );
                prop_assert_eq!(served.is_adversary, score >= engine.threshold());

                // The single-input engine path agrees with the fused batch.
                let single = engine.detect(input).unwrap();
                prop_assert_eq!(single.score.to_bits(), served.score.to_bits());
                prop_assert_eq!(
                    single.similarity.to_bits(),
                    served.similarity.to_bits()
                );
            }
        }
    }
}
