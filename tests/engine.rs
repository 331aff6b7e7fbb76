//! Integration tests of the `DetectionEngine` serving API: batch/single parity
//! across every canned program variant, fingerprint validation at build time,
//! threshold plumbing, and the modelled cost of the program an engine runs.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers and proptest! bodies unwrap; a failure there fails the test"
)]

mod common;

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use ptolemy::accel::{HardwareConfig, Simulator};
use ptolemy::compiler::Compiler;
use ptolemy::core::engine::DEFAULT_THRESHOLD;
use ptolemy::core::{software_cost, variants, DetectionEngine, Profiler};
use ptolemy::prelude::{Attack, Fgsm, Tensor};
use ptolemy::tensor::Rng64;

/// One trained victim plus a calibrated engine per `variants::*` constructor.
struct Fixture {
    engines: Vec<(&'static str, DetectionEngine)>,
    inputs: Vec<Tensor>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (network, dataset) = common::trained_lenet(0xE46);
        let network = Arc::new(network);
        let benign = common::benign_inputs(&dataset);
        let attack = Fgsm::new(0.25);
        let adversarial: Vec<Tensor> = common::correct_samples(&network, &dataset)
            .iter()
            .map(|(x, y)| attack.perturb(&network, x, *y).unwrap().input)
            .collect();

        // One program per canned constructor, covering both directions, both
        // threshold kinds, the hybrid mix and both selective-extraction modes.
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
                    .build()
                    .unwrap();
                (name, engine)
            })
            .collect();

        let mut inputs = benign;
        inputs.extend(adversarial);
        Fixture { engines, inputs }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `detect_batch(xs)?[i]` is bit-for-bit identical to `detect(&xs[i])?` for
    /// programs from every `variants::*` constructor, for batches mixing real
    /// test inputs with arbitrary finite tensors.
    #[test]
    fn detect_batch_matches_detect_bit_for_bit(
        seed in 0u64..10_000,
        batch_len in 1usize..8,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let mut rng = Rng64::new(seed);
        for (name, engine) in &fx.engines {
            let mut batch: Vec<Tensor> = (0..batch_len)
                .map(|_| fx.inputs[rng.below(fx.inputs.len())].clone())
                .collect();
            // One arbitrary (not dataset-drawn) input per batch.
            batch.push(Tensor::from_vec(
                (0..3 * 8 * 8).map(|_| scale * rng.normal()).collect(),
                &[3, 8, 8],
            ).unwrap());

            let batched = engine.detect_batch(&batch).unwrap();
            prop_assert_eq!(batched.len(), batch.len());
            for (input, b) in batch.iter().zip(&batched) {
                let single = engine.detect(input).unwrap();
                prop_assert!(
                    b.score.to_bits() == single.score.to_bits()
                        && b.similarity.to_bits() == single.similarity.to_bits()
                        && b.is_adversary == single.is_adversary
                        && b.predicted_class == single.predicted_class,
                    "variant {}: batch {:?} != single {:?}",
                    name,
                    b,
                    single
                );
            }
        }
    }
}

#[test]
fn builder_rejects_mismatched_fingerprints_at_construction() {
    let (network, dataset) = common::trained_lenet(0xF16);
    let network = Arc::new(network);
    let program = variants::bw_cu(&network, 0.5).unwrap();
    let class_paths = Profiler::new(program.clone())
        .profile(&network, dataset.train())
        .unwrap();

    // Same-constructor, different-parameter program: fingerprints differ.
    let other_theta = variants::bw_cu(&network, 0.7).unwrap();
    assert!(
        DetectionEngine::builder(network.clone(), other_theta, class_paths.clone())
            .build()
            .is_err()
    );
    // Different-direction program.
    let other_direction = variants::fw_ab(&network, 0.05).unwrap();
    assert!(
        DetectionEngine::builder(network.clone(), other_direction, class_paths.clone())
            .build()
            .is_err()
    );
    // The matching program builds fine.
    assert!(DetectionEngine::builder(network, program, class_paths)
        .build()
        .is_ok());
}

#[test]
fn builder_rejects_class_paths_from_a_different_network() {
    // Two networks with identical program fingerprints (same direction,
    // thresholds and weight-layer count) but different feature-map sizes: the
    // fingerprint alone cannot tell them apart, so the builder must compare
    // the canary-path layout structurally.
    let mut rng = ptolemy::tensor::Rng64::new(0x1A1);
    let small = ptolemy::nn::zoo::mlp_net(&[8], 2, &mut rng).unwrap();
    let large = Arc::new(ptolemy::nn::zoo::mlp_net(&[16], 2, &mut rng).unwrap());

    let small_program = variants::bw_cu(&small, 0.5).unwrap();
    let large_program = variants::bw_cu(&large, 0.5).unwrap();
    assert_eq!(small_program.fingerprint(), large_program.fingerprint());

    let samples: Vec<(Tensor, usize)> = (0..8)
        .map(|i| (Tensor::full(&[8], (i % 2) as f32), i % 2))
        .collect();
    let small_paths = Profiler::new(small_program)
        .profile(&small, &samples)
        .unwrap();

    let err = DetectionEngine::builder(large, large_program, small_paths).build();
    assert!(
        err.is_err(),
        "class paths profiled on a different network must be rejected at build"
    );
}

#[test]
fn accel_backend_prices_batches_on_the_same_call_path() {
    let (network, dataset) = common::trained_lenet(0xACC);
    let network = Arc::new(network);
    let benign = common::benign_inputs(&dataset);
    let attack = Fgsm::new(0.25);
    let adversarial: Vec<Tensor> = common::correct_samples(&network, &dataset)
        .iter()
        .map(|(x, y)| attack.perturb(&network, x, *y).unwrap().input)
        .collect();

    let program = variants::fw_ab(&network, 0.05).unwrap();
    let class_paths = Profiler::new(program.clone())
        .profile(&network, dataset.train())
        .unwrap();

    let engine = DetectionEngine::builder(network, program, class_paths)
        .calibrate(&benign, &adversarial)
        .build()
        .unwrap();

    // Serving the batch with its paths yields the same verdicts as detect_batch...
    let served: Vec<_> = engine
        .detect_batch_with_paths(&benign)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    let verdicts: Vec<_> = served.iter().map(|(d, _)| *d).collect();
    assert_eq!(verdicts, engine.detect_batch(&benign).unwrap());

    // ...and the paths' measured density prices the engine's own program on
    // the hardware model and in the software cost model.
    let density = served.iter().map(|(_, path)| path.density()).sum::<f32>() / served.len() as f32;
    let compiled = Compiler::default()
        .compile(engine.network(), engine.program())
        .unwrap();
    let report = Simulator::new(HardwareConfig::default())
        .unwrap()
        .simulate(engine.network(), &compiled, density)
        .unwrap();
    assert!(report.latency_factor() >= 1.0);
    assert!(report.total_energy_pj > 0.0);
    let software = software_cost(engine.network(), engine.program(), density).unwrap();
    assert!(software.inference_macs > 0);
}

#[test]
fn threshold_knob_is_respected_end_to_end() {
    let (network, dataset) = common::trained_lenet(0x7BE);
    let network = Arc::new(network);
    let benign = common::benign_inputs(&dataset);
    let attack = Fgsm::new(0.25);
    let adversarial: Vec<Tensor> = common::correct_samples(&network, &dataset)
        .iter()
        .map(|(x, y)| attack.perturb(&network, x, *y).unwrap().input)
        .collect();
    let program = variants::fw_ab(&network, 0.05).unwrap();
    let class_paths = Profiler::new(program.clone())
        .profile(&network, dataset.train())
        .unwrap();

    for threshold in [0.0f32, 0.25, DEFAULT_THRESHOLD, 0.75, 1.0] {
        let engine =
            DetectionEngine::builder(network.clone(), program.clone(), class_paths.clone())
                .threshold(threshold)
                .calibrate(&benign, &adversarial)
                .build()
                .unwrap();
        assert_eq!(engine.threshold(), threshold);
        for verdict in engine.detect_batch(&benign).unwrap() {
            assert_eq!(verdict.is_adversary, verdict.score >= threshold);
        }
    }
}
