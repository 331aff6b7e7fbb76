//! Cross-crate property-based tests: invariants of the detection pipeline that must
//! hold for arbitrary inputs and parameter settings, not just the hand-picked ones
//! used elsewhere.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers and proptest! bodies unwrap; a failure there fails the test"
)]

mod common;

use proptest::prelude::*;
use ptolemy::core::{path_similarity, variants, Profiler};
use ptolemy::forest::auc;
use ptolemy::nn::{zoo, Network};
use ptolemy::tensor::{Rng64, Tensor};

fn small_network() -> Network {
    zoo::lenet(3, 4, &mut Rng64::new(0xB0B)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Path similarity is always in [0, 1] and the extracted path is never empty for
    /// any finite input, for both extraction directions.
    #[test]
    fn path_similarity_is_bounded_for_arbitrary_inputs(
        seed in 0u64..1_000,
        theta in 0.1f32..0.95,
        scale in 0.1f32..3.0,
    ) {
        let network = small_network();
        let mut rng = Rng64::new(seed);
        let input = Tensor::from_vec(
            (0..3 * 8 * 8).map(|_| scale * rng.normal()).collect(),
            &[3, 8, 8],
        ).unwrap();

        for program in [
            variants::bw_cu(&network, theta).unwrap(),
            variants::fw_ab(&network, 0.05).unwrap(),
        ] {
            let profiler = Profiler::new(program.clone());
            let (predicted, path) = profiler.extract(&network, &input).unwrap();
            prop_assert!(predicted < 4);
            prop_assert!(path.count_ones() > 0, "extracted path must not be empty");
            prop_assert!(path.density() > 0.0 && path.density() <= 1.0);
            // Self-similarity of a path aggregated into a class path is exactly 1.
            let mut class_path = ptolemy::core::ClassPath::empty(
                predicted,
                &path.segments().iter().map(|s| (s.layer, s.mask.len())).collect::<Vec<_>>(),
            );
            class_path.aggregate(&path).unwrap();
            let s = path.similarity(&class_path).unwrap();
            prop_assert!((s - 1.0).abs() < 1e-6, "self-similarity {s}");
        }
    }

    /// The cumulative threshold is monotone: a larger theta never selects fewer
    /// important neurons.
    #[test]
    fn larger_theta_never_selects_fewer_neurons(seed in 0u64..500) {
        let network = small_network();
        let mut rng = Rng64::new(seed);
        let input = Tensor::from_vec(
            (0..3 * 8 * 8).map(|_| rng.next_f32()).collect(),
            &[3, 8, 8],
        ).unwrap();
        let mut previous = 0usize;
        for theta in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
            let program = variants::bw_cu(&network, theta).unwrap();
            let (_, path) = Profiler::new(program).extract(&network, &input).unwrap();
            let ones = path.count_ones();
            prop_assert!(ones >= previous, "theta {theta}: {ones} < {previous}");
            previous = ones;
        }
    }

    /// AUC is bounded, symmetric under score negation, and 0.5 for constant scores.
    #[test]
    fn auc_invariants(scores in proptest::collection::vec(0.0f32..1.0, 4..40)) {
        let labels: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % 2 == 0).collect();
        let value = auc(&scores, &labels).unwrap();
        prop_assert!((0.0..=1.0).contains(&value));
        let flipped: Vec<f32> = scores.iter().map(|s| 1.0 - s).collect();
        let complement = auc(&flipped, &labels).unwrap();
        prop_assert!((value + complement - 1.0).abs() < 1e-5);
        let constant = vec![0.5f32; scores.len()];
        let chance = auc(&constant, &labels).unwrap();
        prop_assert!((chance - 0.5).abs() < 1e-6);
    }

    /// Early-termination programs never extract more layers than requested and the
    /// resulting detector still produces bounded similarities.
    #[test]
    fn early_termination_extracts_exactly_the_requested_layers(extracted in 1usize..=4) {
        let network = small_network();
        let program = variants::bw_cu_early_termination(&network, 0.5, extracted).unwrap();
        prop_assert_eq!(program.enabled_layers().len(), extracted);
        let mut rng = Rng64::new(extracted as u64);
        let input = Tensor::from_vec(
            (0..3 * 8 * 8).map(|_| rng.next_f32()).collect(),
            &[3, 8, 8],
        ).unwrap();
        let (_, path) = Profiler::new(program).extract(&network, &input).unwrap();
        prop_assert!(path.density() <= 1.0);
    }
}

#[test]
fn detector_scores_match_between_runs() {
    // Determinism: the same detector applied to the same input twice returns the
    // same verdict (no hidden randomness at inference time).
    let (network, dataset) = common::trained_lenet(0xDE7);
    let program = variants::fw_ab(&network, 0.05).unwrap();
    let class_paths = Profiler::new(program.clone())
        .profile(&network, dataset.train())
        .unwrap();
    let input = &dataset.test()[0].0;
    let a = path_similarity(&network, &program, &class_paths, input).unwrap();
    let b = path_similarity(&network, &program, &class_paths, input).unwrap();
    assert_eq!(a, b);
}
