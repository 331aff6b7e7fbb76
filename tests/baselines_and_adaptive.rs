//! Integration tests for the baseline detectors (EP, CDRP, DeepFense) and the
//! white-box adaptive attack, exercised against the same trained victims the
//! Ptolemy detector uses.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers outside #[test] fns unwrap; a failure there fails the test"
)]

mod common;

use ptolemy::accel::HardwareConfig;
use ptolemy::attacks::{AdaptiveAttack, AdaptiveConfig, Attack, Fgsm};
use ptolemy::baselines::{
    BaselineDetector, CdrpDefense, DeepFenseDefense, DeepFenseVariant, EpDefense,
};
use ptolemy::core::{path_similarity, variants, Profiler};
use ptolemy::forest::auc;
use ptolemy::tensor::Tensor;

fn attack_split(
    network: &ptolemy::nn::Network,
    dataset: &ptolemy::data::SyntheticDataset,
) -> (Vec<Tensor>, Vec<Tensor>) {
    let benign = common::benign_inputs(dataset);
    let attack = Fgsm::new(0.25);
    let adversarial: Vec<Tensor> = common::correct_samples(network, dataset)
        .iter()
        .map(|(x, y)| attack.perturb(network, x, *y).unwrap().input)
        .collect();
    (benign, adversarial)
}

fn detector_auc(
    detector: &dyn BaselineDetector,
    network: &ptolemy::nn::Network,
    benign: &[Tensor],
    adversarial: &[Tensor],
) -> f32 {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for input in benign {
        scores.push(detector.score(network, input).unwrap());
        labels.push(false);
    }
    for input in adversarial {
        scores.push(detector.score(network, input).unwrap());
        labels.push(true);
    }
    auc(&scores, &labels).unwrap()
}

#[test]
fn ep_detects_above_chance_and_costs_like_bwcu() {
    let (network, dataset) = common::trained_lenet(0xE9);
    let (benign, adversarial) = attack_split(&network, &dataset);
    assert!(!adversarial.is_empty());

    let ep = EpDefense::fit(&network, dataset.train(), 0.5).unwrap();
    assert!(ep.online());
    let ep_auc = detector_auc(&ep, &network, &benign, &adversarial);
    assert!(ep_auc > 0.5, "EP AUC {ep_auc}");

    // EP's cost (no compiler optimisations) is at least the optimised BwCu cost.
    let config = HardwareConfig::default();
    let ep_cost = ep.cost(&network, &config, 0.08).unwrap();
    let bwcu = variants::bw_cu(&network, 0.5).unwrap();
    let bwcu_cost = {
        let compiled = ptolemy::compiler::Compiler::default()
            .compile(&network, &bwcu)
            .unwrap();
        ptolemy::accel::Simulator::new(config)
            .unwrap()
            .simulate(&network, &compiled, 0.08)
            .unwrap()
    };
    assert!(ep_cost.latency_factor() >= bwcu_cost.latency_factor() - 1e-9);
}

#[test]
fn cdrp_is_offline_only_and_scores_are_probabilities() {
    let (network, dataset) = common::trained_lenet(0xCD);
    let (benign, adversarial) = attack_split(&network, &dataset);
    let cdrp = CdrpDefense::fit(&network, dataset.train(), &benign, &adversarial).unwrap();
    assert!(!cdrp.online(), "CDRP cannot run at inference time");
    for input in benign.iter().chain(&adversarial) {
        let score = cdrp.score(&network, input).unwrap();
        assert!((0.0..=1.0).contains(&score));
    }
    let cdrp_auc = detector_auc(&cdrp, &network, &benign, &adversarial);
    assert!((0.0..=1.0).contains(&cdrp_auc));
}

#[test]
fn deepfense_accuracy_and_cost_scale_with_module_count() {
    let (network, dataset) = common::trained_lenet(0xDF);
    let (benign, adversarial) = attack_split(&network, &dataset);
    let config = HardwareConfig::default();

    let dfl =
        DeepFenseDefense::fit(&network, DeepFenseVariant::Light, &benign, &adversarial, 1).unwrap();
    let dfh =
        DeepFenseDefense::fit(&network, DeepFenseVariant::High, &benign, &adversarial, 1).unwrap();
    assert_eq!(dfl.num_modules(), 1);
    assert_eq!(dfh.num_modules(), 16);

    let (dfl_lat, dfl_en) = dfl.cost(&network, &config).unwrap();
    let (dfh_lat, dfh_en) = dfh.cost(&network, &config).unwrap();
    assert!(dfh_lat > dfl_lat);
    assert!(dfh_en > dfl_en);
    assert!(dfl_lat >= 1.0 && dfl_en >= 1.0);

    // Scores are valid probabilities on both operating points.
    for detector in [&dfl, &dfh] {
        let value = detector_auc(detector, &network, &benign, &adversarial);
        assert!((0.0..=1.0).contains(&value));
    }
}

#[test]
fn ptolemy_is_cheaper_than_deepfense_at_comparable_detection() {
    // The paper's Fig. 12 argument in miniature: FwAb's latency overhead on the
    // shared accelerator is below DeepFense-High's (16 redundant defenders).
    let (network, dataset) = common::trained_lenet(0x12F);
    let (benign, adversarial) = attack_split(&network, &dataset);
    let config = HardwareConfig::default();

    let fwab = variants::fw_ab(&network, 0.05).unwrap();
    let compiled = ptolemy::compiler::Compiler::default()
        .compile(&network, &fwab)
        .unwrap();
    let fwab_cost = ptolemy::accel::Simulator::new(config)
        .unwrap()
        .simulate(&network, &compiled, 0.08)
        .unwrap();

    let dfh =
        DeepFenseDefense::fit(&network, DeepFenseVariant::High, &benign, &adversarial, 2).unwrap();
    let (dfh_latency, _) = dfh.cost(&network, &config).unwrap();
    assert!(
        fwab_cost.latency_factor() < dfh_latency,
        "FwAb {} vs DFH {}",
        fwab_cost.latency_factor(),
        dfh_latency
    );
}

#[test]
fn adaptive_attack_is_valid_and_still_detected_above_chance() {
    let (network, dataset) = common::trained_lenet(0xAD);
    let program = variants::bw_cu(&network, 0.5).unwrap();
    let class_paths = Profiler::new(program.clone())
        .profile(&network, dataset.train())
        .unwrap();
    let benign = common::benign_inputs(&dataset);

    let attack = AdaptiveAttack::new(
        AdaptiveConfig {
            layers_considered: 2,
            step_size: 0.02,
            iterations: 15,
            num_targets: 3,
            seed: 0xAD,
        },
        dataset.train().to_vec(),
    )
    .unwrap();
    assert_eq!(attack.name(), "Adaptive");

    let samples = common::correct_samples(&network, &dataset);
    assert!(!samples.is_empty());
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for input in &benign {
        let (_, s) = path_similarity(&network, &program, &class_paths, input).unwrap();
        scores.push(1.0 - s);
        labels.push(false);
    }
    for (input, label) in samples.iter().take(10) {
        let example = attack.perturb(&network, input, *label).unwrap();
        // The adaptive attack reports its distortion (the paper's validity metric).
        assert!(example.distortion_mse.is_finite());
        assert!(example.distortion_mse >= 0.0);
        let (_, s) = path_similarity(&network, &program, &class_paths, &example.input).unwrap();
        scores.push(1.0 - s);
        labels.push(true);
    }
    let adaptive_auc = auc(&scores, &labels).unwrap();
    assert!(
        adaptive_auc > 0.4,
        "adaptive detection collapsed entirely: {adaptive_auc}"
    );
}
