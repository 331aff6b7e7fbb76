//! Shared experiment setup: trained network + dataset pairs ("workbenches"), the
//! standard attack suite, and the accuracy / cost evaluation helpers every figure
//! harness uses.

use std::sync::Arc;

use ptolemy_accel::{ExecutionReport, HardwareConfig, Simulator};
use ptolemy_attacks::{Attack, Bim, CarliniWagnerL2, DeepFool, Fgsm, Jsma};
use ptolemy_compiler::{Compiler, OptimizationFlags};
use ptolemy_core::{ClassPathSet, DetectionEngine, DetectionProgram, Profiler};
use ptolemy_data::{DatasetConfig, SyntheticDataset};
use ptolemy_forest::auc;
use ptolemy_nn::{zoo, Network, TrainConfig, Trainer};
use ptolemy_tensor::{Rng64, Tensor};

use crate::BenchScale;

/// Result alias for the harness (errors come from many crates, so they are boxed).
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// A trained network plus the dataset it was trained on — the unit every
/// experiment harness operates on.
#[derive(Debug)]
pub struct Workbench {
    /// Human-readable name used in printed tables (e.g. `"AlexNet-class @ synth-ImageNet"`).
    pub name: String,
    /// The trained victim network (shared so detection engines can bind it
    /// without copying weights).
    pub network: Arc<Network>,
    /// The dataset the network was trained on.
    pub dataset: SyntheticDataset,
    /// The scale the workbench was built at.
    pub scale: BenchScale,
    /// Training-set accuracy reached by the victim (reported like the paper's
    /// "clean model accuracy" sanity check).
    pub clean_accuracy: f32,
}

fn train(network: &mut Network, dataset: &SyntheticDataset, scale: BenchScale) -> BenchResult<f32> {
    // The deep zoo models diverge at the default SGD step size on the synthetic
    // datasets; a smaller learning rate with more epochs trains every victim to a
    // usable accuracy in seconds (picked by a sweep, see DESIGN.md "Known deviations").
    let report = Trainer::new(TrainConfig {
        epochs: scale.epochs(),
        batch_size: 8,
        learning_rate: 0.002,
        ..TrainConfig::default()
    })
    .fit(network, dataset.train())?;
    Ok(report.final_accuracy)
}

impl Workbench {
    /// The "AlexNet on ImageNet" stand-in: the 8-weight-layer [`zoo::conv_net`] on a
    /// class-subsampled synthetic ImageNet.
    ///
    /// # Errors
    ///
    /// Propagates dataset generation and training errors.
    pub fn alexnet_imagenet(scale: BenchScale) -> BenchResult<Self> {
        let dataset = SyntheticDataset::synth_imagenet_subset(
            scale.imagenet_classes(),
            scale.train_per_class(),
            scale.test_per_class(),
            0xA1E7,
        )?;
        let mut network = zoo::conv_net(dataset.num_classes(), &mut Rng64::new(0xA1E7))?;
        let clean_accuracy = train(&mut network, &dataset, scale)?;
        Ok(Workbench {
            name: "AlexNet-class @ synth-ImageNet".into(),
            network: Arc::new(network),
            dataset,
            scale,
            clean_accuracy,
        })
    }

    /// The "ResNet-18 on CIFAR-100" stand-in: [`zoo::resnet_mini`] on a synthetic
    /// many-class CIFAR-style dataset.
    ///
    /// # Errors
    ///
    /// Propagates dataset generation and training errors.
    pub fn resnet_cifar100(scale: BenchScale) -> BenchResult<Self> {
        let dataset = SyntheticDataset::generate(DatasetConfig {
            name: "synth-cifar100".into(),
            num_classes: scale.cifar100_classes(),
            shape: vec![3, 8, 8],
            train_per_class: scale.train_per_class(),
            test_per_class: scale.test_per_class(),
            noise: 0.15,
            seed: 0xC1FA,
        })?;
        let mut network = zoo::resnet_mini(dataset.num_classes(), &mut Rng64::new(0xC1FA))?;
        let clean_accuracy = train(&mut network, &dataset, scale)?;
        Ok(Workbench {
            name: "ResNet18-class @ synth-CIFAR-100".into(),
            network: Arc::new(network),
            dataset,
            scale,
            clean_accuracy,
        })
    }

    /// The "ResNet-18 on CIFAR-10" stand-in used by the DeepFense comparison.
    ///
    /// # Errors
    ///
    /// Propagates dataset generation and training errors.
    pub fn resnet_cifar10(scale: BenchScale) -> BenchResult<Self> {
        let dataset = SyntheticDataset::synth_cifar10(
            scale.train_per_class(),
            scale.test_per_class(),
            0xC1F0,
        )?;
        let mut network = zoo::resnet_mini(dataset.num_classes(), &mut Rng64::new(0xC1F0))?;
        let clean_accuracy = train(&mut network, &dataset, scale)?;
        Ok(Workbench {
            name: "ResNet18-class @ synth-CIFAR-10".into(),
            network: Arc::new(network),
            dataset,
            scale,
            clean_accuracy,
        })
    }

    /// A small LeNet workbench used by the Criterion micro-benches and smoke tests.
    ///
    /// # Errors
    ///
    /// Propagates dataset generation and training errors.
    pub fn lenet_small(scale: BenchScale) -> BenchResult<Self> {
        let dataset = SyntheticDataset::generate(DatasetConfig {
            name: "synth-small".into(),
            num_classes: 4,
            shape: vec![3, 8, 8],
            train_per_class: scale.train_per_class(),
            test_per_class: scale.test_per_class(),
            noise: 0.12,
            seed: 0x5A11,
        })?;
        let mut network = zoo::lenet(3, dataset.num_classes(), &mut Rng64::new(0x5A11))?;
        let clean_accuracy = train(&mut network, &dataset, scale)?;
        Ok(Workbench {
            name: "LeNet-class @ synth-small".into(),
            network: Arc::new(network),
            dataset,
            scale,
            clean_accuracy,
        })
    }

    /// Profiles the canary class paths of this workbench for a detection program.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn profile(&self, program: &DetectionProgram) -> BenchResult<ClassPathSet> {
        Ok(Profiler::new(program.clone()).profile(&self.network, self.dataset.train())?)
    }

    /// Binds a similarity-serving [`DetectionEngine`] for a program on this
    /// workbench (no classifier, so `path_similarity` only).  The
    /// program/class-path fingerprint is validated here, once.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction errors.
    pub fn engine(
        &self,
        program: &DetectionProgram,
        class_paths: &ClassPathSet,
    ) -> BenchResult<DetectionEngine> {
        Ok(
            DetectionEngine::builder(self.network.clone(), program.clone(), class_paths.clone())
                .build()?,
        )
    }

    /// Benign test inputs (up to `limit`).
    ///
    /// Only correctly-classified test inputs are returned: the paper's detection
    /// test sets are benign/adversarial splits of inputs the clean model handles
    /// correctly, so a clean-model mistake is not counted against the detector.
    pub fn benign_inputs(&self, limit: usize) -> Vec<Tensor> {
        self.dataset
            .test()
            .iter()
            .filter(|(x, y)| self.network.predict(x).map(|p| p == *y).unwrap_or(false))
            .take(limit)
            .map(|(x, _)| x.clone())
            .collect()
    }

    /// Labelled benign test samples (up to `limit`).
    pub fn benign_samples(&self, limit: usize) -> Vec<(Tensor, usize)> {
        self.dataset.test().iter().take(limit).cloned().collect()
    }

    /// Generates adversarial inputs by applying `attack` to up to `limit`
    /// correctly-classified test samples, keeping only successful attacks (the
    /// standard adversarial-detection evaluation setup).
    ///
    /// # Errors
    ///
    /// Propagates attack errors.
    pub fn adversarial_inputs(
        &self,
        attack: &dyn Attack,
        limit: usize,
    ) -> BenchResult<Vec<Tensor>> {
        let mut out = Vec::new();
        let mut fallback = Vec::new();
        for (input, label) in self.dataset.test() {
            if out.len() >= limit {
                break;
            }
            if self.network.predict(input)? != *label {
                continue;
            }
            let example = attack.perturb(&self.network, input, *label)?;
            if example.success {
                out.push(example.input);
            } else {
                fallback.push(example.input);
            }
        }
        // If the attack rarely succeeds on the scaled-down model, pad with the
        // unsuccessful perturbations so the AUC is still computed over a usable set.
        if out.len() < limit.min(4) {
            out.extend(fallback);
            out.truncate(limit);
        }
        if out.is_empty() {
            return Err("attack produced no adversarial inputs".into());
        }
        Ok(out)
    }

    /// Measures the average activation-path density of this workbench under a
    /// program — the `density` parameter the hardware model needs.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn measured_density(&self, program: &DetectionProgram) -> BenchResult<f32> {
        let profiler = Profiler::new(program.clone());
        let mut total = 0.0f32;
        let mut count = 0usize;
        for (input, _) in self.dataset.test().iter().take(8) {
            let (_, path) = profiler.extract(&self.network, input)?;
            total += path.density();
            count += 1;
        }
        if count == 0 {
            return Err("no test inputs available for density measurement".into());
        }
        Ok(total / count as f32)
    }

    /// Detection AUC of a Ptolemy program on this workbench: path similarity is the
    /// score, benign inputs are negatives, `adversarial` inputs are positives.
    ///
    /// The program/class-path pairing is validated once by the engine instead of
    /// per input.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn detection_auc(
        &self,
        program: &DetectionProgram,
        class_paths: &ClassPathSet,
        benign: &[Tensor],
        adversarial: &[Tensor],
    ) -> BenchResult<f32> {
        let engine = self.engine(program, class_paths)?;
        let mut scores = Vec::with_capacity(benign.len() + adversarial.len());
        let mut labels = Vec::with_capacity(benign.len() + adversarial.len());
        for (inputs, label) in [(benign, false), (adversarial, true)] {
            for input in inputs {
                let (_, s) = engine.path_similarity(input)?;
                scores.push(1.0 - s);
                labels.push(label);
            }
        }
        Ok(auc(&scores, &labels)?)
    }

    /// Compiles and simulates a detection program on this workbench's network with
    /// all compiler optimisations enabled.
    ///
    /// # Errors
    ///
    /// Propagates compiler and hardware-model errors.
    pub fn variant_cost(
        &self,
        program: &DetectionProgram,
        config: &HardwareConfig,
        density: f32,
    ) -> BenchResult<ExecutionReport> {
        self.variant_cost_with(program, config, density, OptimizationFlags::default())
    }

    /// Like [`Workbench::variant_cost`] with explicit compiler optimisation flags
    /// (used by the ablation harnesses).
    ///
    /// # Errors
    ///
    /// Propagates compiler and hardware-model errors.
    pub fn variant_cost_with(
        &self,
        program: &DetectionProgram,
        config: &HardwareConfig,
        density: f32,
        flags: OptimizationFlags,
    ) -> BenchResult<ExecutionReport> {
        let compiled = Compiler::new(flags).compile(&self.network, program)?;
        Ok(Simulator::new(*config)?.simulate(&self.network, &compiled, density)?)
    }
}

impl Workbench {
    /// Calibrates the absolute threshold φ so that extraction selects a useful
    /// fraction of neurons (~10 % of the feature maps at this scale).
    ///
    /// The paper tunes φ per network the same way it tunes θ (Sec. VII-B); on a
    /// scaled-down substrate the right absolute value depends on the trained
    /// weights, so the harness measures the resulting path density for a handful of
    /// candidates and keeps the closest to the target.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn calibrate_phi(&self, forward: bool) -> BenchResult<f32> {
        let candidates = [0.01f32, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8];
        let target = 0.10f32;
        let mut best = (candidates[0], f32::MAX);
        for &phi in &candidates {
            let program = if forward {
                ptolemy_core::variants::fw_ab(&self.network, phi)?
            } else {
                ptolemy_core::variants::bw_ab(&self.network, phi)?
            };
            let density = self.measured_density(&program)?;
            let err = (density - target).abs();
            if density > 0.0 && err < best.1 {
                best = (phi, err);
            }
        }
        Ok(best.0)
    }

    /// Builds the paper's four algorithm variants — BwCu, BwAb, FwAb and Hybrid —
    /// for this workbench, with θ given and φ calibrated automatically.
    ///
    /// # Errors
    ///
    /// Propagates program construction errors.
    pub fn ptolemy_variants(&self, theta: f32) -> BenchResult<Vec<(String, DetectionProgram)>> {
        use ptolemy_core::variants;
        let phi = self.calibrate_phi(false)?;
        Ok(vec![
            ("BwCu".to_string(), variants::bw_cu(&self.network, theta)?),
            ("BwAb".to_string(), variants::bw_ab(&self.network, phi)?),
            ("FwAb".to_string(), variants::fw_ab(&self.network, phi)?),
            (
                "Hybrid".to_string(),
                variants::hybrid(&self.network, phi, theta)?,
            ),
        ])
    }

    /// Generates one adversarial input set per standard attack, so several variants
    /// and baselines can be scored against identical adversarial samples.
    ///
    /// # Errors
    ///
    /// Propagates attack errors.
    pub fn attack_sets(&self) -> BenchResult<Vec<(String, Vec<Tensor>)>> {
        let limit = self.scale.attack_samples();
        let mut sets = Vec::new();
        for attack in standard_attacks(self.scale) {
            let inputs = self.adversarial_inputs(attack.as_ref(), limit)?;
            sets.push((attack.name().to_string(), inputs));
        }
        Ok(sets)
    }
}

/// Mean, minimum and maximum of a list of per-attack AUCs (the summary Fig. 10
/// reports as bars with error whiskers).
pub fn auc_summary(per_attack: &[(String, f32)]) -> (f32, f32, f32) {
    if per_attack.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let values: Vec<f32> = per_attack.iter().map(|(_, v)| *v).collect();
    let mean = values.iter().sum::<f32>() / values.len() as f32;
    let min = values.iter().copied().fold(f32::INFINITY, f32::min);
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    (mean, min, max)
}

/// The five non-adaptive attacks of the paper's evaluation (Sec. VI-A), covering
/// all three perturbation norms: BIM and FGSM (L∞), CW-L2 and DeepFool (L2) and
/// JSMA (L0).
pub fn standard_attacks(scale: BenchScale) -> Vec<Box<dyn Attack>> {
    let iters = scale.attack_iterations();
    vec![
        Box::new(Bim::new(0.12, 0.02, iters)),
        Box::new(CarliniWagnerL2::new(1.0, 0.05, iters, 0.0)),
        Box::new(DeepFool::new(iters, 0.02)),
        Box::new(Fgsm::new(0.12)),
        Box::new(Jsma::new(0.6, 24)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_core::variants;

    #[test]
    fn standard_attack_suite_matches_the_paper() {
        let attacks = standard_attacks(BenchScale::Quick);
        let names: Vec<&str> = attacks.iter().map(|a| a.name()).collect();
        assert_eq!(attacks.len(), 5);
        for expected in ["FGSM", "BIM", "DeepFool", "JSMA"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
    }

    #[test]
    fn lenet_workbench_supports_the_full_pipeline() {
        let wb = Workbench::lenet_small(BenchScale::Quick).unwrap();
        assert!(wb.clean_accuracy > 0.5, "accuracy {}", wb.clean_accuracy);
        let program = variants::fw_ab(&wb.network, 0.05).unwrap();
        let class_paths = wb.profile(&program).unwrap();
        assert_eq!(class_paths.num_classes(), wb.dataset.num_classes());

        let benign = wb.benign_inputs(8);
        assert!(!benign.is_empty());
        let adversarial = wb.adversarial_inputs(&Fgsm::new(0.3), 8).unwrap();
        let auc = wb
            .detection_auc(&program, &class_paths, &benign, &adversarial)
            .unwrap();
        assert!((0.0..=1.0).contains(&auc));

        let density = wb.measured_density(&program).unwrap();
        assert!(density > 0.0 && density <= 1.0);
        let report = wb
            .variant_cost(&program, &HardwareConfig::default(), density)
            .unwrap();
        assert!(report.latency_factor() >= 1.0);
    }
}
