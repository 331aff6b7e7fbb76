//! The adaptive attack of Sec. VII-E: an attacker with full knowledge of Ptolemy
//! forces an adversarial input to *imitate the activations of a benign input of a
//! different class*, so that the extracted activation path resembles a legitimate
//! canary path.
//!
//! Because the path construction (ranking / thresholding) is non-differentiable, the
//! paper relaxes the hard path constraint into the differentiable objective
//! `Σᵢ ‖zᵢ(x + δ) − zᵢ(x_t)‖²` over the last *n* layers and optimises it with PGD;
//! five candidate targets of different classes are tried and the lowest-loss result
//! is kept.  This module reproduces that construction exactly (`AT-n` in Fig. 13).

use ptolemy_nn::{ForwardTrace, Network};
use ptolemy_tensor::{Rng64, Tensor};

use crate::{AdversarialExample, Attack, AttackError, Result};

/// Configuration of the adaptive activation-matching attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Number of trailing *weight* layers whose activations enter the loss
    /// (`AT-n` in the paper; `AT-8` on the 8-layer AlexNet is the strongest attack).
    pub layers_considered: usize,
    /// PGD step size.
    pub step_size: f32,
    /// Number of PGD iterations per candidate target.
    pub iterations: usize,
    /// Number of candidate benign targets of other classes to try.
    pub num_targets: usize,
    /// Seed for target selection.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            layers_considered: 3,
            step_size: 0.02,
            iterations: 40,
            num_targets: 5,
            seed: 0xADA9,
        }
    }
}

/// The adaptive activation-matching attack (unbounded perturbation, following the
/// paper's "the correct metric for unbounded attacks is distortion" methodology).
#[derive(Debug, Clone)]
pub struct AdaptiveAttack {
    config: AdaptiveConfig,
    target_pool: Vec<(Tensor, usize)>,
}

impl AdaptiveAttack {
    /// Creates an adaptive attack drawing candidate targets from `target_pool`
    /// (typically the training set, which the white-box attacker is assumed to know).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for zero iterations/targets/layers or
    /// an empty target pool.
    pub fn new(config: AdaptiveConfig, target_pool: Vec<(Tensor, usize)>) -> Result<Self> {
        if config.iterations == 0 || config.num_targets == 0 || config.layers_considered == 0 {
            return Err(AttackError::InvalidConfig(
                "adaptive attack needs non-zero iterations, targets and layers".into(),
            ));
        }
        if config.step_size <= 0.0 || !config.step_size.is_finite() {
            return Err(AttackError::InvalidConfig(
                "step size must be positive".into(),
            ));
        }
        if target_pool.is_empty() {
            return Err(AttackError::NoTargets("empty target pool".into()));
        }
        Ok(AdaptiveAttack {
            config,
            target_pool,
        })
    }

    /// The configuration of this attack.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Network layer indices whose activations enter the matching loss: the last
    /// `layers_considered` weight layers.
    fn considered_layers(&self, network: &Network) -> Vec<usize> {
        let weight_layers = network.weight_layer_indices();
        let n = self.config.layers_considered.min(weight_layers.len());
        weight_layers[weight_layers.len() - n..].to_vec()
    }

    /// Activation-matching loss and its gradient with respect to the input.
    fn loss_and_gradient(
        &self,
        network: &Network,
        trace: &ForwardTrace,
        target_trace: &ForwardTrace,
        layers: &[usize],
    ) -> Result<(f32, Tensor)> {
        // Backward pass accumulating 2·(zᵢ − zᵢᵗ) at every considered layer.
        let mut loss = 0.0f32;
        let grad =
            network.backward_input(trace, Tensor::zeros(trace.logits().dims()), |i, grad| {
                if layers.contains(&i) {
                    let diff = trace.output(i).sub(target_trace.output(i))?;
                    loss += diff.as_slice().iter().map(|v| v * v).sum::<f32>();
                    grad.add_scaled_inplace(&diff, 2.0)?;
                }
                Ok(())
            })?;
        Ok((loss, grad))
    }

    /// Runs PGD against one candidate target and returns `(loss, perturbed input)`.
    fn attack_towards(
        &self,
        network: &Network,
        input: &Tensor,
        target: &Tensor,
        layers: &[usize],
    ) -> Result<(f32, Tensor)> {
        let target_trace = network.forward_trace(target)?;
        let mut current = input.clone();
        let mut final_loss = f32::INFINITY;
        for _ in 0..self.config.iterations {
            let trace = network.forward_trace(&current)?;
            let (loss, grad) = self.loss_and_gradient(network, &trace, &target_trace, layers)?;
            final_loss = loss;
            let norm = grad.l2_norm().max(1e-8);
            current = current
                .sub(&grad.scale(self.config.step_size / norm))?
                .clamp(0.0, 1.0);
        }
        Ok((final_loss, current))
    }
}

impl Attack for AdaptiveAttack {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        let layers = self.considered_layers(network);
        // Choose candidate benign targets whose class differs from the input's.
        let mut rng = Rng64::new(self.config.seed ^ (label as u64).wrapping_mul(0x9E37));
        let candidates: Vec<&(Tensor, usize)> = self
            .target_pool
            .iter()
            .filter(|(_, y)| *y != label)
            .collect();
        if candidates.is_empty() {
            return Err(AttackError::NoTargets(format!(
                "target pool has no samples outside class {label}"
            )));
        }
        let mut best: Option<(f32, Tensor)> = None;
        for _ in 0..self.config.num_targets {
            let (target, _) = candidates[rng.below(candidates.len())];
            let (loss, perturbed) = self.attack_towards(network, input, target, &layers)?;
            if best.as_ref().map(|(l, _)| loss < *l).unwrap_or(true) {
                best = Some((loss, perturbed));
            }
        }
        // lint:allow(panic-in-worker): num_targets >= 1 is validated at construction
        let (_, perturbed) = best.expect("at least one candidate target evaluated");
        AdversarialExample::evaluate(network, input, perturbed, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_nn::{zoo, TrainConfig, Trainer};

    fn trained_mlp() -> (Network, Vec<(Tensor, usize)>) {
        let mut rng = Rng64::new(31);
        let mut samples = Vec::new();
        for class in 0..2usize {
            for _ in 0..20 {
                let data: Vec<f32> = (0..8)
                    .map(|d| {
                        let hot = if class == 0 { d < 4 } else { d >= 4 };
                        if hot {
                            0.85 + 0.05 * rng.normal()
                        } else {
                            0.15 + 0.05 * rng.normal()
                        }
                    })
                    .map(|v: f32| v.clamp(0.0, 1.0))
                    .collect();
                samples.push((Tensor::from_vec(data, &[8]).unwrap(), class));
            }
        }
        let mut net = zoo::mlp_net(&[8], 2, &mut rng).unwrap();
        Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        })
        .fit(&mut net, &samples)
        .unwrap();
        (net, samples)
    }

    #[test]
    fn adaptive_attack_flips_predictions_by_matching_activations() {
        let (net, samples) = trained_mlp();
        let attack = AdaptiveAttack::new(
            AdaptiveConfig {
                layers_considered: 3,
                iterations: 60,
                step_size: 0.05,
                num_targets: 3,
                seed: 1,
            },
            samples.clone(),
        )
        .unwrap();
        let mut successes = 0;
        for (x, y) in samples.iter().take(6) {
            let ex = attack.perturb(&net, x, *y).unwrap();
            assert!(ex.input.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
            if ex.success {
                successes += 1;
            }
        }
        assert!(
            successes > 0,
            "the unbounded adaptive attack should succeed"
        );
        assert_eq!(attack.name(), "Adaptive");
        assert_eq!(attack.config().num_targets, 3);
    }

    #[test]
    fn more_layers_considered_means_closer_activation_match() {
        let (net, samples) = trained_mlp();
        let pool = samples.clone();
        let shallow = AdaptiveAttack::new(
            AdaptiveConfig {
                layers_considered: 1,
                iterations: 40,
                ..AdaptiveConfig::default()
            },
            pool.clone(),
        )
        .unwrap();
        let deep = AdaptiveAttack::new(
            AdaptiveConfig {
                layers_considered: 3,
                iterations: 40,
                ..AdaptiveConfig::default()
            },
            pool,
        )
        .unwrap();
        // Both must run; the deep attack considers strictly more layers.
        let (x, y) = &samples[0];
        let a = shallow.perturb(&net, x, *y).unwrap();
        let b = deep.perturb(&net, x, *y).unwrap();
        assert!(a.distortion_mse >= 0.0 && b.distortion_mse >= 0.0);
        assert_eq!(shallow.considered_layers(&net).len(), 1);
        assert_eq!(deep.considered_layers(&net).len(), 3);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (_, samples) = trained_mlp();
        assert!(AdaptiveAttack::new(
            AdaptiveConfig {
                iterations: 0,
                ..AdaptiveConfig::default()
            },
            samples.clone()
        )
        .is_err());
        assert!(AdaptiveAttack::new(
            AdaptiveConfig {
                step_size: 0.0,
                ..AdaptiveConfig::default()
            },
            samples.clone()
        )
        .is_err());
        assert!(AdaptiveAttack::new(AdaptiveConfig::default(), vec![]).is_err());

        // A pool containing only the attacked class yields NoTargets.
        let one_class: Vec<(Tensor, usize)> =
            samples.iter().filter(|(_, y)| *y == 0).cloned().collect();
        let (net, _) = trained_mlp();
        let attack = AdaptiveAttack::new(AdaptiveConfig::default(), one_class).unwrap();
        let x = Tensor::full(&[8], 0.5);
        assert!(matches!(
            attack.perturb(&net, &x, 0),
            Err(AttackError::NoTargets(_))
        ));
    }
}
