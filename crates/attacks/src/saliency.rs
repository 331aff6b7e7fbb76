//! JSMA: the Jacobian-based Saliency Map Attack (Papernot et al.), an L0 attack that
//! perturbs a small number of input elements.

use ptolemy_nn::{predicted_class, ForwardTrace, Network};
use ptolemy_tensor::Tensor;

use crate::{AdversarialExample, Attack, AttackError, Result};

/// Jacobian-based Saliency Map Attack.
///
/// Greedily increases the input features whose saliency — gradient of the target
/// logit minus gradient of the true logit — is largest, until the prediction flips
/// or the feature budget is exhausted.  The target class is chosen as the runner-up
/// class of the clean input, the standard untargeted instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jsma {
    theta: f32,
    max_features: usize,
}

impl Jsma {
    /// Creates a JSMA attack that bumps up to `max_features` features by `theta`
    /// each iteration.
    pub fn new(theta: f32, max_features: usize) -> Self {
        Jsma {
            theta,
            max_features,
        }
    }
}

impl Attack for Jsma {
    fn name(&self) -> &'static str {
        "JSMA"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        if self.theta <= 0.0 || !self.theta.is_finite() {
            return Err(AttackError::InvalidConfig(format!(
                "theta must be positive, got {}",
                self.theta
            )));
        }
        if self.max_features == 0 {
            return Err(AttackError::InvalidConfig(
                "max_features must be non-zero".into(),
            ));
        }

        // Target: the runner-up class of the clean prediction.
        let clean_logits = network.forward(input)?;
        let target = clean_logits
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != label)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(k, _)| k)
            .ok_or_else(|| AttackError::InvalidConfig("JSMA needs at least two classes".into()))?;

        let mut current = input.clone();
        let mut modified = vec![false; input.len()];
        let mut changed = 0usize;
        while changed < self.max_features {
            // One forward pass per step: the prediction and the saliency
            // map read the same trace.
            let trace = network.forward_trace(&current)?;
            if predicted_class(trace.logits().as_slice())? != label {
                break;
            }
            let saliency = saliency_map(network, &trace, label, target)?;
            // Pick the still-unmodified feature with the largest saliency magnitude
            // that can still move in the useful direction (increase features that
            // help the target class, decrease features that help the true class).
            let mut best: Option<(usize, f32)> = None;
            for (i, s) in saliency.iter().enumerate() {
                if modified[i] {
                    continue;
                }
                let value = current.as_slice()[i];
                let movable = (*s > 0.0 && value < 1.0) || (*s < 0.0 && value > 0.0);
                if movable && best.map(|(_, bs)| s.abs() > bs).unwrap_or(true) {
                    best = Some((i, s.abs()));
                }
            }
            let Some((idx, _)) = best else { break };
            let direction = saliency[idx].signum();
            let value = (current.as_slice()[idx] + direction * self.theta).clamp(0.0, 1.0);
            current.as_mut_slice()[idx] = value;
            modified[idx] = true;
            changed += 1;
        }
        AdversarialExample::evaluate(network, input, current, label)
    }
}

/// Saliency of each input feature for moving mass from `label` to `target`:
/// `∂Z_target/∂x − ∂Z_label/∂x`.
fn saliency_map(
    network: &Network,
    trace: &ForwardTrace,
    label: usize,
    target: usize,
) -> Result<Vec<f32>> {
    let mut grad_logits = Tensor::zeros(trace.logits().dims());
    grad_logits.as_mut_slice()[target] = 1.0;
    grad_logits.as_mut_slice()[label] = -1.0;
    Ok(network
        .backward_input(trace, grad_logits, |_, _| Ok(()))?
        .into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_nn::{zoo, TrainConfig, Trainer};
    use ptolemy_tensor::Rng64;

    fn trained_mlp() -> (Network, Vec<(Tensor, usize)>) {
        let mut rng = Rng64::new(23);
        let mut samples = Vec::new();
        for class in 0..2usize {
            for _ in 0..20 {
                let data: Vec<f32> = (0..8)
                    .map(|d| {
                        let hot = if class == 0 { d < 4 } else { d >= 4 };
                        if hot {
                            0.8 + 0.05 * rng.normal()
                        } else {
                            0.2 + 0.05 * rng.normal()
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
    fn jsma_modifies_few_features() {
        let (net, samples) = trained_mlp();
        let attack = Jsma::new(0.9, 4);
        let mut successes = 0;
        for (x, y) in samples.iter().take(10) {
            let ex = attack.perturb(&net, x, *y).unwrap();
            // L0 character: only a bounded number of features may change.
            let changed = ex
                .input
                .as_slice()
                .iter()
                .zip(ex.original.as_slice())
                .filter(|(a, b)| (*a - *b).abs() > 1e-6)
                .count();
            assert!(changed <= 4);
            if ex.success {
                successes += 1;
            }
        }
        assert!(successes > 0, "JSMA should flip some predictions");
    }

    #[test]
    fn invalid_configs_rejected() {
        let (net, samples) = trained_mlp();
        let (x, y) = &samples[0];
        assert!(Jsma::new(0.0, 3).perturb(&net, x, *y).is_err());
        assert!(Jsma::new(0.5, 0).perturb(&net, x, *y).is_err());
        assert_eq!(Jsma::new(0.5, 3).name(), "JSMA");
    }
}
