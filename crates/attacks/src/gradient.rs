//! Gradient-based attacks: FGSM, BIM, PGD (L∞), DeepFool and CW-L2 (L2).

use ptolemy_nn::{predicted_class, ForwardTrace, Network};
use ptolemy_tensor::{Rng64, Tensor};

use crate::{AdversarialExample, Attack, AttackError, Result};

fn check_positive(value: f32, name: &str) -> Result<()> {
    if value <= 0.0 || !value.is_finite() {
        return Err(AttackError::InvalidConfig(format!(
            "{name} must be positive and finite, got {value}"
        )));
    }
    Ok(())
}

/// Clamps a perturbed input back into the valid pixel range and the ε-ball around
/// the original.
fn project_linf(perturbed: &Tensor, original: &Tensor, epsilon: f32) -> Result<Tensor> {
    let data: Vec<f32> = perturbed
        .as_slice()
        .iter()
        .zip(original.as_slice())
        .map(|(p, o)| p.clamp(o - epsilon, o + epsilon).clamp(0.0, 1.0))
        .collect();
    Ok(Tensor::from_vec(data, original.dims())?)
}

/// Fast Gradient Sign Method (Goodfellow et al.): a single ε-sized step along the
/// sign of the loss gradient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fgsm {
    epsilon: f32,
}

impl Fgsm {
    /// Creates an FGSM attack with L∞ budget `epsilon`.
    pub fn new(epsilon: f32) -> Self {
        Fgsm { epsilon }
    }
}

impl Attack for Fgsm {
    fn name(&self) -> &'static str {
        "FGSM"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        check_positive(self.epsilon, "epsilon")?;
        let grad = network.input_gradient(input, label)?;
        let stepped = input.add(&grad.signum().scale(self.epsilon))?;
        let perturbed = project_linf(&stepped, input, self.epsilon)?;
        AdversarialExample::evaluate(network, input, perturbed, label)
    }
}

/// Basic Iterative Method (Kurakin et al.): repeated small FGSM steps projected back
/// into the ε-ball.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bim {
    epsilon: f32,
    alpha: f32,
    iterations: usize,
}

impl Bim {
    /// Creates a BIM attack with budget `epsilon`, step size `alpha` and the given
    /// number of iterations.
    pub fn new(epsilon: f32, alpha: f32, iterations: usize) -> Self {
        Bim {
            epsilon,
            alpha,
            iterations,
        }
    }
}

impl Attack for Bim {
    fn name(&self) -> &'static str {
        "BIM"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        check_positive(self.epsilon, "epsilon")?;
        check_positive(self.alpha, "alpha")?;
        if self.iterations == 0 {
            return Err(AttackError::InvalidConfig(
                "iterations must be non-zero".into(),
            ));
        }
        let mut current = input.clone();
        for _ in 0..self.iterations {
            let grad = network.input_gradient(&current, label)?;
            let stepped = current.add(&grad.signum().scale(self.alpha))?;
            current = project_linf(&stepped, input, self.epsilon)?;
        }
        AdversarialExample::evaluate(network, input, current, label)
    }
}

/// Projected Gradient Descent (Madry et al.): BIM with a random start inside the
/// ε-ball.  Also used as the optimiser of the adaptive attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pgd {
    epsilon: f32,
    alpha: f32,
    iterations: usize,
    seed: u64,
}

impl Pgd {
    /// Creates a PGD attack with budget `epsilon`, step size `alpha`, iteration
    /// count and a seed for the random start.
    pub fn new(epsilon: f32, alpha: f32, iterations: usize, seed: u64) -> Self {
        Pgd {
            epsilon,
            alpha,
            iterations,
            seed,
        }
    }
}

impl Attack for Pgd {
    fn name(&self) -> &'static str {
        "PGD"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        check_positive(self.epsilon, "epsilon")?;
        check_positive(self.alpha, "alpha")?;
        if self.iterations == 0 {
            return Err(AttackError::InvalidConfig(
                "iterations must be non-zero".into(),
            ));
        }
        let mut rng = Rng64::new(self.seed);
        let noise: Vec<f32> = (0..input.len())
            .map(|_| rng.uniform(-self.epsilon, self.epsilon))
            .collect();
        let mut current = project_linf(
            &input.add(&Tensor::from_vec(noise, input.dims())?)?,
            input,
            self.epsilon,
        )?;
        for _ in 0..self.iterations {
            let grad = network.input_gradient(&current, label)?;
            let stepped = current.add(&grad.signum().scale(self.alpha))?;
            current = project_linf(&stepped, input, self.epsilon)?;
        }
        AdversarialExample::evaluate(network, input, current, label)
    }
}

/// DeepFool (Moosavi-Dezfooli et al.): iteratively steps towards the closest
/// (linearised) decision boundary, producing small L2 perturbations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepFool {
    max_iterations: usize,
    overshoot: f32,
}

impl DeepFool {
    /// Creates a DeepFool attack with an iteration cap and overshoot factor
    /// (the canonical value is 0.02).
    pub fn new(max_iterations: usize, overshoot: f32) -> Self {
        DeepFool {
            max_iterations,
            overshoot,
        }
    }
}

impl Attack for DeepFool {
    fn name(&self) -> &'static str {
        "DeepFool"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        if self.max_iterations == 0 {
            return Err(AttackError::InvalidConfig(
                "max_iterations must be non-zero".into(),
            ));
        }
        if self.overshoot < 0.0 {
            return Err(AttackError::InvalidConfig(
                "overshoot must be non-negative".into(),
            ));
        }
        let num_classes = network.num_classes();
        let mut current = input.clone();
        for _ in 0..self.max_iterations {
            // One forward pass per iteration: the prediction, the logits and
            // every logit gradient read the same trace.
            let trace = network.forward_trace(&current)?;
            let logits = trace.logits();
            if predicted_class(logits.as_slice())? != label {
                break;
            }
            // Gradient of the true-class logit.
            let grad_label = logit_gradient(network, &trace, label)?;
            // Find the closest boundary over all other classes.
            let mut best: Option<(f32, Tensor)> = None;
            for k in 0..num_classes {
                if k == label {
                    continue;
                }
                let grad_k = logit_gradient(network, &trace, k)?;
                let w = grad_k.sub(&grad_label)?;
                let f = logits.as_slice()[k] - logits.as_slice()[label];
                let w_norm = w.l2_norm().max(1e-8);
                let distance = f.abs() / w_norm;
                let step = w.scale((f.abs() + 1e-4) / (w_norm * w_norm));
                if best.as_ref().map(|(d, _)| distance < *d).unwrap_or(true) {
                    best = Some((distance, step));
                }
            }
            let (_, step) = best.ok_or_else(|| {
                AttackError::InvalidConfig("DeepFool needs at least two classes".into())
            })?;
            current = current
                .add(&step.scale(1.0 + self.overshoot))?
                .clamp(0.0, 1.0);
        }
        AdversarialExample::evaluate(network, input, current, label)
    }
}

/// Carlini & Wagner L2 attack in its penalty form: minimise
/// `‖δ‖² + c · max(Z_y − max_{k≠y} Z_k, −κ)` by gradient descent, projected onto the
/// valid pixel box.  (The full attack binary-searches `c` and re-parametrises with
/// `tanh`; the penalty form preserves its qualitative behaviour — low-distortion,
/// low-confidence adversaries — at a fraction of the cost, as noted in DESIGN.md.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarliniWagnerL2 {
    c: f32,
    learning_rate: f32,
    iterations: usize,
    kappa: f32,
}

impl CarliniWagnerL2 {
    /// Creates a CW-L2 attack with penalty weight `c`, step size, iteration count
    /// and confidence margin `kappa`.
    pub fn new(c: f32, learning_rate: f32, iterations: usize, kappa: f32) -> Self {
        CarliniWagnerL2 {
            c,
            learning_rate,
            iterations,
            kappa,
        }
    }
}

impl Attack for CarliniWagnerL2 {
    fn name(&self) -> &'static str {
        "CWL2"
    }

    fn perturb(
        &self,
        network: &Network,
        input: &Tensor,
        label: usize,
    ) -> Result<AdversarialExample> {
        check_positive(self.c, "c")?;
        check_positive(self.learning_rate, "learning_rate")?;
        if self.iterations == 0 {
            return Err(AttackError::InvalidConfig(
                "iterations must be non-zero".into(),
            ));
        }
        let mut current = input.clone();
        let mut best: Option<Tensor> = None;
        let mut best_l2 = f32::INFINITY;
        for _ in 0..self.iterations {
            // One forward pass per iteration, shared by the margin and both
            // logit gradients.
            let trace = network.forward_trace(&current)?;
            let scores = trace.logits().as_slice();
            let (runner_up, _) = scores
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != label)
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .ok_or_else(|| {
                    AttackError::InvalidConfig("CW-L2 needs at least two classes".into())
                })?;
            let margin = scores[label] - scores[runner_up];

            if margin < 0.0 {
                // Already adversarial: remember the smallest-distortion success.
                let l2 = current.sub(input)?.l2_norm();
                if l2 < best_l2 {
                    best_l2 = l2;
                    best = Some(current.clone());
                }
            }

            // Gradient of the objective.
            let mut grad = current.sub(input)?.scale(2.0);
            if margin > -self.kappa {
                // d margin / dx = ∇Z_y − ∇Z_runner_up.
                let grad_margin = logit_gradient(network, &trace, label)?
                    .sub(&logit_gradient(network, &trace, runner_up)?)?;
                grad.add_scaled_inplace(&grad_margin, self.c)?;
            }
            current = current
                .sub(&grad.scale(self.learning_rate))?
                .clamp(0.0, 1.0);
        }
        let perturbed = best.unwrap_or(current);
        AdversarialExample::evaluate(network, input, perturbed, label)
    }
}

/// Gradient of a single logit with respect to the input the trace recorded.
fn logit_gradient(network: &Network, trace: &ForwardTrace, class: usize) -> Result<Tensor> {
    let mut grad_logits = Tensor::zeros(trace.logits().dims());
    grad_logits.as_mut_slice()[class] = 1.0;
    Ok(network.backward_input(trace, grad_logits, |_, _| Ok(()))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_nn::{zoo, TrainConfig, Trainer};

    fn trained_mlp() -> (Network, Vec<(Tensor, usize)>) {
        let mut rng = Rng64::new(11);
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
    fn fgsm_respects_epsilon_and_often_succeeds() {
        let (net, samples) = trained_mlp();
        let attack = Fgsm::new(0.4);
        let mut successes = 0;
        for (x, y) in samples.iter().take(10) {
            let ex = attack.perturb(&net, x, *y).unwrap();
            assert!(ex.distortion_linf <= 0.4 + 1e-5);
            assert!(ex.input.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
            if ex.success {
                successes += 1;
            }
        }
        assert!(
            successes > 0,
            "FGSM with a large budget should flip something"
        );
    }

    #[test]
    fn iterative_attacks_are_at_least_as_strong_as_fgsm() {
        let (net, samples) = trained_mlp();
        let eps = 0.25;
        let fgsm = Fgsm::new(eps);
        let bim = Bim::new(eps, 0.05, 10);
        let pgd = Pgd::new(eps, 0.05, 10, 3);
        let count = |attack: &dyn Attack| {
            samples
                .iter()
                .take(20)
                .filter(|(x, y)| attack.perturb(&net, x, *y).unwrap().success)
                .count()
        };
        let f = count(&fgsm);
        let b = count(&bim);
        let p = count(&pgd);
        assert!(
            b >= f,
            "BIM ({b}) should be at least as strong as FGSM ({f})"
        );
        assert!(p + 1 >= b, "PGD ({p}) should be comparable to BIM ({b})");
    }

    #[test]
    fn deepfool_crosses_the_boundary_with_bounded_distortion() {
        let (net, samples) = trained_mlp();
        let deepfool = DeepFool::new(30, 0.02);
        let mut df_success = 0;
        let mut success_mse = 0.0;
        for (x, y) in samples.iter().take(10) {
            let df = deepfool.perturb(&net, x, *y).unwrap();
            if df.success {
                df_success += 1;
                success_mse += df.distortion_mse;
            }
        }
        assert!(
            df_success >= 5,
            "DeepFool succeeded only {df_success}/10 times"
        );
        // DeepFool aims for the closest boundary: its successful perturbations stay
        // well below the distance between the two class prototypes (MSE ≈ 0.49).
        assert!(
            (success_mse / df_success as f32) < 0.45,
            "mean DeepFool MSE too large: {}",
            success_mse / df_success as f32
        );
    }

    #[test]
    fn cw_l2_finds_low_distortion_adversaries() {
        let (net, samples) = trained_mlp();
        let cw = CarliniWagnerL2::new(2.0, 0.05, 60, 0.0);
        let mut successes = 0;
        let mut total_mse = 0.0;
        for (x, y) in samples.iter().take(8) {
            let ex = cw.perturb(&net, x, *y).unwrap();
            if ex.success {
                successes += 1;
                total_mse += ex.distortion_mse;
            }
        }
        assert!(successes > 0, "CW-L2 should succeed on some inputs");
        assert!((total_mse / successes as f32) < 0.2);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let (net, samples) = trained_mlp();
        let (x, y) = &samples[0];
        assert!(Fgsm::new(0.0).perturb(&net, x, *y).is_err());
        assert!(Bim::new(0.1, 0.0, 5).perturb(&net, x, *y).is_err());
        assert!(Bim::new(0.1, 0.1, 0).perturb(&net, x, *y).is_err());
        assert!(Pgd::new(-1.0, 0.1, 5, 0).perturb(&net, x, *y).is_err());
        assert!(DeepFool::new(0, 0.02).perturb(&net, x, *y).is_err());
        assert!(CarliniWagnerL2::new(0.0, 0.1, 5, 0.0)
            .perturb(&net, x, *y)
            .is_err());
        assert_eq!(Fgsm::new(0.1).name(), "FGSM");
        assert_eq!(Bim::new(0.1, 0.1, 1).name(), "BIM");
        assert_eq!(Pgd::new(0.1, 0.1, 1, 0).name(), "PGD");
        assert_eq!(DeepFool::new(1, 0.02).name(), "DeepFool");
        assert_eq!(CarliniWagnerL2::new(1.0, 0.1, 1, 0.0).name(), "CWL2");
    }
}
