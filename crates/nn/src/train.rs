//! Mini-batch SGD training with momentum.

use ptolemy_tensor::{Rng64, Tensor};

use crate::trace::TraceRecorder;
use crate::{cross_entropy_loss, softmax_cross_entropy_grad, Network, NnError, Result};

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
            seed: 0x9e3779b9,
        }
    }
}

/// Summary statistics returned by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub final_accuracy: f32,
}

/// Mini-batch SGD trainer for [`Network`].
///
/// # Example
///
/// ```
/// use ptolemy_nn::{zoo, TrainConfig, Trainer};
/// use ptolemy_tensor::{Rng64, Tensor};
///
/// # fn main() -> Result<(), ptolemy_nn::NnError> {
/// let mut rng = Rng64::new(1);
/// let mut net = zoo::mlp_net(&[4], 2, &mut rng)?;
/// let samples = vec![
///     (Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0], &[4])?, 0),
///     (Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[4])?, 1),
/// ];
/// let report = Trainer::new(TrainConfig { epochs: 30, ..TrainConfig::default() })
///     .fit(&mut net, &samples)?;
/// assert!(report.final_accuracy >= 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    velocity: Option<Vec<Vec<Tensor>>>,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            velocity: None,
        }
    }

    /// The configuration this trainer uses.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `network` on `(input, label)` samples.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyDataset`] for an empty sample slice,
    /// [`NnError::InvalidLabel`] if a label exceeds the network's class count, and
    /// propagates shape errors from the forward/backward passes.
    pub fn fit(
        &mut self,
        network: &mut Network,
        samples: &[(Tensor, usize)],
    ) -> Result<TrainReport> {
        if samples.is_empty() {
            return Err(NnError::EmptyDataset);
        }
        for (_, label) in samples {
            if *label >= network.num_classes() {
                return Err(NnError::InvalidLabel {
                    label: *label,
                    num_classes: network.num_classes(),
                });
            }
        }
        let mut rng = Rng64::new(self.config.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);

        for _ in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(self.config.batch_size.max(1)) {
                epoch_loss += self.train_batch(network, samples, batch)? * batch.len() as f32;
            }
            epoch_losses.push(epoch_loss / samples.len() as f32);
        }

        Ok(TrainReport {
            epoch_losses,
            final_accuracy: self.evaluate(network, samples)?,
        })
    }

    /// Evaluates classification accuracy on a sample set.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyDataset`] if `samples` is empty.
    pub fn evaluate(&self, network: &Network, samples: &[(Tensor, usize)]) -> Result<f32> {
        if samples.is_empty() {
            return Err(NnError::EmptyDataset);
        }
        let correct = samples
            .iter()
            .filter(|(x, y)| network.predict(x).map(|p| p == *y).unwrap_or(false))
            .count();
        Ok(correct as f32 / samples.len() as f32)
    }

    /// One SGD step on the minibatch `batch` (indices into `samples`): one
    /// fused forward pass recording every stacked boundary, then one batched
    /// backward pass whose kernels sum each parameter's gradient over the
    /// minibatch in sample order.  Returns the minibatch's mean loss.
    fn train_batch(
        &mut self,
        network: &mut Network,
        samples: &[(Tensor, usize)],
        batch: &[usize],
    ) -> Result<f32> {
        let inputs: Vec<Tensor> = batch.iter().map(|&i| samples[i].0.clone()).collect();
        let mut recorder = TraceRecorder::with_capacity(network.num_layers());
        let logits = network.forward_with_sink_batch(&inputs, &mut recorder)?;
        let classes = network.num_classes();
        let mut batch_loss = 0.0;
        let mut grad_logits = Vec::with_capacity(logits.len());
        for (row, &idx) in logits.as_slice().chunks_exact(classes).zip(batch) {
            let row = Tensor::from_vec(row.to_vec(), &[classes])?;
            let label = samples[idx].1;
            batch_loss += cross_entropy_loss(&row, label)?;
            grad_logits.extend_from_slice(softmax_cross_entropy_grad(&row, label)?.as_slice());
        }
        let grad_logits = Tensor::from_vec(grad_logits, logits.dims())?;
        let mut grads = network.param_grad_buffers();
        network.backward_params(&recorder.into_trace(logits)?, grad_logits, &mut grads)?;
        let scale = 1.0 / batch.len() as f32;
        for g in grads.iter_mut().flatten() {
            g.map_inplace(|v| v * scale);
        }

        // Momentum update: v = momentum * v + g; p -= lr * v.  The first
        // step's velocity is the gradient itself.
        let momentum = self.config.momentum;
        let update = match self.velocity.take() {
            Some(mut velocity) if momentum > 0.0 => {
                for (v, g) in velocity.iter_mut().flatten().zip(grads.iter().flatten()) {
                    v.map_inplace(|x| x * momentum);
                    v.add_scaled_inplace(g, 1.0)?;
                }
                velocity
            }
            _ => grads,
        };
        network.apply_gradients(&update, self.config.learning_rate)?;
        if momentum > 0.0 {
            self.velocity = Some(update);
        }
        Ok(batch_loss / batch.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn toy_dataset(rng: &mut Rng64, per_class: usize) -> Vec<(Tensor, usize)> {
        // Two linearly separable Gaussian blobs in 6 dimensions.
        let mut samples = Vec::new();
        for class in 0..2usize {
            let centre = if class == 0 { 1.0 } else { -1.0 };
            for _ in 0..per_class {
                let data: Vec<f32> = (0..6).map(|_| centre + 0.3 * rng.normal()).collect();
                samples.push((Tensor::from_vec(data, &[6]).unwrap(), class));
            }
        }
        samples
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let mut rng = Rng64::new(42);
        let samples = toy_dataset(&mut rng, 30);
        let mut net = zoo::mlp_net(&[6], 2, &mut rng).unwrap();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 15,
            batch_size: 8,
            learning_rate: 0.1,
            momentum: 0.9,
            seed: 1,
        });
        let report = trainer.fit(&mut net, &samples).unwrap();
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
        assert!(
            report.final_accuracy > 0.9,
            "accuracy {}",
            report.final_accuracy
        );
        assert!(trainer.evaluate(&net, &samples).unwrap() > 0.9);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut rng = Rng64::new(0);
        let mut net = zoo::mlp_net(&[6], 2, &mut rng).unwrap();
        let mut trainer = Trainer::new(TrainConfig::default());
        assert_eq!(
            trainer.fit(&mut net, &[]).unwrap_err(),
            NnError::EmptyDataset
        );
        assert!(trainer.evaluate(&net, &[]).is_err());
    }

    #[test]
    fn out_of_range_label_is_rejected() {
        let mut rng = Rng64::new(0);
        let mut net = zoo::mlp_net(&[6], 2, &mut rng).unwrap();
        let samples = vec![(Tensor::ones(&[6]), 5usize)];
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(matches!(
            trainer.fit(&mut net, &samples),
            Err(NnError::InvalidLabel { .. })
        ));
    }

    #[test]
    fn momentum_free_training_also_learns() {
        let mut rng = Rng64::new(7);
        let samples = toy_dataset(&mut rng, 20);
        let mut net = zoo::mlp_net(&[6], 2, &mut rng).unwrap();
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 20,
            momentum: 0.0,
            learning_rate: 0.2,
            batch_size: 4,
            seed: 3,
        });
        let report = trainer.fit(&mut net, &samples).unwrap();
        assert!(report.final_accuracy > 0.85);
    }
}
