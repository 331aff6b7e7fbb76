use ptolemy_tensor::Tensor;

use crate::layer::{check_len, grad_batch, missing, Saved};
use crate::{Layer, LayerKind, Result};

/// The gradient through a ReLU: `grad` where the recorded activation — its
/// input `x` or its output `max(x, 0)`, both are positive at the same
/// places, NaN included — is positive, `0.0` elsewhere.
pub(crate) fn relu_mask(recorded: &Tensor, grad: &Tensor) -> Vec<f32> {
    let pairs = recorded.as_slice().iter().zip(grad.as_slice());
    pairs
        .map(|(v, g)| if *v > 0.0 { *g } else { 0.0 })
        .collect()
}

/// Rectified linear unit applied element-wise.
///
/// ReLU is a pass-through layer for path extraction: an important neuron in its
/// output maps directly onto the same position of its input.
#[derive(Debug, Clone)]
pub struct ReLU {
    shape: Vec<usize>,
}

impl ReLU {
    /// Creates a ReLU for inputs of the given per-sample shape.
    pub fn new(shape: &[usize]) -> Self {
        ReLU {
            shape: shape.to_vec(),
        }
    }
}

impl Layer for ReLU {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn output_shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn input_shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        crate::batch::check_batch(batch, &self.shape, self.name())?;
        // Element-wise: one map over the stacked buffer, trivially the same
        // bits per sample.
        Ok(batch.map(|v| v.max(0.0)))
    }

    /// Masks the gradient with the recorded output, or input: both are
    /// positive at the same places, NaN included.
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        _param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let len = self.output_len();
        let batch = grad_batch(grad_output, len, self.name())?;
        if !want_input {
            return Ok(None);
        }
        let recorded = saved
            .output
            .or(saved.input)
            .ok_or_else(|| missing(self.name(), "output"))?;
        check_len(recorded, batch, len, self.name())?;
        let gx = relu_mask(recorded, grad_output);
        let dims = [&[batch][..], &self.shape].concat();
        Ok(Some(Tensor::from_vec(gx, &dims)?))
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Activation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, decompose};

    #[test]
    fn forward_clamps_negatives() {
        let relu = ReLU::new(&[4]);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]).unwrap();
        assert_eq!(relu.forward(&x).unwrap().as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let relu = ReLU::new(&[3]);
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]).unwrap();
        let gy = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap();
        let g = backward(&relu, &x, &gy).unwrap();
        assert_eq!(g.0.as_slice(), &[0.0, 1.0, 1.0]);
        assert!(g.1.is_empty());
    }

    #[test]
    fn importance_passes_through_by_identity() {
        let relu = ReLU::new(&[3]);
        assert!(relu.kind().routes_by_identity());
        // The walk never asks it for partial sums or routes.
        assert!(decompose(&relu, &Tensor::ones(&[3]), 1).is_err());
    }

    #[test]
    fn shape_checked() {
        let relu = ReLU::new(&[2, 2]);
        assert!(relu.forward(&Tensor::ones(&[4])).is_err());
        assert_eq!(relu.kind(), LayerKind::Activation);
        assert_eq!(relu.output_len(), 4);
    }
}
