use ptolemy_tensor::Tensor;

use crate::layer::{grad_batch, Saved};
use crate::{Layer, LayerKind, Result};

/// Flattens a multi-dimensional activation into a vector.
///
/// Used between convolutional and dense stages.  Flattening is a pure reshape, so
/// importance passes straight through during path extraction.
#[derive(Debug, Clone)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer for the given per-sample input shape.
    pub fn new(input_shape: &[usize]) -> Self {
        Flatten {
            input_shape: input_shape.to_vec(),
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn output_shape(&self) -> Vec<usize> {
        vec![self.input_shape.iter().product()]
    }

    fn input_shape(&self) -> Vec<usize> {
        self.input_shape.clone()
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let batch_size = crate::batch::check_batch(batch, &self.input_shape, self.name())?;
        // A reshape per sample is a reshape of the whole stacked buffer.
        Ok(batch.reshape(&[batch_size, batch.len() / batch_size])?)
    }

    fn backward_batch(
        &self,
        _saved: Saved<'_>,
        grad_output: &Tensor,
        _param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let batch = grad_batch(grad_output, self.output_len(), self.name())?;
        if !want_input {
            return Ok(None);
        }
        let dims = [&[batch][..], &self.input_shape].concat();
        Ok(Some(grad_output.reshape(&dims)?))
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Reshape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, decompose};

    #[test]
    fn forward_flattens() {
        let f = Flatten::new(&[2, 2, 2]);
        let x = Tensor::ones(&[2, 2, 2]);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.dims(), &[8]);
        assert!(f.forward(&Tensor::ones(&[8])).is_err());
    }

    #[test]
    fn backward_restores_shape() {
        let f = Flatten::new(&[1, 2, 3]);
        let x = Tensor::ones(&[1, 2, 3]);
        let gy = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[6]).unwrap();
        let g = backward(&f, &x, &gy).unwrap();
        assert_eq!(g.0.dims(), &[1, 2, 3]);
        assert_eq!(g.0.as_slice(), gy.as_slice());
    }

    #[test]
    fn importance_passes_through_by_identity() {
        let f = Flatten::new(&[2, 2]);
        assert_eq!(f.kind(), LayerKind::Reshape);
        assert!(f.kind().routes_by_identity());
        assert!(decompose(&f, &Tensor::ones(&[2, 2]), 3).is_err());
    }
}
