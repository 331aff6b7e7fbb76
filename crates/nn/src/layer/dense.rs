use std::sync::OnceLock;

use ptolemy_tensor::{gemm_nn_into, par_row_chunks, Initializer, Rng64, Tensor};

use crate::batch::check_batch;
use crate::layer::{check_len, check_param_grads, grad_batch, Saved};
use crate::{Layer, LayerKind, NnError, Result, Sources};

/// Fully-connected layer: `y = W·x + b` with `W` of shape `[outputs, inputs]`.
///
/// The forward kernel multiplies by `Wᵀ`, which depends only on the weights:
/// it is transposed by the first forward pass after construction or after
/// [`Layer::params_mut`] handed the weights out, and reused until then (the
/// rule `Conv2d` keeps for its packed panels).
///
/// # Example
///
/// ```
/// use ptolemy_nn::layer::Dense;
/// use ptolemy_nn::Layer;
/// use ptolemy_tensor::{Rng64, Tensor};
///
/// # fn main() -> Result<(), ptolemy_nn::NnError> {
/// let mut rng = Rng64::new(0);
/// let layer = Dense::new(4, 2, &mut rng)?;
/// let y = layer.forward(&Tensor::ones(&[4]))?;
/// assert_eq!(y.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    inputs: usize,
    outputs: usize,
    /// `weightᵀ` (`[inputs, outputs]`); empty until a forward pass needs it,
    /// emptied again whenever `weight` may have changed.
    transposed: OnceLock<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either dimension is zero.
    pub fn new(inputs: usize, outputs: usize, rng: &mut Rng64) -> Result<Self> {
        if inputs == 0 || outputs == 0 {
            return Err(NnError::InvalidConfig(
                "dense layer dimensions must be non-zero".into(),
            ));
        }
        Ok(Dense {
            weight: Initializer::HeNormal { fan_in: inputs }.build(&[outputs, inputs], rng)?,
            bias: Tensor::zeros(&[outputs]),
            inputs,
            outputs,
            transposed: OnceLock::new(),
        })
    }

    /// Creates a dense layer from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        let dims = weight.dims().to_vec();
        if dims.len() != 2 || bias.dims() != [dims[0]] {
            return Err(NnError::InvalidConfig(format!(
                "dense weight {dims:?} and bias {:?} are inconsistent",
                bias.dims()
            )));
        }
        Ok(Dense {
            inputs: dims[1],
            outputs: dims[0],
            weight,
            bias,
            transposed: OnceLock::new(),
        })
    }

    /// The weight matrix (`[outputs, inputs]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector (`[outputs]`).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.len() != self.inputs {
            return Err(NnError::InvalidConfig(format!(
                "dense layer expects {} inputs, got {}",
                self.inputs,
                input.len()
            )));
        }
        Ok(())
    }

    /// The one dense kernel, behind `forward_batch`: `rows` stacked inputs
    /// (`xs`, row-major) times the weights, plus the bias.  Every row is
    /// prefilled with the bias and [`gemm_nn_into`] accumulates `X · Wᵀ` on
    /// top, so each output neuron is one bias-first, ascending-input chain —
    /// the same bits whatever `rows` is, which makes a single sample the batch
    /// of one.  Reading `Wᵀ` row by row, a batch of one updates every output
    /// at once per input instead of running one serial dot chain per output.
    fn affine(&self, xs: &[f32], rows: usize) -> Result<Vec<f32>> {
        let (inputs, outputs) = (self.inputs, self.outputs);
        let wt = match self.transposed.get() {
            Some(wt) => wt,
            None => {
                let wt = self.weight.transpose()?;
                self.transposed.get_or_init(|| wt)
            }
        };
        let wt = wt.as_slice();
        let mut out = Vec::with_capacity(rows * outputs);
        for _ in 0..rows {
            out.extend_from_slice(self.bias.as_slice());
        }
        let macs = rows * inputs * outputs;
        par_row_chunks(&mut out, rows, outputs, macs, |first, chunk| {
            let samples = chunk.len() / outputs;
            let x = &xs[first * inputs..(first + samples) * inputs];
            gemm_nn_into(chunk, x, wt, samples, inputs, outputs);
        });
        Ok(out)
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn output_shape(&self) -> Vec<usize> {
        vec![self.outputs]
    }

    fn input_shape(&self) -> Vec<usize> {
        vec![self.inputs]
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let batch_size = check_batch(batch, &[self.inputs], self.name())?;
        Ok(Tensor::from_vec(
            self.affine(batch.as_slice(), batch_size)?,
            &[batch_size, self.outputs],
        )?)
    }

    /// The input gradient `gy · W` is one GEMM over the batch
    /// ([`ptolemy_tensor::gemm_nn_into`]); the weight gradient is each
    /// sample's outer product `gy ⊗ x`, summed in sample order.
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let (inputs, outputs) = (self.inputs, self.outputs);
        let batch = grad_batch(grad_output, outputs, self.name())?;
        let gy = grad_output.as_slice();
        if let Some(grads) = param_grads {
            check_param_grads(grads, &self.params(), self.name())?;
            let input = saved.need_input(self.name())?;
            check_len(input, batch, inputs, self.name())?;
            if let [weight_grad, bias_grad] = grads {
                let (gw, gb) = (weight_grad.as_mut_slice(), bias_grad.as_mut_slice());
                let samples = gy
                    .chunks_exact(outputs)
                    .zip(input.as_slice().chunks_exact(inputs));
                for (b, (g, x)) in samples.enumerate() {
                    for (row, &gj) in gw.chunks_exact_mut(inputs).zip(g) {
                        for (w, xi) in row.iter_mut().zip(x) {
                            *w = if b == 0 { gj * xi } else { *w + gj * xi };
                        }
                    }
                    for (acc, &gj) in gb.iter_mut().zip(g) {
                        *acc = if b == 0 { gj } else { *acc + gj };
                    }
                }
            }
        }
        if !want_input {
            return Ok(None);
        }
        let mut gx = vec![0.0f32; batch * inputs];
        gemm_nn_into(&mut gx, gy, self.weight.as_slice(), batch, outputs, inputs);
        Ok(Some(Tensor::from_vec(gx, &[batch, inputs])?))
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        // The caller may rewrite the weights: the transpose is stale.
        self.transposed = OnceLock::new();
        vec![&mut self.weight, &mut self.bias]
    }

    fn partial_sums(
        &self,
        input: &Tensor,
        _interior: Option<&Tensor>,
        out_idxs: &[usize],
        values: &mut Vec<f32>,
        visit: &mut dyn FnMut(usize, &mut Vec<f32>, Sources<'_>),
    ) -> Result<()> {
        self.check_input(input)?;
        let x = input.as_slice();
        for &out_idx in out_idxs {
            if out_idx >= self.outputs {
                return Err(NnError::InvalidConfig(format!(
                    "output index {out_idx} out of range for {} outputs",
                    self.outputs
                )));
            }
            let row = &self.weight.as_slice()[out_idx * self.inputs..(out_idx + 1) * self.inputs];
            values.clear();
            values.extend(x.iter().zip(row).map(|(xi, wi)| xi * wi));
            visit(out_idx, values, Sources::identity(self.inputs));
        }
        Ok(())
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dense {
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, decompose};

    fn fixed_layer() -> Dense {
        // W = [[1, 2, 3], [0, -1, 1]], b = [0.5, -0.5]
        Dense::from_parts(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, -1.0, 1.0], &[2, 3]).unwrap(),
            Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn forward_matches_manual_computation() {
        let layer = fixed_layer();
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0], &[3]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[1.0 + 2.0 + 6.0 + 0.5, -1.0 + 2.0 - 0.5]);
    }

    #[test]
    fn contributions_sum_to_output_minus_bias() {
        let layer = fixed_layer();
        let x = Tensor::from_vec(vec![1.0, -1.0, 2.0], &[3]).unwrap();
        let y = layer.forward(&x).unwrap();
        for j in 0..2 {
            let pairs = decompose(&layer, &x, j).unwrap();
            let sum: f32 = pairs.iter().map(|(_, p)| p).sum();
            let expected = y.get(&[j]).unwrap() - layer.bias().get(&[j]).unwrap();
            assert!((sum - expected).abs() < 1e-5);
            assert_eq!(pairs.len(), 3);
        }
        assert!(decompose(&layer, &x, 2).is_err());
    }

    #[test]
    fn backward_gradients_match_numeric() {
        let mut rng = Rng64::new(9);
        let layer = Dense::new(4, 3, &mut rng).unwrap();
        let x = Tensor::from_vec(vec![0.2, -0.3, 0.5, 1.0], &[4]).unwrap();
        // Loss = sum(y); dL/dy = ones.
        let gy = Tensor::ones(&[3]);
        let grads = backward(&layer, &x, &gy).unwrap();

        let eps = 1e-3;
        // Numeric gradient w.r.t. input.
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (layer.forward(&xp).unwrap().sum() - layer.forward(&xm).unwrap().sum())
                / (2.0 * eps);
            let ana = grads.0.as_slice()[i];
            assert!((num - ana).abs() < 1e-2, "input grad {i}: {num} vs {ana}");
        }
        // Shapes of parameter gradients.
        assert_eq!(grads.1[0].dims(), &[3, 4]);
        assert_eq!(grads.1[1].dims(), &[3]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut rng = Rng64::new(1);
        assert!(Dense::new(0, 3, &mut rng).is_err());
        let layer = Dense::new(4, 2, &mut rng).unwrap();
        assert!(layer.forward(&Tensor::ones(&[3])).is_err());
        assert!(backward(&layer, &Tensor::ones(&[4]), &Tensor::ones(&[3])).is_err());
        assert!(Dense::from_parts(Tensor::zeros(&[2, 3]), Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn kind_reports_dimensions() {
        let mut rng = Rng64::new(2);
        let layer = Dense::new(5, 7, &mut rng).unwrap();
        assert_eq!(
            layer.kind(),
            LayerKind::Dense {
                inputs: 5,
                outputs: 7
            }
        );
        assert_eq!(layer.input_len(), 5);
        assert_eq!(layer.output_len(), 7);
        assert_eq!(layer.params().len(), 2);
    }
}
