use std::sync::OnceLock;

use ptolemy_tensor::{
    conv2d_backward_input, conv2d_backward_params, conv2d_forward, Conv2dGeometry, Initializer,
    PackedWeights, Rng64, Tensor,
};

use crate::batch::check_batch;
use crate::layer::{check_len, check_param_grads, grad_batch, Saved};
use crate::{Decompositions, Layer, LayerKind, NnError, Result};

/// 2-D convolution over CHW activations: one fused kernel
/// ([`conv2d_forward`]) over a stacked batch (a single sample is the batch of
/// one), bit-for-bit `im2col` + matmul + bias.  The kernel is an implicit
/// GEMM: it builds no patch matrix, and its register tile reads each
/// receptive field straight from the sample (copied once with its zero border
/// written out) through a per-geometry table of tap offsets, in patch order.
///
/// The weight tensor is stored as `[out_channels, in_channels * k * k]`, i.e. one
/// flattened kernel per output channel, which makes the per-output-neuron partial
/// sums (the quantity Ptolemy extracts, Fig. 3 middle panel) directly addressable:
/// output neuron `(oc, oy, ox)` receives partial sum `w[oc][p] * patch[p]` from the
/// `p`-th element of its receptive field.
///
/// The kernel multiplies against the weights' packed panels (for the tile
/// orientation the layer's geometry takes), which depend only on the
/// weights and the geometry: they are packed by the first forward pass
/// after construction or after [`Layer::params_mut`] handed the weights out
/// (never eagerly — training mutates them every step), and reused by every
/// pass until then.  The backward kernel keeps the transposed weights'
/// panels under the same rule.
///
/// # Example
///
/// ```
/// use ptolemy_nn::layer::Conv2d;
/// use ptolemy_nn::Layer;
/// use ptolemy_tensor::{Rng64, Tensor};
///
/// # fn main() -> Result<(), ptolemy_nn::NnError> {
/// let mut rng = Rng64::new(0);
/// let conv = Conv2d::new(3, 4, 8, 8, 3, 1, 1, &mut rng)?;
/// let y = conv.forward(&Tensor::ones(&[3, 8, 8]))?;
/// assert_eq!(y.dims(), &[4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    geom: Conv2dGeometry,
    out_channels: usize,
    /// `weight` packed for the fused kernel; empty until a forward pass needs
    /// it, emptied again whenever `weight` may have changed.
    packed: OnceLock<PackedWeights>,
    /// `weightᵀ` packed for the backward kernel, under the same rule.
    packed_t: OnceLock<PackedWeights>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// Arguments: input channels / output channels / input height / input width /
    /// square kernel size / stride / padding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channel counts and propagates
    /// geometry errors (kernel larger than the padded input, zero stride).
    #[allow(
        clippy::too_many_arguments,
        reason = "the constructor takes the convolution's full geometry"
    )]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng64,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 {
            return Err(NnError::InvalidConfig(
                "conv2d channel counts must be non-zero".into(),
            ));
        }
        let geom = Conv2dGeometry::new(in_channels, in_h, in_w, kernel, stride, padding)?;
        let fan_in = geom.patch_len();
        Ok(Conv2d {
            weight: Initializer::HeNormal { fan_in }.build(&[out_channels, fan_in], rng)?,
            bias: Tensor::zeros(&[out_channels]),
            geom,
            out_channels,
            packed: OnceLock::new(),
            packed_t: OnceLock::new(),
        })
    }

    /// Convolution geometry (input/output sizes, kernel, stride, padding).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Flattened kernels, shape `[out_channels, in_channels * k * k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Per-output-channel biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The fused kernel over a stacked batch (shape already checked), against
    /// the packed weights of the current weight version.
    fn convolve(&self, samples: &Tensor) -> Result<Vec<f32>> {
        let packed = match self.packed.get() {
            Some(packed) => packed,
            None => {
                let packed = PackedWeights::pack(&self.weight, &self.geom)?;
                self.packed.get_or_init(|| packed)
            }
        };
        Ok(conv2d_forward(
            samples,
            &self.geom,
            packed,
            self.bias.as_slice(),
        )?)
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        let expected = [self.geom.in_channels, self.geom.in_h, self.geom.in_w];
        if input.dims() != expected {
            return Err(NnError::InvalidConfig(format!(
                "conv2d expects shape {expected:?}, got {:?}",
                input.dims()
            )));
        }
        Ok(())
    }
}

/// The kernel offsets whose taps, from window corner `at` (before padding),
/// land inside an input dimension of `len`: [`Conv2dGeometry::patch_source`]'s
/// bounds check, hoisted out of the tap loop.
fn taps(at: usize, len: usize, g: &Conv2dGeometry) -> std::ops::Range<usize> {
    g.padding.saturating_sub(at)..(len + g.padding).saturating_sub(at).min(g.kernel)
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn output_shape(&self) -> Vec<usize> {
        vec![self.out_channels, self.geom.out_h, self.geom.out_w]
    }

    fn input_shape(&self) -> Vec<usize> {
        vec![self.geom.in_channels, self.geom.in_h, self.geom.in_w]
    }

    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor> {
        let geom = &self.geom;
        let batch_size = check_batch(
            batch,
            &[geom.in_channels, geom.in_h, geom.in_w],
            self.name(),
        )?;
        Ok(Tensor::from_vec(
            self.convolve(batch)?,
            &[
                batch_size,
                self.out_channels,
                self.geom.out_h,
                self.geom.out_w,
            ],
        )?)
    }

    /// The input gradient is one GEMM over the whole batch against the
    /// transposed weights, packed once per weight version; the parameter gradients
    /// run per sample and are skipped when not asked for
    /// (`ptolemy_tensor::conv2d_backward_input` / `conv2d_backward_params`).
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let batch = grad_batch(grad_output, self.output_len(), self.name())?;
        let gy = grad_output.as_slice();
        if let Some(grads) = param_grads {
            check_param_grads(grads, &self.params(), self.name())?;
            let input = saved.need_input(self.name())?;
            check_len(input, batch, self.input_len(), self.name())?;
            if let [weight_grad, bias_grad] = grads {
                conv2d_backward_params(
                    gy,
                    input.as_slice(),
                    &self.geom,
                    weight_grad.as_mut_slice(),
                    bias_grad.as_mut_slice(),
                )?;
            }
        }
        if !want_input {
            return Ok(None);
        }
        let weights_t = match self.packed_t.get() {
            Some(packed) => packed,
            None => {
                let packed = PackedWeights::pack_transposed(&self.weight)?;
                self.packed_t.get_or_init(|| packed)
            }
        };
        let grad_input = conv2d_backward_input(gy, &self.geom, weights_t)?;
        let dims = [&[batch][..], &self.input_shape()].concat();
        Ok(Some(Tensor::from_vec(grad_input, &dims)?))
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        // The caller may rewrite the weights: the packed panels are stale.
        self.packed = OnceLock::new();
        self.packed_t = OnceLock::new();
        vec![&mut self.weight, &mut self.bias]
    }

    fn contributions_many(
        &self,
        input: &Tensor,
        _interior: Option<&Tensor>,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<()> {
        self.check_input(input)?;
        let patches = self.geom.num_patches();
        let patch_len = self.geom.patch_len();
        let x = input.as_slice();
        for &out_idx in out_idxs {
            if out_idx >= self.out_channels * patches {
                return Err(NnError::InvalidConfig(format!(
                    "conv2d output index {out_idx} out of range"
                )));
            }
            let oc = out_idx / patches;
            let pos = out_idx % patches;
            let oy = pos / self.geom.out_w;
            let ox = pos % self.geom.out_w;
            let w_row = &self.weight.as_slice()[oc * patch_len..(oc + 1) * patch_len];
            let g = &self.geom;
            // Window corner before padding; tap (ky, kx) reads input row
            // `y0 + ky - padding`, column `x0 + kx - padding`.
            let (y0, x0) = (oy * g.stride, ox * g.stride);
            let (ys, xs) = (taps(y0, g.in_h, g), taps(x0, g.in_w, g));
            // Patch order (channel, kernel row, kernel column), padding
            // skipped: `patch_source`'s order and products, bit for bit.
            out.push_with(|pairs| {
                for c in 0..g.in_channels {
                    for ky in ys.clone() {
                        let row = (c * g.in_h + y0 + ky - g.padding) * g.in_w;
                        let w = &w_row[(c * g.kernel + ky) * g.kernel..];
                        for kx in xs.clone() {
                            let idx = row + x0 + kx - g.padding;
                            pairs.push((idx, x[idx] * w[kx]));
                        }
                    }
                }
            });
        }
        Ok(())
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv2d {
            geometry: self.geom,
            out_channels: self.out_channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward, decompose};

    #[test]
    fn forward_shape_and_identity_kernel() {
        let mut rng = Rng64::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 1, 1, 0, &mut rng).unwrap();
        // Make the 1x1 kernel an identity.
        *conv.params_mut()[0] = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 3, 3]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn forward_matches_manual_3x3() {
        let mut rng = Rng64::new(1);
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 0, &mut rng).unwrap();
        *conv.params_mut()[0] = Tensor::ones(&[1, 9]);
        *conv.params_mut()[1] = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert!((y.as_slice()[0] - 45.5).abs() < 1e-5);
    }

    #[test]
    fn contributions_sum_to_output_minus_bias() {
        let mut rng = Rng64::new(2);
        let conv = Conv2d::new(2, 3, 5, 5, 3, 1, 1, &mut rng).unwrap();
        let x = Initializer::Uniform(1.0)
            .build(&[2, 5, 5], &mut rng)
            .unwrap();
        let y = conv.forward(&x).unwrap();
        for out_idx in [0usize, 7, 24, 74] {
            let oc = out_idx / 25;
            let pairs = decompose(&conv, &x, out_idx).unwrap();
            let sum: f32 = pairs.iter().map(|(_, p)| p).sum();
            let expected = y.as_slice()[out_idx] - conv.bias.as_slice()[oc];
            assert!(
                (sum - expected).abs() < 1e-4,
                "neuron {out_idx}: {sum} vs {expected}"
            );
            // Padding positions must be excluded, so at most patch_len pairs.
            assert!(pairs.len() <= conv.geometry().patch_len());
        }
    }

    /// The hoisted tap loop is the per-tap `patch_source` walk, bit for bit,
    /// across strides, paddings (wider than the kernel too) and kernels.
    #[test]
    fn contributions_match_the_patch_source_walk() {
        let mut rng = Rng64::new(7);
        for (kernel, stride, padding) in [(1, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 2), (5, 1, 2)] {
            let conv = Conv2d::new(2, 3, 6, 5, kernel, stride, padding, &mut rng).unwrap();
            let x = Initializer::Uniform(1.0)
                .build(&[2, 6, 5], &mut rng)
                .unwrap();
            let g = conv.geometry();
            for out_idx in 0..conv.output_len() {
                let (oc, pos) = (out_idx / g.num_patches(), out_idx % g.num_patches());
                let (oy, ox) = (pos / g.out_w, pos % g.out_w);
                let w = &conv.weight.as_slice()[oc * g.patch_len()..(oc + 1) * g.patch_len()];
                let reference: Vec<(usize, u32)> = (0..g.patch_len())
                    .filter_map(|p| {
                        let (c, y, xx) = g.patch_source(oy, ox, p)?;
                        let idx = g.input_index(c, y, xx);
                        Some((idx, (x.as_slice()[idx] * w[p]).to_bits()))
                    })
                    .collect();
                let pairs = decompose(&conv, &x, out_idx).unwrap();
                let bits: Vec<(usize, u32)> =
                    pairs.iter().map(|(i, p)| (*i, p.to_bits())).collect();
                assert_eq!(
                    bits, reference,
                    "k {kernel} s {stride} p {padding} out {out_idx}"
                );
            }
        }
    }

    #[test]
    fn backward_input_gradient_matches_numeric() {
        let mut rng = Rng64::new(3);
        let conv = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng).unwrap();
        let x = Initializer::Uniform(1.0)
            .build(&[1, 4, 4], &mut rng)
            .unwrap();
        let gy = Tensor::ones(&[2, 4, 4]);
        let grads = backward(&conv, &x, &gy).unwrap();
        let eps = 1e-3;
        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num =
                (conv.forward(&xp).unwrap().sum() - conv.forward(&xm).unwrap().sum()) / (2.0 * eps);
            let ana = grads.0.as_slice()[i];
            assert!((num - ana).abs() < 1e-2, "grad {i}: {num} vs {ana}");
        }
    }

    #[test]
    fn backward_weight_gradient_matches_numeric() {
        let mut rng = Rng64::new(4);
        let mut conv = Conv2d::new(1, 1, 3, 3, 2, 1, 0, &mut rng).unwrap();
        let x = Initializer::Uniform(1.0)
            .build(&[1, 3, 3], &mut rng)
            .unwrap();
        let gy = Tensor::ones(&[1, 2, 2]);
        let grads = backward(&conv, &x, &gy).unwrap();
        let eps = 1e-3;
        for wi in 0..4 {
            let orig = conv.weight.as_slice()[wi];
            conv.params_mut()[0].as_mut_slice()[wi] = orig + eps;
            let plus = conv.forward(&x).unwrap().sum();
            conv.params_mut()[0].as_mut_slice()[wi] = orig - eps;
            let minus = conv.forward(&x).unwrap().sum();
            conv.params_mut()[0].as_mut_slice()[wi] = orig;
            let num = (plus - minus) / (2.0 * eps);
            let ana = grads.1[0].as_slice()[wi];
            assert!((num - ana).abs() < 1e-2, "weight grad {wi}: {num} vs {ana}");
        }
        // Bias gradient is the number of output positions (sum of ones).
        assert!((grads.1[1].as_slice()[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_invalid_configuration() {
        let mut rng = Rng64::new(5);
        assert!(Conv2d::new(0, 1, 4, 4, 3, 1, 1, &mut rng).is_err());
        assert!(Conv2d::new(1, 1, 2, 2, 5, 1, 0, &mut rng).is_err());
        let conv = Conv2d::new(1, 1, 4, 4, 3, 1, 1, &mut rng).unwrap();
        assert!(conv.forward(&Tensor::ones(&[1, 3, 3])).is_err());
        assert!(decompose(&conv, &Tensor::ones(&[1, 4, 4]), 1000).is_err());
    }

    #[test]
    fn kind_reports_geometry() {
        let mut rng = Rng64::new(6);
        let conv = Conv2d::new(3, 8, 16, 16, 3, 1, 1, &mut rng).unwrap();
        match conv.kind() {
            LayerKind::Conv2d {
                geometry,
                out_channels,
            } => {
                assert_eq!(out_channels, 8);
                assert_eq!(geometry.out_h, 16);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(conv.output_len(), 8 * 16 * 16);
    }
}
