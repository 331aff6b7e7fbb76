//! Int8 quantized inference: calibration, [`QuantizedNetwork`] and its
//! integer forward pass.
//!
//! # Contract
//!
//! Unlike every other fast path in this workspace, the quantized path is
//! **not** bit-parity pinned against f32 inference — rounding activations and
//! weights to 8 bits changes logits, and occasionally verdicts, *by design*.
//! Its contract is behavioural and measured: the `quantized_detect` benchmark
//! gates the activation-path agreement rate and the detection-AUC delta
//! against f32.  What *is* guaranteed here is determinism — i32 accumulation
//! is exact, so the quantized path produces identical results across runs,
//! thread counts and (unlike f32) even re-association.
//!
//! # Scheme
//!
//! Per-tensor symmetric scales ([`QuantParams`], zero-point 0):
//!
//! * **Weights** are quantized once at build time from their own max-abs.
//! * **Activations** get per-layer-input scales from a calibration pass: the
//!   f32 network runs over a user-supplied calibration set while a
//!   [`TraceSink`] records each activation boundary's max-abs.
//!
//! Each quantized layer computes `i8 · i8 → i32` (exact), then requantizes on
//! output: `acc * s_act * s_weight + bias` in f32.  The network therefore
//! carries ordinary f32 activations between layers, which keeps every
//! non-weight layer (ReLU, pooling, reshape) byte-identical to the f32 path
//! and lets the standard [`ForwardTrace`] / path-extraction machinery consume
//! quantized runs unchanged.  `Residual` blocks and any layer whose
//! parameters don't follow the `[weight, bias]` convention simply run their
//! f32 `forward` — quantization is per-layer opportunistic, never required.
//!
//! # Kernels and batching
//!
//! All integer matmuls route through the blocked, register-tiled i8 GEMM in
//! `ptolemy_tensor::gemm_i8`; conv inputs lower through the fused int8
//! `im2col` (`ptolemy_tensor::im2col_i8`), which quantizes while packing
//! instead of staging an f32 column matrix.  Because i32 accumulation is
//! exact, the blocked/fused kernels are *bit-identical* to the naive
//! references — the kernel swap changes throughput, never results.  The same
//! exactness makes [`QuantizedNetwork::forward_batch`] trivially parity-safe:
//! sample `b` of a fused batch equals `forward(&inputs[b])` bit-for-bit, the
//! same widening-only contract as the f32 `Network::forward_batch`.

use std::sync::Arc;

use ptolemy_tensor::gemm_i8::{matmul_i8_blocked_nt, matmul_i8_parallel, matmul_i8_parallel_nt};
use ptolemy_tensor::quant::{quantize_slice, tensor_max_abs, QuantParams};
use ptolemy_tensor::{im2col_i8, im2col_i8_batch, Conv2dGeometry, Tensor};

use crate::batch::check_batch;
use crate::trace::predicted_class;
use crate::{BatchTrace, ForwardTrace, LayerKind, Network, NnError, Result, TraceSink};

/// One layer's pre-quantized integer kernel.
#[derive(Debug, Clone)]
enum QuantKernel {
    /// Dense: `qweight` is `[outputs, inputs]` row-major i8.
    Dense {
        qweight: Vec<i8>,
        wparams: QuantParams,
        bias: Vec<f32>,
        inputs: usize,
        outputs: usize,
    },
    /// Conv2d: `qweight` is `[out_channels, patch_len]` row-major i8.
    Conv {
        qweight: Vec<i8>,
        wparams: QuantParams,
        bias: Vec<f32>,
        geometry: Conv2dGeometry,
        out_channels: usize,
    },
}

/// A layer slot: integer kernel plus the calibrated input-activation scale,
/// or `None` for layers that run the f32 path.
#[derive(Debug, Clone)]
struct QuantSlot {
    kernel: QuantKernel,
    act: QuantParams,
}

/// Records the max-abs of every activation boundary across calibration runs.
#[derive(Debug)]
struct MaxAbsSink {
    maxes: Vec<f32>,
}

impl TraceSink for MaxAbsSink {
    fn on_input(&mut self, input: &Tensor) {
        self.maxes[0] = self.maxes[0].max(tensor_max_abs(input));
    }

    fn on_layer(&mut self, index: usize, output: &Tensor) {
        self.maxes[index + 1] = self.maxes[index + 1].max(tensor_max_abs(output));
    }
}

/// An int8-quantized view of a [`Network`]: weight layers run integer GEMMs
/// with calibrated activation scales, everything else runs the original f32
/// layer.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use ptolemy_nn::{zoo, QuantizedNetwork};
/// use ptolemy_tensor::{Initializer, Rng64};
///
/// # fn main() -> Result<(), ptolemy_nn::NnError> {
/// let mut rng = Rng64::new(7);
/// let network = Arc::new(zoo::mlp_net(&[16], 4, &mut rng)?);
/// let calibration: Vec<_> = (0..4)
///     .map(|_| Initializer::Uniform(1.0).build(network.input_shape(), &mut rng))
///     .collect::<Result<_, _>>()?;
/// let qnet = QuantizedNetwork::quantize(network.clone(), &calibration)?;
/// let logits = qnet.forward(&calibration[0])?;
/// assert_eq!(logits.len(), network.num_classes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    network: Arc<Network>,
    slots: Vec<Option<QuantSlot>>,
}

impl QuantizedNetwork {
    /// Quantizes `network`: calibrates per-boundary activation scales by
    /// running the f32 network over `calibration`, then pre-quantizes every
    /// dense / conv weight tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `calibration` is empty, and
    /// propagates forward errors from the calibration runs (e.g. inputs of
    /// the wrong shape).
    pub fn quantize(network: Arc<Network>, calibration: &[Tensor]) -> Result<Self> {
        if calibration.is_empty() {
            return Err(NnError::InvalidConfig(
                "quantization needs at least one calibration input".into(),
            ));
        }
        let mut sink = MaxAbsSink {
            maxes: vec![0.0; network.num_layers() + 1],
        };
        for input in calibration {
            network.forward_with_sink(input, &mut sink)?;
        }
        let slots = network
            .layers()
            .enumerate()
            .map(|(i, layer)| {
                let act = QuantParams::from_max_abs(sink.maxes[i]);
                Self::build_kernel(layer.kind(), layer.params())
                    .map(|kernel| QuantSlot { kernel, act })
            })
            .collect();
        Ok(QuantizedNetwork { network, slots })
    }

    /// Builds the integer kernel for a layer, or `None` when the layer kind
    /// (or its parameter layout) doesn't support quantization.
    fn build_kernel(kind: LayerKind, params: Vec<&Tensor>) -> Option<QuantKernel> {
        let [weight, bias] = params.as_slice() else {
            return None;
        };
        let wparams = QuantParams::from_max_abs(tensor_max_abs(weight));
        let qweight = quantize_slice(weight.as_slice(), wparams);
        let bias = bias.as_slice().to_vec();
        match kind {
            LayerKind::Dense { inputs, outputs } => Some(QuantKernel::Dense {
                qweight,
                wparams,
                bias,
                inputs,
                outputs,
            }),
            LayerKind::Conv2d {
                geometry,
                out_channels,
            } => Some(QuantKernel::Conv {
                qweight,
                wparams,
                bias,
                geometry,
                out_channels,
            }),
            _ => None,
        }
    }

    /// The underlying f32 network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// Number of layers running the integer kernel (the rest run f32).
    pub fn num_quantized_layers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn forward_layer(
        &self,
        index: usize,
        layer: &dyn crate::Layer,
        input: &Tensor,
    ) -> Result<Tensor> {
        let Some(slot) = &self.slots[index] else {
            return layer.forward(input);
        };
        match &slot.kernel {
            QuantKernel::Dense {
                qweight,
                wparams,
                bias,
                inputs,
                outputs,
            } => {
                if input.len() != *inputs {
                    return layer.forward(input);
                }
                let qx = quantize_slice(input.as_slice(), slot.act);
                let acc = matmul_i8_blocked_nt(&qx, qweight, 1, *inputs, *outputs)?;
                let scale = slot.act.scale() * wparams.scale();
                let out: Vec<f32> = acc
                    .iter()
                    .zip(bias)
                    .map(|(a, b)| *a as f32 * scale + b)
                    .collect();
                Ok(Tensor::from_vec(out, &[*outputs])?)
            }
            QuantKernel::Conv {
                qweight,
                wparams,
                bias,
                geometry,
                out_channels,
            } => {
                let expected = [geometry.in_channels, geometry.in_h, geometry.in_w];
                if input.dims() != expected {
                    return layer.forward(input);
                }
                let qcols = im2col_i8(input, geometry, slot.act)?;
                let patches = geometry.num_patches();
                let patch_len = geometry.patch_len();
                let acc = matmul_i8_parallel(qweight, &qcols, *out_channels, patch_len, patches)?;
                let scale = slot.act.scale() * wparams.scale();
                let mut out = vec![0.0f32; out_channels * patches];
                for (oc, (chunk, b)) in out.chunks_mut(patches).zip(bias).enumerate() {
                    let row = &acc[oc * patches..(oc + 1) * patches];
                    for (o, a) in chunk.iter_mut().zip(row) {
                        *o = *a as f32 * scale + b;
                    }
                }
                Ok(Tensor::from_vec(
                    out,
                    &[*out_channels, geometry.out_h, geometry.out_w],
                )?)
            }
        }
    }

    /// Batched twin of [`Self::forward_layer`]: runs one fused integer kernel
    /// over a stacked `[B] ++ sample_shape` boundary.  Row `b` of the output
    /// is bit-for-bit `forward_layer` of sample `b` — i32 accumulation is
    /// exact, so fusing the batch into one GEMM cannot change results, and
    /// the requantization expression is textually the single-input one.
    fn forward_layer_batch(
        &self,
        index: usize,
        layer: &dyn crate::Layer,
        batch: &Tensor,
    ) -> Result<Tensor> {
        let Some(slot) = &self.slots[index] else {
            return layer.forward_batch(batch);
        };
        match &slot.kernel {
            QuantKernel::Dense {
                qweight,
                wparams,
                bias,
                inputs,
                outputs,
            } => {
                if check_batch(batch, &[*inputs], "quantized dense").is_err() {
                    return layer.forward_batch(batch);
                }
                let b_sz = batch.dims()[0];
                // One quantization sweep over the whole [B, inputs] slab: the
                // per-element expression is identical to the single-input
                // path's, so slicing the batch preserves bits.
                let qx = quantize_slice(batch.as_slice(), slot.act);
                let acc = matmul_i8_parallel_nt(&qx, qweight, b_sz, *inputs, *outputs)?;
                let scale = slot.act.scale() * wparams.scale();
                let mut out = vec![0.0f32; b_sz * *outputs];
                for (orow, arow) in out.chunks_mut(*outputs).zip(acc.chunks(*outputs)) {
                    for ((o, a), b) in orow.iter_mut().zip(arow).zip(bias) {
                        *o = *a as f32 * scale + b;
                    }
                }
                Ok(Tensor::from_vec(out, &[b_sz, *outputs])?)
            }
            QuantKernel::Conv {
                qweight,
                wparams,
                bias,
                geometry,
                out_channels,
            } => {
                let expected = [geometry.in_channels, geometry.in_h, geometry.in_w];
                if check_batch(batch, &expected, "quantized conv").is_err() {
                    return layer.forward_batch(batch);
                }
                let b_sz = batch.dims()[0];
                let patches = geometry.num_patches();
                let patch_len = geometry.patch_len();
                // Fused batched int8 im2col: column `b * patches + j` is
                // bit-for-bit column `j` of the per-sample lowering.
                let qcols = im2col_i8_batch(batch, geometry, slot.act)?;
                let cols = b_sz * patches;
                let acc = matmul_i8_parallel(qweight, &qcols, *out_channels, patch_len, cols)?;
                let scale = slot.act.scale() * wparams.scale();
                // Re-layout [out_c, B * patches] -> [B, out_c, out_h, out_w],
                // requantizing on the way out.
                let mut out = vec![0.0f32; b_sz * out_channels * patches];
                for b in 0..b_sz {
                    for (oc, bv) in bias.iter().enumerate() {
                        let arow = &acc[oc * cols + b * patches..oc * cols + (b + 1) * patches];
                        let orow = &mut out[(b * out_channels + oc) * patches..][..patches];
                        for (o, a) in orow.iter_mut().zip(arow) {
                            *o = *a as f32 * scale + bv;
                        }
                    }
                }
                Ok(Tensor::from_vec(
                    out,
                    &[b_sz, *out_channels, geometry.out_h, geometry.out_w],
                )?)
            }
        }
    }

    /// Stacks `inputs` into one `[B] ++ input_shape` batch, validating shapes
    /// (same contract as the f32 `Network::forward_batch` entry).
    fn stack_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        if inputs.is_empty() {
            return Err(NnError::InvalidConfig(
                "batched quantized forward pass requires at least one input".into(),
            ));
        }
        for input in inputs {
            if input.dims() != self.network.input_shape() {
                return Err(NnError::InvalidConfig(format!(
                    "network expects input shape {:?}, got {:?}",
                    self.network.input_shape(),
                    input.dims()
                )));
            }
        }
        Ok(Tensor::stack(inputs)?)
    }

    /// Runs the quantized forward pass, returning the logits.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for (i, layer) in self.network.layers().enumerate() {
            x = self.forward_layer(i, layer, &x)?;
        }
        Ok(x)
    }

    /// Runs the quantized forward pass, materialising every activation
    /// boundary as a standard [`ForwardTrace`] — the entry point for
    /// activation-path extraction over quantized inference.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_trace(&self, input: &Tensor) -> Result<ForwardTrace> {
        let mut activations = Vec::with_capacity(self.network.num_layers() + 1);
        activations.push(input.clone());
        let mut x = input.clone();
        for (i, layer) in self.network.layers().enumerate() {
            x = self.forward_layer(i, layer, &x)?;
            activations.push(x.clone());
        }
        ForwardTrace::from_activations(activations)
    }

    /// Runs one fused quantized forward pass over a whole batch and returns
    /// the stacked logits (`[B, num_classes]`).
    ///
    /// Row `b` is bit-for-bit identical to `forward(&inputs[b])`: integer
    /// accumulation is exact, the batched int8 `im2col` widens columns
    /// without reordering them, and every f32-fallback layer already carries
    /// the same guarantee through `Layer::forward_batch`.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let mut cur = self.stack_batch(inputs)?;
        for (i, layer) in self.network.layers().enumerate() {
            cur = self.forward_layer_batch(i, layer, &cur)?;
        }
        Ok(cur)
    }

    /// Runs one fused quantized forward pass over a whole batch, materialising
    /// every stacked activation boundary as a [`BatchTrace`] — the batched
    /// twin of [`Self::forward_trace`], and the entry point for batched
    /// quantized path extraction in `ptolemy-core`.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_trace_batch(&self, inputs: &[Tensor]) -> Result<BatchTrace> {
        let mut activations = Vec::with_capacity(self.network.num_layers() + 1);
        let mut cur = self.stack_batch(inputs)?;
        activations.push(cur.clone());
        for (i, layer) in self.network.layers().enumerate() {
            cur = self.forward_layer_batch(i, layer, &cur)?;
            activations.push(cur.clone());
        }
        Ok(BatchTrace::new(inputs.len(), activations, Vec::new()))
    }

    /// Argmax class of the quantized logits.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; fails on empty or NaN logits.
    pub fn predict(&self, input: &Tensor) -> Result<usize> {
        predicted_class(&self.forward(input)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use ptolemy_tensor::{Initializer, Rng64};

    fn calibration(network: &Network, rng: &mut Rng64, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|_| {
                Initializer::Uniform(1.0)
                    .build(network.input_shape(), rng)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn rejects_empty_calibration() {
        let mut rng = Rng64::new(1);
        let network = Arc::new(zoo::mlp_net(&[16], 4, &mut rng).unwrap());
        assert!(QuantizedNetwork::quantize(network, &[]).is_err());
    }

    #[test]
    fn quantized_logits_track_f32_logits() {
        let mut rng = Rng64::new(2);
        let network = Arc::new(zoo::mlp_net(&[16], 4, &mut rng).unwrap());
        let cal = calibration(&network, &mut rng, 8);
        let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
        assert!(qnet.num_quantized_layers() >= 2);
        let mut close = 0;
        for x in &cal {
            let f = network.forward(x).unwrap();
            let q = qnet.forward(x).unwrap();
            assert_eq!(f.len(), q.len());
            let max_err = f
                .as_slice()
                .iter()
                .zip(q.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            let range = tensor_max_abs(&f).max(1e-3);
            if max_err <= 0.15 * range {
                close += 1;
            }
        }
        // int8 rounding wiggles logits but must stay in the same ballpark.
        assert!(close >= cal.len() - 1, "only {close}/{} close", cal.len());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: dims");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
        }
    }

    #[test]
    fn batched_quantized_forward_is_bit_identical_to_single() {
        let mut rng = Rng64::new(11);
        for network in [
            Arc::new(zoo::mlp_net(&[16, 12], 4, &mut rng).unwrap()),
            Arc::new(zoo::lenet(1, 4, &mut rng).unwrap()),
        ] {
            let cal = calibration(&network, &mut rng, 6);
            let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
            let stacked = qnet.forward_batch(&cal).unwrap();
            for (b, input) in cal.iter().enumerate() {
                let single = qnet.forward(input).unwrap();
                let row = stacked.slice_batch(b).unwrap();
                assert_bits_eq(&row, &single, "logits row");
            }
        }
    }

    #[test]
    fn batched_quantized_trace_slices_match_single_traces() {
        let mut rng = Rng64::new(13);
        let network = Arc::new(zoo::lenet(1, 4, &mut rng).unwrap());
        let cal = calibration(&network, &mut rng, 3);
        let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
        let batch = qnet.forward_trace_batch(&cal).unwrap();
        assert_eq!(batch.batch_size(), cal.len());
        assert_eq!(batch.num_layers(), network.num_layers());
        for (b, input) in cal.iter().enumerate() {
            let single = qnet.forward_trace(input).unwrap();
            let sliced = batch.trace(b).unwrap();
            for (layer, (s, f)) in sliced
                .activations()
                .iter()
                .zip(single.activations())
                .enumerate()
            {
                assert_bits_eq(s, f, &format!("sample {b} boundary {layer}"));
            }
        }
    }

    #[test]
    fn batched_quantized_forward_rejects_bad_inputs() {
        let mut rng = Rng64::new(17);
        let network = Arc::new(zoo::mlp_net(&[8], 3, &mut rng).unwrap());
        let cal = calibration(&network, &mut rng, 2);
        let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
        assert!(qnet.forward_batch(&[]).is_err());
        let wrong = Tensor::zeros(&[3]);
        assert!(qnet.forward_batch(&[cal[0].clone(), wrong]).is_err());
    }

    #[test]
    fn quantized_trace_has_every_boundary_and_is_deterministic() {
        let mut rng = Rng64::new(3);
        let network = Arc::new(zoo::lenet(1, 4, &mut rng).unwrap());
        let cal = calibration(&network, &mut rng, 4);
        let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
        assert_eq!(qnet.num_quantized_layers(), 4);
        let trace = qnet.forward_trace(&cal[0]).unwrap();
        assert_eq!(trace.num_layers(), network.num_layers());
        let again = qnet.forward_trace(&cal[0]).unwrap();
        for (a, b) in trace.activations().iter().zip(again.activations()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let class = qnet.predict(&cal[0]).unwrap();
        assert!(class < network.num_classes());
    }
}
