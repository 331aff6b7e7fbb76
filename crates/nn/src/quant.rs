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
//! and lets the standard [`TraceSink`] / path-extraction machinery consume
//! quantized runs unchanged.  `Residual` blocks and any layer whose
//! parameters don't follow the `[weight, bias]` convention simply run their
//! f32 kernel — quantization is per-layer opportunistic, never required.
//!
//! # Kernels and batching
//!
//! All integer matmuls route through the blocked, register-tiled i8 GEMM in
//! `ptolemy_tensor::gemm_i8`; conv inputs lower through the fused int8
//! `im2col` (`ptolemy_tensor::im2col_i8_batch`), which quantizes the image
//! once instead of staging an f32 column matrix.  Because i32 accumulation is
//! exact, the blocked/fused kernels are *bit-identical* to the naive
//! references — the kernel swap changes throughput, never results.  There is
//! one kernel per layer kind and it takes a batch, so sample `b` of a fused
//! batch equals the batch of one of `inputs[b]` bit-for-bit by construction
//! (the same widening-only contract as the f32 `Network::forward_batch`).
//!
//! # One driver, one pass
//!
//! [`QuantizedNetwork`] implements [`ForwardProvider`] — its one batched
//! streaming pass runs [`Network`]'s layer loop with [`QuantizedNetwork`]'s
//! own per-layer step — and `forward` (the batch of one) / `forward_batch`
//! are adapters over it, so `ptolemy-core` extracts activation paths from an
//! int8 pass through exactly the sinks it uses for f32.  There is no
//! unbatched int8 pass, as there is no unbatched f32 one.
//!
//! # Non-finite values
//!
//! The quantized pass runs [`Network`]'s driver, so it obeys the crate's one
//! non-finite rule: a NaN or ±∞ in the input or in any layer's output is
//! [`NnError::NonFinite`] at that boundary, before any layer quantizes it.
//! Quantization therefore never meets a non-finite value (it would round a
//! NaN to `0` and launder it into an ordinary verdict).  A *finite* value
//! beyond the calibrated range still saturates to ±127, as it always did.

use std::sync::Arc;

use ptolemy_tensor::gemm_i8::matmul_i8_parallel;
use ptolemy_tensor::quant::{quantize_slice, tensor_max_abs, QuantParams};
use ptolemy_tensor::{im2col_i8_batch, Conv2dGeometry, Tensor};

use crate::{ForwardProvider, Layer, LayerKind, Network, NnError, Result, TraceSink};

/// What a slot's weight matrix multiplies.
#[derive(Debug, Clone)]
enum QuantShape {
    /// Dense: `qweight` is `Wᵀ`, `[inputs, outputs]`.
    Dense { inputs: usize, outputs: usize },
    /// Conv2d: `qweight` is `[out_channels, patch_len]`.
    Conv {
        geometry: Conv2dGeometry,
        out_channels: usize,
    },
}

/// One layer's pre-quantized integer kernel (layers without one run f32).
#[derive(Debug, Clone)]
struct QuantSlot {
    /// Row-major i8 weights.
    qweight: Vec<i8>,
    bias: Vec<f32>,
    /// The calibrated scale of the layer's input activations.
    act: QuantParams,
    /// What one accumulator step is worth in f32: `act` scale × weight scale.
    scale: f32,
    shape: QuantShape,
}

impl QuantSlot {
    /// Pre-quantizes a `[weight, bias]` dense / conv layer; `None` for every
    /// other layer kind or parameter layout.
    fn build(kind: LayerKind, params: Vec<&Tensor>, act: QuantParams) -> Option<Self> {
        let [weight, bias] = params.as_slice() else {
            return None;
        };
        let shape = match kind {
            LayerKind::Dense { inputs, outputs } => QuantShape::Dense { inputs, outputs },
            LayerKind::Conv2d {
                geometry,
                out_channels,
            } => QuantShape::Conv {
                geometry,
                out_channels,
            },
            _ => return None,
        };
        let wparams = QuantParams::from_max_abs(tensor_max_abs(weight));
        let qweight = match shape {
            // Transposed once here, so every batch runs the plain `A · B` GEMM.
            QuantShape::Dense { .. } => {
                quantize_slice(weight.transpose().ok()?.as_slice(), wparams)
            }
            QuantShape::Conv { .. } => quantize_slice(weight.as_slice(), wparams),
        };
        Some(QuantSlot {
            qweight,
            bias: bias.as_slice().to_vec(),
            act,
            scale: act.scale() * wparams.scale(),
            shape,
        })
    }

    /// The fused integer kernel over `batch` stacked samples (the flat data of
    /// `samples`), requantized to f32 on the way out.  Sample `b`'s slab of the result depends on sample `b` alone and
    /// i32 accumulation is exact, so a batch slices back to its per-sample
    /// passes bit for bit.
    fn run(&self, samples: &Tensor, batch: usize) -> Result<Vec<f32>> {
        let (qweight, scale) = (&self.qweight, self.scale);
        match &self.shape {
            QuantShape::Dense { inputs, outputs } => {
                let qx = quantize_slice(samples.as_slice(), self.act);
                let acc = matmul_i8_parallel(&qx, qweight, batch, *inputs, *outputs)?;
                let mut out = vec![0.0f32; batch * outputs];
                for (orow, arow) in out.chunks_mut(*outputs).zip(acc.chunks(*outputs)) {
                    for ((o, a), b) in orow.iter_mut().zip(arow).zip(&self.bias) {
                        *o = *a as f32 * scale + b;
                    }
                }
                Ok(out)
            }
            QuantShape::Conv {
                geometry,
                out_channels,
            } => {
                let (patches, patch_len) = (geometry.num_patches(), geometry.patch_len());
                // Column `b * patches + j` is column `j` of sample `b`'s own
                // lowering.
                let qcols = im2col_i8_batch(samples, geometry, self.act)?;
                let cols = batch * patches;
                let acc = matmul_i8_parallel(qweight, &qcols, *out_channels, patch_len, cols)?;
                // Re-layout [out_c, B * patches] -> [B, out_c, out_h, out_w],
                // requantizing on the way out.
                let mut out = vec![0.0f32; cols * out_channels];
                for b in 0..batch {
                    for (oc, bv) in self.bias.iter().enumerate() {
                        let arow = &acc[oc * cols + b * patches..oc * cols + (b + 1) * patches];
                        let orow = &mut out[(b * out_channels + oc) * patches..][..patches];
                        for (o, a) in orow.iter_mut().zip(arow) {
                            *o = *a as f32 * scale + bv;
                        }
                    }
                }
                Ok(out)
            }
        }
    }
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
                QuantSlot::build(layer.kind(), layer.params(), act)
            })
            .collect();
        Ok(QuantizedNetwork { network, slots })
    }

    /// The underlying f32 network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// Number of layers running the integer kernel (the rest run f32).
    pub fn num_quantized_layers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Runs layer `index` over `cur`, a stacked `[batch] ++ shape` boundary,
    /// through its integer kernel, or through the f32 layer where it has none.
    fn run_layer(
        &self,
        index: usize,
        layer: &dyn Layer,
        cur: &Tensor,
        batch: usize,
    ) -> Result<(Tensor, Option<Tensor>)> {
        let Some(slot) = &self.slots[index] else {
            return layer.forward_batch_interior(cur);
        };
        let dims: Vec<usize> = std::iter::once(batch).chain(layer.output_shape()).collect();
        let out = slot.run(cur, batch)?;
        Ok((Tensor::from_vec(out, &dims)?, None))
    }

    /// Runs the quantized forward pass, returning the logits — the batch of
    /// one, unstacked.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape, or
    /// [`NnError::NonFinite`] if the input or a layer's output holds a NaN or
    /// an infinity.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let logits = self.forward_batch(std::slice::from_ref(input))?;
        Ok(logits.into_reshaped(&[self.network.num_classes()])?)
    }

    /// Runs one fused quantized forward pass over a whole batch and returns
    /// the stacked logits (`[B, num_classes]`); row `b` is bit-for-bit
    /// `forward(&inputs[b])`.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty, any input does not match the
    /// network input shape, or [`NnError::NonFinite`] if a boundary of the
    /// pass holds a NaN or an infinity.
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        self.forward_with_sink_batch(inputs, &mut ())
    }
}

impl ForwardProvider for QuantizedNetwork {
    fn network(&self) -> &Network {
        &self.network
    }

    fn forward_with_sink_batch<S: TraceSink + ?Sized>(
        &self,
        inputs: &[Tensor],
        sink: &mut S,
    ) -> Result<Tensor> {
        let stacked = self.network.stack_batch(inputs)?;
        self.network.drive(stacked, sink, |index, layer, cur| {
            self.run_layer(index, layer, cur, inputs.len())
        })
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

    /// Every stacked boundary of one pass.
    #[derive(Default)]
    struct Boundaries(Vec<Tensor>);

    impl TraceSink for Boundaries {
        fn on_input(&mut self, input: &Tensor) {
            self.0.push(input.clone());
        }
        fn on_layer(&mut self, _index: usize, output: &Tensor) {
            self.0.push(output.clone());
        }
    }

    fn boundaries(qnet: &QuantizedNetwork, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let mut sink = Boundaries::default();
        qnet.forward_with_sink_batch(inputs, &mut sink)?;
        Ok(sink.0)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: dims");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
        }
    }

    /// One kernel per layer kind, taking a batch: slice `b` of a batch of N is
    /// the batch of one — which `forward` unstacks — bit for bit.
    #[test]
    fn batched_quantized_forward_is_bit_identical_to_single() {
        let mut rng = Rng64::new(11);
        for network in [
            Arc::new(zoo::mlp_net(&[16, 12], 4, &mut rng).unwrap()),
            Arc::new(zoo::lenet(1, 4, &mut rng).unwrap()),
            Arc::new(zoo::resnet_mini(4, &mut rng).unwrap()),
        ] {
            let cal = calibration(&network, &mut rng, 6);
            let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
            let stacked = qnet.forward_batch(&cal).unwrap();
            for (b, input) in cal.iter().enumerate() {
                let row = stacked.slice_batch(b).unwrap();
                let one = qnet.forward_batch(std::slice::from_ref(input)).unwrap();
                assert_bits_eq(&row, &one.slice_batch(0).unwrap(), "batch of one");
                assert_bits_eq(&row, &qnet.forward(input).unwrap(), "forward");
            }
        }
    }

    /// A NaN or an infinity in the input is a typed error on every entry
    /// point, before any layer quantizes it (quantizing a NaN would yield 0
    /// and an ordinary-looking result); a finite value beyond the calibrated
    /// range saturates.
    #[test]
    fn non_finite_inputs_are_rejected_and_finite_outliers_saturate() {
        let mut rng = Rng64::new(19);
        let network = Arc::new(zoo::lenet(1, 4, &mut rng).unwrap());
        let cal = calibration(&network, &mut rng, 3);
        let qnet = QuantizedNetwork::quantize(network, &cal).unwrap();
        let mut poisoned = cal[0].clone();
        let rejected = Err(NnError::NonFinite { boundary: 0 });
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            poisoned.as_mut_slice()[5] = bad;
            assert_eq!(qnet.forward(&poisoned), rejected);
            assert_eq!(
                qnet.forward_batch(&[cal[1].clone(), poisoned.clone()]),
                rejected
            );
            assert!(boundaries(&qnet, &[poisoned.clone()]).is_err());
        }
        poisoned.as_mut_slice()[5] = 1e6;
        let saturated = qnet.forward(&poisoned).unwrap();
        assert!(saturated.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batched_quantized_trace_slices_match_batches_of_one() {
        let mut rng = Rng64::new(13);
        let network = Arc::new(zoo::lenet(1, 4, &mut rng).unwrap());
        let cal = calibration(&network, &mut rng, 3);
        let qnet = QuantizedNetwork::quantize(network.clone(), &cal).unwrap();
        let batch = boundaries(&qnet, &cal).unwrap();
        assert_eq!(batch.len(), network.num_layers() + 1);
        for (b, input) in cal.iter().enumerate() {
            let single = boundaries(&qnet, std::slice::from_ref(input)).unwrap();
            for (layer, (s, f)) in batch.iter().zip(&single).enumerate() {
                assert_eq!(s.dims()[0], cal.len());
                assert_bits_eq(
                    &s.slice_batch(b).unwrap(),
                    &f.slice_batch(0).unwrap(),
                    &format!("sample {b} boundary {layer}"),
                );
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
        let trace = boundaries(&qnet, &cal[..1]).unwrap();
        assert_eq!(trace.len(), network.num_layers() + 1);
        let again = boundaries(&qnet, &cal[..1]).unwrap();
        for (a, b) in trace.iter().zip(&again) {
            assert_bits_eq(a, b, "rerun");
        }
        let class = crate::predicted_class(qnet.forward(&cal[0]).unwrap().as_slice()).unwrap();
        assert!(class < network.num_classes());
    }
}
