//! Layer abstraction and concrete layer implementations.
//!
//! Every layer has one forward kernel, [`Layer::forward_batch`], over a
//! stacked `[B] ++ input_shape` batch (NCHW); sample `b` of the result is
//! bit-for-bit the batch of one of that sample.  [`Layer::forward`] is that
//! batch of one, unstacked.  Backward passes and partial-sum decompositions
//! work on a **single sample** (no batch dimension): the training loop
//! iterates over a mini-batch and averages parameter gradients, and the
//! extraction algorithms decompose one input's path at a time, exactly
//! mirroring the per-input path semantics of the paper.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;
mod residual;

pub use activation::ReLU;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::Residual;

use ptolemy_tensor::{Conv2dGeometry, Tensor};

use crate::Result;

/// Gradients produced by one layer's backward pass.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Gradient of the loss with respect to the layer input.
    pub input_grad: Tensor,
    /// Gradients of the loss with respect to each parameter tensor, in the same
    /// order as [`Layer::params`].  Empty for parameter-free layers.
    pub param_grads: Vec<Tensor>,
}

/// Partial-sum decompositions of a run of output neurons (paper Fig. 3), in
/// one flat buffer: [`Decompositions::iter`] yields each neuron's
/// `(input flat index, partial sum)` pairs, in the order they were pushed.
///
/// A weight layer's partial sums add up to the neuron's value, up to the bias
/// term.  A layer that only routes activations (ReLU, pooling, flatten) lists
/// the input elements the neuron's importance passes to, each with the routed
/// input value — `0.0` for a [`Layer::static_routing`] route, which reads no
/// input.
///
/// The buffer belongs to the caller, and [`Decompositions::clear`] keeps its
/// capacity: one buffer serves every layer of a reverse walk, which then
/// allocates nothing per neuron.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decompositions {
    pairs: Vec<(usize, f32)>,
    /// `ends[k]` is one past neuron `k`'s last pair.
    ends: Vec<usize>,
}

impl Decompositions {
    /// Forgets every neuron, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.ends.clear();
    }

    /// Appends one neuron made of `pairs`.
    pub fn push(&mut self, pairs: impl IntoIterator<Item = (usize, f32)>) {
        self.push_with(|buffer| buffer.extend(pairs));
    }

    /// Appends one neuron whose pairs `fill` pushes onto the flat buffer (it
    /// must only append): a hot loop's form of [`Decompositions::push`].
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<(usize, f32)>)) {
        fill(&mut self.pairs);
        self.ends.push(self.pairs.len());
    }

    /// Appends `pair` to the last neuron pushed (a residual block's
    /// shortcut); a no-op while the buffer is empty.
    fn extend_last(&mut self, pair: (usize, f32)) {
        if let Some(end) = self.ends.last_mut() {
            self.pairs.push(pair);
            *end += 1;
        }
    }

    /// Each neuron's pairs, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[(usize, f32)]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.pairs[start..end])
    }
}

/// Coarse classification of a layer used by the compiler and the hardware model.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Fully-connected layer with `inputs × outputs` weights.
    Dense {
        /// Number of input features.
        inputs: usize,
        /// Number of output features.
        outputs: usize,
    },
    /// 2-D convolution.
    Conv2d {
        /// Convolution geometry (input size, kernel, stride, padding, output size).
        geometry: Conv2dGeometry,
        /// Number of output channels.
        out_channels: usize,
    },
    /// Element-wise activation (ReLU).
    Activation,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Shape-only change.
    Reshape,
    /// Residual block wrapping inner layers.
    Residual {
        /// Kinds of the wrapped layers, in order.
        inner: Vec<LayerKind>,
    },
}

impl LayerKind {
    /// `true` if the layer holds trainable weights and therefore participates in
    /// important-neuron extraction.
    pub fn is_weight_layer(&self) -> bool {
        matches!(
            self,
            LayerKind::Dense { .. } | LayerKind::Conv2d { .. } | LayerKind::Residual { .. }
        )
    }

    /// Number of multiply-accumulate operations one inference of this layer performs.
    pub fn macs(&self) -> u64 {
        match self {
            LayerKind::Dense { inputs, outputs } => (*inputs as u64) * (*outputs as u64),
            LayerKind::Conv2d {
                geometry,
                out_channels,
            } => {
                geometry.patch_len() as u64 * geometry.num_patches() as u64 * (*out_channels as u64)
            }
            LayerKind::Residual { inner } => inner.iter().map(LayerKind::macs).sum(),
            _ => 0,
        }
    }
}

/// A neural-network layer.  Shapes are per sample; the forward kernel takes
/// a stacked batch, and a single sample is the batch of one.
///
/// The trait is object-safe: networks store `Box<dyn Layer>`.
pub trait Layer: Send + Sync {
    /// Short human-readable layer name (e.g. `"conv2d"`).
    fn name(&self) -> &'static str;

    /// Shape of the output given the (per-sample) input shape this layer was built
    /// for.
    fn output_shape(&self) -> Vec<usize>;

    /// Shape of the input this layer expects.
    fn input_shape(&self) -> Vec<usize>;

    /// Computes the layer output for a stacked batch (`[B] ++ input_shape`,
    /// NCHW convention), returning `[B] ++ output_shape` — the layer's one
    /// forward kernel.
    ///
    /// Row `b` of the result depends on sample `b` alone and is bit-for-bit
    /// the batch of one of that sample: every kernel (the fused conv, one
    /// bias-prefilled GEMM for dense layers, one pooling kernel, element-wise
    /// maps) keeps the single-sample reduction order whatever `B` is.
    ///
    /// # Errors
    ///
    /// Returns an error if `batch` is not `[B] ++ input_shape` with `B >= 1`.
    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor>;

    /// Computes the layer output for a single sample: the batch of one,
    /// unstacked.  Off the detect and serve paths (training, the recompute of
    /// a residual interior, unit tests) — those run [`Layer::forward_batch`].
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the layer's expected input shape.
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let out = self.forward_batch(&input.reshape(&[&[1], input.dims()].concat())?)?;
        Ok(out.into_reshaped(&self.output_shape())?)
    }

    /// Computes input and parameter gradients given the upstream gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes are inconsistent with the layer configuration.
    fn backward(&self, input: &Tensor, grad_output: &Tensor) -> Result<LayerGrads>;

    /// Trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access to trainable parameters, in the same order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// [`Layer::forward_batch`] that also hands back the layer's stacked
    /// **interior activation** (`[B] ++ interior_shape`): the one intermediate
    /// tensor [`Layer::contributions_many`] needs beyond the layer's own
    /// input.  Only composite layers have one ([`Residual`]: the input of its
    /// last body layer); everything else returns `None`, which is the
    /// default.  Slice `b` is bit-for-bit the interior of sample `b` alone.
    ///
    /// [`crate::Network::forward_with_sink_batch`] passes the interior to
    /// [`crate::TraceSink::on_interior`], so a sink that keeps it lets the
    /// reverse walk decompose the layer without re-running its body.
    ///
    /// # Errors
    ///
    /// Same as [`Layer::forward_batch`].
    fn forward_batch_interior(&self, batch: &Tensor) -> Result<(Tensor, Option<Tensor>)> {
        Ok((self.forward_batch(batch)?, None))
    }

    /// Appends the partial-sum decompositions of the output neurons
    /// `out_idxs` (flat indices into the output) for the given input to
    /// `out`, one neuron per index, in order.
    ///
    /// `interior` is this `input`'s interior — slice `b` of what
    /// [`Layer::forward_batch_interior`] returned — if the caller kept it.
    /// Layers without an interior ignore it; a composite layer given `None`
    /// recomputes it — **once per call**, not once per index, which is why the
    /// reverse walk asks for all of a layer's important neurons together.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range or `input` (or
    /// `interior`) has the wrong shape; `out` may then hold the neurons
    /// decomposed before the failure.
    fn contributions_many(
        &self,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<()>;

    /// Appends the input indices each of `out_idxs` routes its importance
    /// to, one neuron per index with every partial sum `0.0`, and returns
    /// `true` — when that routing never depends on activation values.
    /// Otherwise appends nothing and returns `false` (the default): the
    /// routing needs the input, i.e. [`Layer::contributions_many`].  The
    /// answer is the same for every index list, the empty one included, so
    /// `static_routing(&[], ..)` asks the layer which kind it is.
    ///
    /// ReLU and flatten route each output to the same-index input; average
    /// pooling always routes to its fixed window members.  Max pooling routes
    /// to the window's arg-max, which depends on the input, so it keeps the
    /// default.  The streaming extraction pipeline in `ptolemy-core` uses
    /// this to decide which layer inputs a backward program must retain:
    /// statically-routed pass-through layers can have their activations
    /// dropped the moment the next layer starts.
    ///
    /// Implementations must keep this bit-for-bit consistent with
    /// [`Layer::contributions_many`]: the routed indices are exactly the
    /// indices it lists, for every valid input.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    fn static_routing(&self, out_idxs: &[usize], out: &mut Decompositions) -> Result<bool> {
        let _ = (out_idxs, out);
        Ok(false)
    }

    /// Coarse layer classification for cost modelling and compilation.
    fn kind(&self) -> LayerKind;

    /// Flat number of output elements.
    fn output_len(&self) -> usize {
        self.output_shape().iter().product()
    }

    /// Flat number of input elements.
    fn input_len(&self) -> usize {
        self.input_shape().iter().product()
    }

    /// Flat number of elements of one sample's interior
    /// ([`Layer::forward_batch_interior`]; `0` for a layer without one).
    fn interior_len(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One neuron's decomposition on its own: the layer tests' probe.
    pub(crate) fn decompose(
        layer: &dyn Layer,
        input: &Tensor,
        out_idx: usize,
    ) -> Result<Vec<(usize, f32)>> {
        let mut out = Decompositions::default();
        layer.contributions_many(input, None, &[out_idx], &mut out)?;
        Ok(out.iter().flatten().copied().collect())
    }

    #[test]
    fn decompositions_are_flat_runs_of_neurons() {
        let mut d = Decompositions::default();
        d.extend_last((9, 9.0));
        assert_eq!(d, Decompositions::default());
        d.push([(3, 0.5), (7, 0.1)]);
        d.push([]);
        d.push([(2, 1.0)]);
        d.extend_last((4, -1.0));
        let runs: Vec<&[(usize, f32)]> = d.iter().collect();
        assert_eq!(
            runs,
            [&[(3, 0.5), (7, 0.1)][..], &[], &[(2, 1.0), (4, -1.0)]]
        );
        let capacity = d.pairs.capacity();
        d.clear();
        assert_eq!(d, Decompositions::default());
        assert_eq!(d.pairs.capacity(), capacity);
    }

    /// For every layer kind the zoo builds (conv, dense, ReLU, flatten, max and
    /// average pooling, residual): a stack of three distinct samples slices
    /// back, outputs and interiors bit for bit, to three batches of one; one
    /// batched decomposition call is exactly one call per neuron; and a
    /// composite layer handed the interior its forward pass produced
    /// decomposes exactly what it recomputes.
    #[test]
    fn contributions_many_is_the_per_neuron_decomposition() {
        use crate::zoo;
        use ptolemy_tensor::Rng64;

        fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
            assert_eq!(a.dims(), b.dims(), "{what}: dims");
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{what}");
        }

        let mut rng = Rng64::new(23);
        let networks = [
            zoo::resnet_mini(4, &mut rng).unwrap(),
            zoo::inception_mini(4, &mut rng).unwrap(),
        ];
        let mut kinds_seen = std::collections::BTreeSet::new();
        for network in &networks {
            let len: usize = network.input_shape().iter().product();
            let samples: Vec<Tensor> = (0..3)
                .map(|_| {
                    let data = (0..len).map(|_| rng.normal()).collect();
                    Tensor::from_vec(data, network.input_shape()).unwrap()
                })
                .collect();
            let mut stacked = Tensor::stack(&samples).unwrap();
            let mut cur = samples[0].clone();
            for layer in network.layers() {
                let (outs, interiors) = layer.forward_batch_interior(&stacked).unwrap();
                for b in 0..samples.len() {
                    let one = stacked.slice_batch(b).unwrap();
                    let one = one.reshape(&[&[1][..], one.dims()].concat()).unwrap();
                    let (out, interior) = layer.forward_batch_interior(&one).unwrap();
                    let what = format!("{} sample {b}", layer.name());
                    assert_bits_eq(
                        &outs.slice_batch(b).unwrap(),
                        &out.slice_batch(0).unwrap(),
                        &what,
                    );
                    assert_eq!(interiors.is_some(), interior.is_some(), "{what}");
                    if let (Some(all), Some(one)) = (&interiors, &interior) {
                        assert_bits_eq(
                            &all.slice_batch(b).unwrap(),
                            &one.slice_batch(0).unwrap(),
                            &what,
                        );
                    }
                }
                let interior = interiors.map(|t| t.slice_batch(0).unwrap());
                assert_eq!(
                    interior.as_ref().map_or(0, Tensor::len),
                    layer.interior_len()
                );
                let out = layer.forward(&cur).unwrap();
                assert_bits_eq(&out, &outs.slice_batch(0).unwrap(), "forward");
                // Every output neuron, in a scrambled order with a repeat.
                let mut idxs: Vec<usize> = (0..layer.output_len()).rev().collect();
                idxs.push(0);
                let mut many = Decompositions::default();
                layer
                    .contributions_many(&cur, None, &idxs, &mut many)
                    .unwrap();
                assert_eq!(many.iter().count(), idxs.len());
                for (&idx, batched) in idxs.iter().zip(many.iter()) {
                    assert_eq!(batched, decompose(layer, &cur, idx).unwrap());
                }
                let mut kept = Decompositions::default();
                layer
                    .contributions_many(&cur, interior.as_ref(), &idxs, &mut kept)
                    .unwrap();
                assert_eq!(kept, many, "{}: kept interior != recomputed", layer.name());
                // A static route lists exactly the decomposition's indices.
                let mut routes = Decompositions::default();
                let routed = layer.static_routing(&idxs, &mut routes).unwrap();
                let kind = layer.static_routing(&[], &mut Decompositions::default());
                assert_eq!(kind.unwrap(), routed, "{}", layer.name());
                assert_eq!(routes.iter().count(), if routed { idxs.len() } else { 0 });
                for (route, pairs) in routes.iter().zip(many.iter()) {
                    assert!(route.iter().all(|&(_, partial)| partial == 0.0));
                    assert!(route.iter().map(|p| p.0).eq(pairs.iter().map(|p| p.0)));
                }
                let mut rejected = Decompositions::default();
                assert!(layer
                    .contributions_many(&cur, None, &[layer.output_len()], &mut rejected)
                    .is_err());
                assert!(
                    !routed
                        || layer
                            .static_routing(&[layer.output_len()], &mut rejected)
                            .is_err()
                );
                let mut none = Decompositions::default();
                layer
                    .contributions_many(&cur, None, &[], &mut none)
                    .unwrap();
                assert_eq!(none, Decompositions::default());
                kinds_seen.insert(layer.name());
                cur = out;
                stacked = outs;
            }
        }
        assert_eq!(kinds_seen.len(), 7, "{kinds_seen:?}");
    }

    #[test]
    fn layer_kind_macs() {
        let dense = LayerKind::Dense {
            inputs: 10,
            outputs: 4,
        };
        assert_eq!(dense.macs(), 40);
        assert!(dense.is_weight_layer());
        assert!(!LayerKind::Activation.is_weight_layer());
        assert_eq!(LayerKind::Reshape.macs(), 0);

        let geom = Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        let conv = LayerKind::Conv2d {
            geometry: geom,
            out_channels: 4,
        };
        assert_eq!(conv.macs(), 27 * 64 * 4);

        let res = LayerKind::Residual {
            inner: vec![dense.clone(), dense],
        };
        assert_eq!(res.macs(), 80);
        assert!(res.is_weight_layer());
    }
}
