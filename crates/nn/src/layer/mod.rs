//! Layer abstraction and concrete layer implementations.
//!
//! Every layer has one forward kernel, [`Layer::forward_batch`], over a
//! stacked `[B] ++ input_shape` batch (NCHW); sample `b` of the result is
//! bit-for-bit the batch of one of that sample.  [`Layer::forward`] is that
//! batch of one, unstacked.  The backward kernel, [`Layer::backward_batch`],
//! takes the same stacked batch and reads the activations the forward pass
//! recorded ([`Saved`]), computing only the gradients the caller asks for.
//! Partial-sum decompositions work on a **single sample** (no batch
//! dimension): the extraction algorithms decompose one input's path at a
//! time, exactly mirroring the per-input path semantics of the paper.

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

use crate::{NnError, Result};

/// The stacked activations a forward pass recorded around one layer — as
/// many of them as the caller has — for [`Layer::backward_batch`] to read.
///
/// A network's trace records all three; inside a [`Residual`] body only the
/// block input and the block's interior are recorded, so a body layer sees
/// some of its boundaries as `None`.  A kernel reads what it needs and fails
/// with a typed error when that is missing: convolution and dense layers
/// read their input only for parameter gradients, ReLU reads its output (or
/// its input — the mask is the same), max pooling reads its input, average
/// pooling and flatten read nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Saved<'a> {
    /// The layer's input (`[B] ++ input_shape`).
    pub input: Option<&'a Tensor>,
    /// The layer's interior ([`Layer::forward_batch_interior`]).
    pub interior: Option<&'a Tensor>,
    /// The layer's output (`[B] ++ output_shape`).
    pub output: Option<&'a Tensor>,
}

impl<'a> Saved<'a> {
    /// The recorded input, or an error naming the layer that needs it.
    pub(crate) fn need_input(&self, layer: &str) -> Result<&'a Tensor> {
        self.input.ok_or_else(|| missing(layer, "input"))
    }
}

/// The error of a backward kernel whose recorded activation is missing.
pub(crate) fn missing(layer: &str, what: &str) -> NnError {
    NnError::InvalidConfig(format!(
        "{layer} backward needs the {what} its forward pass recorded"
    ))
}

/// The number of samples in a stacked output gradient of `sample_len`
/// elements per sample: at least one, with no remainder.
pub(crate) fn grad_batch(grad_output: &Tensor, sample_len: usize, layer: &str) -> Result<usize> {
    let len = grad_output.len();
    if sample_len == 0 || len == 0 || len % sample_len != 0 {
        return Err(NnError::InvalidConfig(format!(
            "{layer} expects an output gradient of B x {sample_len} elements, got {len}"
        )));
    }
    Ok(len / sample_len)
}

/// Checks that a recorded activation holds `batch` samples of `sample_len`
/// elements.
pub(crate) fn check_len(
    tensor: &Tensor,
    batch: usize,
    sample_len: usize,
    layer: &str,
) -> Result<()> {
    if tensor.len() != batch * sample_len {
        return Err(NnError::InvalidConfig(format!(
            "{layer} recorded {} elements for a batch of {batch} x {sample_len}",
            tensor.len()
        )));
    }
    Ok(())
}

/// Checks that `grads` has one buffer per parameter, shaped like it.
pub(crate) fn check_param_grads(grads: &[Tensor], params: &[&Tensor], layer: &str) -> Result<()> {
    let shaped =
        grads.len() == params.len() && grads.iter().zip(params).all(|(g, p)| g.dims() == p.dims());
    if !shaped {
        return Err(NnError::InvalidConfig(format!(
            "{layer} gradient buffers do not match its parameters"
        )));
    }
    Ok(())
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

    /// The layer's one backward kernel, over a stacked batch.
    ///
    /// `grad_output` is the gradient of the loss with respect to the stacked
    /// output (`B * output_len` elements; the dimensions are not read, so a
    /// batch of one may come unstacked, as may `saved`).  Computes only what
    /// is asked for:
    ///
    /// * with `param_grads` (one tensor per [`Layer::params`] entry, shaped
    ///   like it), overwrites each with that parameter's gradient **summed
    ///   over the batch in sample order** — sample 0 initialises the sum,
    ///   each later sample is added to it;
    /// * with `want_input`, returns the gradient with respect to the stacked
    ///   input, `[B] ++ input_shape`; otherwise returns `None` and skips that
    ///   work.
    ///
    /// Sample `b` of the input gradient, and sample `b`'s term of each
    /// parameter sum, depend on sample `b` alone and are bit-for-bit the batch
    /// of one of that sample.  The default has no backward kernel and fails:
    /// a layer that is only ever run forward need not implement it.
    ///
    /// # Errors
    ///
    /// Returns an error if the gradient, the recorded activations or the
    /// parameter buffers do not match the layer, or if an activation the
    /// kernel reads was not recorded.
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>> {
        let _ = (saved, grad_output, param_grads, want_input);
        Err(NnError::InvalidConfig(format!(
            "{} has no backward kernel",
            self.name()
        )))
    }

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

    /// One sample's backward pass on its own, with everything its forward
    /// pass recorded: the layer tests' probe.  Returns the input gradient
    /// (shaped like `input`) and the parameter gradients.
    pub(crate) fn backward(
        layer: &dyn Layer,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        let stacked = input.reshape(&[&[1], input.dims()].concat())?;
        let (output, interior) = layer.forward_batch_interior(&stacked)?;
        let saved = Saved {
            input: Some(&stacked),
            interior: interior.as_ref(),
            output: Some(&output),
        };
        let mut param_grads: Vec<Tensor> = layer.params().into_iter().cloned().collect();
        let input_grad = layer
            .backward_batch(saved, grad_output, Some(&mut param_grads), true)?
            .ok_or_else(|| NnError::InvalidConfig("no input gradient".into()))?;
        Ok((input_grad.into_reshaped(input.dims())?, param_grads))
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

    /// For every layer kind the zoo builds: one batched backward call is the
    /// batch-of-one calls it replaces — input gradient slice `b` is sample
    /// `b`'s, bit for bit, and each parameter gradient is the per-sample
    /// gradients summed in sample order, sample 0 initialising the sum (an
    /// output gradient of `-0.0` leaves a `-0.0` bias gradient, which a sum
    /// started at `+0.0` would turn into `+0.0`).  Asked for neither
    /// gradient, a kernel returns no input gradient; asked for parameter
    /// gradients of the wrong shape, it fails.
    #[test]
    fn batched_backward_is_the_per_sample_pass_summed_in_order() {
        use crate::zoo;
        use ptolemy_tensor::Rng64;

        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng64::new(31);
        let networks = [
            zoo::conv_net(4, &mut rng).unwrap(),
            zoo::resnet_mini(4, &mut rng).unwrap(),
            zoo::inception_mini(4, &mut rng).unwrap(),
        ];
        let batch = 3;
        for network in &networks {
            let len: usize = network.input_shape().iter().product();
            let mut stacked = Tensor::from_vec(
                (0..batch * len).map(|_| rng.normal()).collect(),
                &[&[batch][..], network.input_shape()].concat(),
            )
            .unwrap();
            for layer in network.layers() {
                let (output, interior) = layer.forward_batch_interior(&stacked).unwrap();
                let out_len = layer.output_len();
                // Sample 0's gradient is all `-0.0`, and so is every sample's
                // first element; the others carry zeros.
                let gy: Vec<f32> = (0..batch * out_len)
                    .map(|i| match (i < out_len || i % out_len == 0, i % 3) {
                        (true, _) => -0.0,
                        (false, 0) => 0.0,
                        _ => rng.normal(),
                    })
                    .collect();
                let gy = Tensor::from_vec(gy, output.dims()).unwrap();
                let saved = Saved {
                    input: Some(&stacked),
                    interior: interior.as_ref(),
                    output: Some(&output),
                };
                let zeroed = || -> Vec<Tensor> {
                    layer
                        .params()
                        .iter()
                        .map(|p| Tensor::zeros(p.dims()))
                        .collect()
                };
                let mut grads = zeroed();
                let input_grad = layer
                    .backward_batch(saved, &gy, Some(&mut grads), true)
                    .unwrap()
                    .unwrap();
                let mut summed: Vec<Tensor> = Vec::new();
                for b in 0..batch {
                    let one = |t: &Tensor| {
                        let slice = t.slice_batch(b).unwrap();
                        slice.reshape(&[&[1][..], slice.dims()].concat()).unwrap()
                    };
                    let (x, y, g) = (one(&stacked), one(&output), one(&gy));
                    let inner = interior.as_ref().map(one);
                    let alone = Saved {
                        input: Some(&x),
                        interior: inner.as_ref(),
                        output: Some(&y),
                    };
                    let mut sample_grads = zeroed();
                    let sample_input = layer
                        .backward_batch(alone, &g, Some(&mut sample_grads), true)
                        .unwrap()
                        .unwrap();
                    assert_eq!(
                        bits(input_grad.slice_batch(b).unwrap().as_slice()),
                        bits(sample_input.as_slice()),
                        "{}: input gradient of sample {b}",
                        layer.name()
                    );
                    if b == 0 {
                        summed = sample_grads;
                    } else {
                        for (acc, g) in summed.iter_mut().zip(&sample_grads) {
                            acc.add_scaled_inplace(g, 1.0).unwrap();
                        }
                    }
                }
                for (got, expected) in grads.iter().zip(&summed) {
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(expected.as_slice()),
                        "{}",
                        layer.name()
                    );
                }
                if layer.name() == "dense" {
                    assert_eq!(grads[1].as_slice()[0].to_bits(), (-0.0f32).to_bits());
                }
                assert!(layer
                    .backward_batch(saved, &gy, None, false)
                    .unwrap()
                    .is_none());
                if !grads.is_empty() {
                    let mut wrong = vec![Tensor::zeros(&[1])];
                    assert!(layer
                        .backward_batch(saved, &gy, Some(&mut wrong), false)
                        .is_err());
                }
                stacked = output;
            }
        }
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
