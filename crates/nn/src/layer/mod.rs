//! Layer abstraction and concrete layer implementations.
//!
//! Every layer has one forward kernel, [`Layer::forward_batch`], over a
//! stacked `[B] ++ input_shape` batch (NCHW); sample `b` of the result is
//! bit-for-bit the batch of one of that sample.  [`Layer::forward`] is that
//! batch of one, unstacked.  The backward kernel, [`Layer::backward_batch`],
//! takes the same stacked batch and reads the activations the forward pass
//! recorded ([`Saved`]), computing only the gradients the caller asks for.
//! Partial sums ([`Layer::partial_sums`]) and pooling routes
//! ([`Layer::contributions_many`]) work on a **single sample** (no batch
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

/// The importance routes of a run of a pass-through layer's output neurons,
/// in one flat buffer: [`Decompositions::iter`] yields each neuron's
/// `(input flat index, routed input value)` pairs, in the order they were
/// pushed — `0.0` for a [`Layer::static_routing`] route, which reads no
/// input.  Weight layers hand over partial sums instead
/// ([`Layer::partial_sums`]).
///
/// The buffer belongs to the caller, and [`Decompositions::clear`] keeps its
/// capacity: one buffer serves every pooling layer of a reverse walk, which
/// then allocates nothing per neuron.
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
        self.pairs.extend(pairs);
        self.ends.push(self.pairs.len());
    }

    /// Each neuron's pairs, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[(usize, f32)]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.pairs[start..end])
    }
}

/// Where one output neuron's partial sums come from: position `p` of the
/// values [`Layer::partial_sums`] hands over is the product of one weight and
/// input element [`Sources::input`]`(p)`, or — one past the layer's own
/// terms — a residual block's shortcut, which carries its input unweighted.
///
/// The mapping is derived, not stored per term: a convolution's terms are a
/// per-geometry tap list offset by the window's corner, a dense layer's are
/// the identity.  The reverse walk maps only the positions it picks.
#[derive(Debug, Clone, Copy)]
pub struct Sources<'a> {
    /// The layer's own terms: input `base + offsets[p]` (wrapping: `base`
    /// may sit in the padding) — or input `p` when `offsets` is `None`.
    offsets: Option<&'a [usize]>,
    base: usize,
    /// Number of the layer's own terms.
    terms: usize,
    /// The input of position `terms`, a residual block's shortcut.
    shortcut: Option<usize>,
}

impl<'a> Sources<'a> {
    /// `terms` terms, term `p` reading input `p` (a dense layer).
    pub(crate) fn identity(terms: usize) -> Self {
        Sources {
            offsets: None,
            base: 0,
            terms,
            shortcut: None,
        }
    }

    /// Term `p` reading input `base + offsets[p]` (a convolution's tap list).
    pub(crate) fn taps(base: usize, offsets: &'a [usize]) -> Self {
        Sources {
            offsets: Some(offsets),
            base,
            terms: offsets.len(),
            shortcut: None,
        }
    }

    /// These terms followed by one reading input `index` (a residual
    /// block's shortcut).
    pub(crate) fn with_shortcut(self, index: usize) -> Self {
        Sources {
            shortcut: Some(index),
            ..self
        }
    }

    /// The number of positions: the layer's own terms, plus the shortcut.
    pub fn len(&self) -> usize {
        self.terms + usize::from(self.shortcut.is_some())
    }

    /// `true` if there are no positions at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The input flat index position `position` reads; `position` must be
    /// below [`Sources::len`] (an index past a tap list panics).
    pub fn input(&self, position: usize) -> usize {
        match (self.offsets, self.shortcut) {
            (_, Some(index)) if position == self.terms => index,
            (Some(offsets), _) => self.base.wrapping_add(offsets[position]),
            (None, _) => position,
        }
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
    /// Element-wise activation (ReLU): output `i` reads input `i` alone.
    Activation,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Shape-only change: output `i` is input `i`.
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

    /// `true` if output `i` routes its importance to input `i` alone
    /// (activations and reshapes): the reverse walk carries the important
    /// indices through such a layer unchanged, asking the layer nothing.
    pub fn routes_by_identity(&self) -> bool {
        matches!(self, LayerKind::Activation | LayerKind::Reshape)
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
    /// tensor [`Layer::partial_sums`] needs beyond the layer's own
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

    /// Hands the partial sums of each output neuron of `out_idxs` (flat
    /// indices into the output) for the given input to `visit`, one neuron
    /// at a time and in order, as values only: `visit(out_idx, values,
    /// sources)`, where position `p` of `values` is the partial sum
    /// [`Sources::input`]`(p)` contributes (paper Fig. 3).  The partial sums
    /// add up to the neuron's value, up to the bias term; their order is the
    /// layer's:
    ///
    /// * dense: `x[i] * W[neuron][i]` for every input `i`, ascending;
    /// * convolution: `x[tap] * w[k]` over the receptive field in patch order
    ///   (channel, kernel row, kernel column), padding skipped;
    /// * residual block: its last body layer's terms, then the shortcut
    ///   `x[out_idx]`.
    ///
    /// `values` is the caller's scratch, refilled for every neuron, so a
    /// reverse walk allocates nothing per neuron; `visit` may overwrite the
    /// values it is handed.  `interior` is this `input`'s interior — slice
    /// `b` of what [`Layer::forward_batch_interior`] returned — if the
    /// caller kept it.  Layers without an interior ignore it; a composite
    /// layer given `None` recomputes it — **once per call**, not once per
    /// index, which is why the reverse walk asks for all of a layer's
    /// important neurons together.  Layers without weights have no partial
    /// sums and fail (the default).
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range or `input` (or
    /// `interior`) has the wrong shape; the neurons before the failing one
    /// have then been visited.
    fn partial_sums(
        &self,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
        values: &mut Vec<f32>,
        visit: &mut dyn FnMut(usize, &mut Vec<f32>, Sources<'_>),
    ) -> Result<()> {
        let _ = (input, interior, out_idxs, values, visit);
        Err(NnError::InvalidConfig(format!(
            "{} has no partial sums",
            self.name()
        )))
    }

    /// Appends the importance routes of the output neurons `out_idxs` (flat
    /// indices into the output) of a **pooling** layer for the given input
    /// to `out`, one neuron per index, in order: max pooling routes to the
    /// window's arg-max, average pooling to every window member.  Weight
    /// layers hand over partial sums instead ([`Layer::partial_sums`]);
    /// activations and reshapes route by identity
    /// ([`LayerKind::routes_by_identity`]) and are never asked.  The default
    /// fails.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range or `input` has the wrong
    /// shape; `out` may then hold the neurons routed before the failure.
    fn contributions_many(
        &self,
        input: &Tensor,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<()> {
        let _ = (input, out_idxs, out);
        Err(NnError::InvalidConfig(format!(
            "{} routes no importance through its input",
            self.name()
        )))
    }

    /// Appends the input indices each of `out_idxs` routes its importance
    /// to, one neuron per index with every routed value `0.0`, and returns
    /// `true` — when that routing never depends on activation values.
    /// Otherwise appends nothing and returns `false` (the default): the
    /// routing needs the input, i.e. [`Layer::contributions_many`].  The
    /// answer is the same for every index list, the empty one included, so
    /// `static_routing(&[], ..)` asks the layer which kind it is.
    ///
    /// Average pooling always routes to its fixed window members.  Max
    /// pooling routes to the window's arg-max, which depends on the input, so
    /// it keeps the default.  The streaming extraction pipeline in
    /// `ptolemy-core` uses this to decide which layer inputs a backward
    /// program must retain: statically-routed pooling layers can have their
    /// activations dropped the moment the next layer starts.
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

    /// Each visited output index with its `(input flat index, value)` pairs.
    type Neurons = Vec<(usize, Vec<(usize, f32)>)>;

    /// Every partial sum of `out_idxs`, as `(input flat index, value)`
    /// pairs, one list per neuron, with the visited output indices.
    fn partial_sum_pairs(
        layer: &dyn Layer,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
    ) -> Result<Neurons> {
        let mut neurons = Vec::new();
        layer.partial_sums(
            input,
            interior,
            out_idxs,
            &mut Vec::new(),
            &mut |n, values, at| {
                assert_eq!(values.len(), at.len());
                let pairs = values.iter().enumerate().map(|(p, v)| (at.input(p), *v));
                neurons.push((n, pairs.collect()));
            },
        )?;
        Ok(neurons)
    }

    /// One neuron's decomposition on its own, as `(input flat index, value)`
    /// pairs — a weight layer's partial sums, a pooling layer's routes: the
    /// layer tests' probe.
    pub(crate) fn decompose(
        layer: &dyn Layer,
        input: &Tensor,
        out_idx: usize,
    ) -> Result<Vec<(usize, f32)>> {
        if layer.kind().is_weight_layer() {
            let mut neurons = partial_sum_pairs(layer, input, None, &[out_idx])?;
            return Ok(neurons.pop().map(|(_, pairs)| pairs).unwrap_or_default());
        }
        let mut out = Decompositions::default();
        layer.contributions_many(input, &[out_idx], &mut out)?;
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
        d.push([(3, 0.5), (7, 0.1)]);
        d.push([]);
        d.push([(2, 1.0), (4, -1.0)]);
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

    #[test]
    fn sources_map_positions_to_inputs() {
        let dense = Sources::identity(3);
        assert_eq!((dense.len(), dense.input(2)), (3, 2));
        let offsets = [0, 1, 5];
        // A padded window's corner lies before the input: the offsets wrap.
        let conv = Sources::taps(usize::MAX, &offsets);
        assert_eq!([0, 1, 2].map(|p| conv.input(p)), [usize::MAX, 0, 4]);
        let block = Sources::taps(10, &offsets).with_shortcut(7);
        assert_eq!(block.len(), 4);
        assert_eq!([0, 1, 2, 3].map(|p| block.input(p)), [10, 11, 15, 7]);
        assert!(Sources::identity(0).is_empty());
    }

    /// For every layer kind the zoo builds (conv, dense, ReLU, flatten, max and
    /// average pooling, residual): a stack of three distinct samples slices
    /// back, outputs and interiors bit for bit, to three batches of one; one
    /// batched partial-sum (or route) call is exactly one call per neuron; a
    /// composite layer handed the interior its forward pass produced
    /// decomposes exactly what it recomputes; and each layer answers exactly
    /// one of the walk's three questions — partial sums (weight layers),
    /// routes (pooling), or none (identity routing).
    #[test]
    fn partial_sums_are_the_per_neuron_decomposition() {
        use crate::zoo;
        use ptolemy_tensor::Rng64;

        fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
            assert_eq!(a.dims(), b.dims(), "{what}: dims");
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{what}");
        }
        let bits = |neurons: &Neurons| -> Vec<(usize, Vec<(usize, u32)>)> {
            neurons
                .iter()
                .map(|(n, pairs)| (*n, pairs.iter().map(|(i, v)| (*i, v.to_bits())).collect()))
                .collect()
        };

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
                let past_end = [layer.output_len()];
                let kind = layer.kind();
                let mut routes = Decompositions::default();
                let weighted = partial_sum_pairs(layer, &cur, None, &idxs);
                let routed = layer.contributions_many(&cur, &idxs, &mut routes);
                assert_eq!(weighted.is_ok(), kind.is_weight_layer(), "{}", layer.name());
                assert_eq!(
                    routed.is_ok(),
                    !kind.is_weight_layer() && !kind.routes_by_identity(),
                    "{}",
                    layer.name()
                );
                if let Ok(many) = weighted {
                    let visited: Vec<usize> = many.iter().map(|(n, _)| *n).collect();
                    assert_eq!(visited, idxs);
                    for (idx, pairs) in &many {
                        assert_eq!(pairs, &decompose(layer, &cur, *idx).unwrap());
                    }
                    let kept = partial_sum_pairs(layer, &cur, interior.as_ref(), &idxs).unwrap();
                    assert_eq!(
                        bits(&kept),
                        bits(&many),
                        "{}: kept != recomputed",
                        layer.name()
                    );
                    assert!(partial_sum_pairs(layer, &cur, None, &past_end).is_err());
                    assert!(partial_sum_pairs(layer, &cur, None, &[])
                        .unwrap()
                        .is_empty());
                }
                if routed.is_ok() {
                    assert_eq!(routes.iter().count(), idxs.len());
                    for (&idx, pairs) in idxs.iter().zip(routes.iter()) {
                        assert_eq!(pairs, decompose(layer, &cur, idx).unwrap());
                    }
                    // A static route lists exactly the routed indices.
                    let mut fixed = Decompositions::default();
                    let is_static = layer.static_routing(&idxs, &mut fixed).unwrap();
                    let probe = layer.static_routing(&[], &mut Decompositions::default());
                    assert_eq!(probe.unwrap(), is_static, "{}", layer.name());
                    assert_eq!(fixed.iter().count(), if is_static { idxs.len() } else { 0 });
                    for (route, pairs) in fixed.iter().zip(routes.iter()) {
                        assert!(route.iter().all(|&(_, partial)| partial == 0.0));
                        assert!(route.iter().map(|p| p.0).eq(pairs.iter().map(|p| p.0)));
                    }
                    let mut rejected = Decompositions::default();
                    assert!(layer
                        .contributions_many(&cur, &past_end, &mut rejected)
                        .is_err());
                    assert!(!is_static || layer.static_routing(&past_end, &mut rejected).is_err());
                }
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
