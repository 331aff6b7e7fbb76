use ptolemy_tensor::Tensor;

use crate::batch::check_finite;
use crate::layer::Saved;
use crate::{predicted_class, trace, ForwardTrace, Layer, NnError, Result, TraceSink};

/// A feed-forward network: an ordered stack of [`Layer`]s operating on one sample.
///
/// Residual/skip structure is encapsulated inside composite layers
/// ([`crate::layer::Residual`]), so the network itself is strictly sequential —
/// which is also how Ptolemy's per-layer path extraction (and its ISA, whose
/// `inf`/`infsp` instructions are per-layer) views the model.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Vec<usize>,
    num_classes: usize,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("input_shape", &self.input_shape)
            .field("num_classes", &self.num_classes)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Network {
    /// Builds a network from a layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the stack is empty or consecutive
    /// layers disagree about activation shapes.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig(
                "network must have at least one layer".into(),
            ));
        }
        let input_shape = layers[0].input_shape();
        let mut cur = input_shape.clone();
        for (i, layer) in layers.iter().enumerate() {
            if layer.input_shape() != cur {
                return Err(NnError::InvalidConfig(format!(
                    "layer {i} ({}) expects shape {:?} but receives {:?}",
                    layer.name(),
                    layer.input_shape(),
                    cur
                )));
            }
            cur = layer.output_shape();
        }
        if cur.len() != 1 {
            return Err(NnError::InvalidConfig(format!(
                "network output must be a class-score vector, got shape {cur:?}"
            )));
        }
        Ok(Network {
            num_classes: cur[0],
            input_shape,
            layers,
        })
    }

    /// Number of layers (including activation/pooling layers).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Expected per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Borrow a layer by index.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LayerOutOfRange`] if `index >= num_layers()`.
    pub fn layer(&self, index: usize) -> Result<&dyn Layer> {
        self.layers
            .get(index)
            .map(|b| b.as_ref())
            .ok_or(NnError::LayerOutOfRange {
                index,
                num_layers: self.layers.len(),
            })
    }

    /// Iterator over all layers in order.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }

    /// Indices of layers that carry weights (the layers Ptolemy extracts important
    /// neurons from).
    pub fn weight_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind().is_weight_layer())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total multiply-accumulate count of one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.kind().macs()).sum()
    }

    /// Runs a plain forward pass and returns the logits — the batch of one,
    /// unstacked.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let logits = self.forward_batch(std::slice::from_ref(input))?;
        Ok(logits.into_reshaped(&[self.num_classes])?)
    }

    /// Runs the batch of one over `input`, handing every stacked
    /// (`[1] ++ shape`) activation boundary and interior to `sink` as it is
    /// produced (see [`Network::forward_with_sink_batch`]).  Returns the
    /// stacked logits `[1, num_classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn forward_with_sink<S: TraceSink + ?Sized>(
        &self,
        input: &Tensor,
        sink: &mut S,
    ) -> Result<Tensor> {
        self.forward_with_sink_batch(std::slice::from_ref(input), sink)
    }

    /// The one layer loop, behind every forward pass: the stacked `input`
    /// goes through the layers in order, `step(index, layer, boundary)`
    /// producing each layer's output and interior, and `sink` observes every
    /// boundary under the [`TraceSink`] delivery contract.
    ///
    /// It is also where the crate's non-finite rule is enforced, once per
    /// boundary: the input and every layer's output are checked before the
    /// sink or the next layer sees them, so a NaN or an infinity anywhere in
    /// the pass is [`NnError::NonFinite`] and no kernel ever meets one.  A
    /// layer that rejects a value inside itself (a residual body) is
    /// reported at its own output, boundary `index + 1`.
    pub(crate) fn drive<S: TraceSink + ?Sized>(
        &self,
        input: Tensor,
        sink: &mut S,
        mut step: impl FnMut(usize, &dyn Layer, &Tensor) -> Result<(Tensor, Option<Tensor>)>,
    ) -> Result<Tensor> {
        check_finite(input.as_slice(), 0)?;
        sink.on_input(&input);
        let mut cur = input;
        for (index, layer) in self.layers.iter().enumerate() {
            let boundary = index + 1;
            let (out, interior) = step(index, layer.as_ref(), &cur).map_err(|e| match e {
                NnError::NonFinite { .. } => NnError::NonFinite { boundary },
                e => e,
            })?;
            check_finite(out.as_slice(), boundary)?;
            if let Some(interior) = interior {
                sink.on_interior(index, &interior);
                sink.take_interior(index, interior);
            }
            sink.on_layer(index, &out);
            sink.take_boundary(index, std::mem::replace(&mut cur, out));
        }
        Ok(cur)
    }

    /// Runs a forward pass recording every activation boundary and interior
    /// (the batch of one through a keep-everything sink, which keeps the
    /// driver's own tensors by move, each sample moved out of its batch of
    /// one in place).
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape.
    pub fn forward_trace(&self, input: &Tensor) -> Result<ForwardTrace> {
        trace::record(self, input)
    }

    /// Stacks `inputs` into one `[B] ++ input_shape` batch, validating shapes.
    pub(crate) fn stack_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        if inputs.is_empty() {
            return Err(NnError::InvalidConfig(
                "batched forward pass requires at least one input".into(),
            ));
        }
        if let Some(input) = inputs.iter().find(|x| x.dims() != self.input_shape) {
            return Err(NnError::InvalidConfig(format!(
                "network expects input shape {:?}, got {:?}",
                self.input_shape,
                input.dims()
            )));
        }
        Ok(Tensor::stack(inputs)?)
    }

    /// Runs one fused forward pass over a whole batch and returns the stacked
    /// logits (`[B, num_classes]`).
    ///
    /// Row `b` is bit-for-bit identical to `forward(&inputs[b])` — every layer's
    /// [`Layer::forward_batch`] preserves the per-input reduction order, so
    /// batching changes throughput, never arithmetic.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Result<Tensor> {
        self.forward_with_sink_batch(inputs, &mut ())
    }

    /// Runs one fused forward pass over a whole batch, handing each stacked
    /// activation boundary (`[B] ++ boundary_shape`) — and, just before a
    /// residual block's output, the block's stacked interior
    /// ([`TraceSink::on_interior`]) — to `sink` as it is produced.  Returns
    /// the stacked logits.
    ///
    /// The driver itself holds only the current layer's input and output; what
    /// outlives a layer is entirely the sink's decision, so a selective sink
    /// observes the full pass in O(largest layer) memory.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    pub fn forward_with_sink_batch<S: TraceSink + ?Sized>(
        &self,
        inputs: &[Tensor],
        sink: &mut S,
    ) -> Result<Tensor> {
        self.drive(self.stack_batch(inputs)?, sink, |_, layer, cur| {
            layer.forward_batch_interior(cur)
        })
    }

    /// Predicted class of `input`: the index of the largest logit, the
    /// ranking the detector uses ([`predicted_class`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `input` does not match the network input shape,
    /// or [`NnError::NonFinite`] if the input or an activation it produces —
    /// the logits included — holds a NaN or an infinity.
    pub fn predict(&self, input: &Tensor) -> Result<usize> {
        predicted_class(self.forward(input)?.as_slice())
    }

    /// The one backward walk, behind every gradient: from the last layer to
    /// the first, `at_output(i, grad)` may add to the gradient w.r.t. layer
    /// `i`'s output, then layer `i`'s one batched kernel,
    /// [`Layer::backward_batch`], reads what `trace` recorded around it.
    /// With `param_grads`, every layer writes its batch-summed parameter
    /// gradients there; the input gradient is returned when `want_input`.
    /// Each layer's input gradient takes the dimensions of the boundary it
    /// is the gradient of (a free reshape), so `at_output` sees a gradient
    /// shaped like `trace.output(i)`.  Every boundary's gradient obeys the
    /// forward pass's non-finite rule: a NaN or an infinity in it is
    /// [`NnError::NonFinite`] at that boundary.  So does every parameter
    /// gradient, reported at its layer's output boundary: a batch-summed
    /// weight gradient can overflow where no boundary does, and the trainer
    /// would step the parameter to an infinity.
    fn backward_walk(
        &self,
        trace: &ForwardTrace,
        grad_logits: Tensor,
        mut param_grads: Option<&mut [Vec<Tensor>]>,
        want_input: bool,
        mut at_output: impl FnMut(usize, &mut Tensor) -> Result<()>,
    ) -> Result<Option<Tensor>> {
        if trace.num_layers() != self.layers.len() {
            return Err(NnError::InvalidConfig(format!(
                "trace has {} layers but network has {}",
                trace.num_layers(),
                self.layers.len()
            )));
        }
        if let Some(grads) = &param_grads {
            if grads.len() != self.layers.len() {
                return Err(NnError::InvalidConfig(
                    "gradient/layer count mismatch".into(),
                ));
            }
        }
        let mut grad = grad_logits;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            at_output(i, &mut grad)?;
            check_finite(grad.as_slice(), i + 1)?;
            let saved = Saved {
                input: Some(trace.input(i)),
                interior: trace.interior(i),
                output: Some(trace.output(i)),
            };
            let layer_grads = param_grads.as_deref_mut().map(|g| g[i].as_mut_slice());
            let input_grad =
                layer.backward_batch(saved, &grad, layer_grads, i > 0 || want_input)?;
            for param_grad in param_grads.as_deref().map_or(&[][..], |g| &g[i]) {
                check_finite(param_grad.as_slice(), i + 1)?;
            }
            match input_grad {
                Some(input_grad) => grad = input_grad.into_reshaped(trace.input(i).dims())?,
                None => return Ok(None),
            }
        }
        check_finite(grad.as_slice(), 0)?;
        Ok(Some(grad))
    }

    /// The gradient w.r.t. the input of a loss whose gradient w.r.t. the
    /// logits is `grad_logits`, backpropagated through a recorded forward
    /// pass — the one backward entry point of the white-box attacks.
    ///
    /// `at_output(i, grad)` is called with the gradient w.r.t. layer `i`'s
    /// output (shaped like `trace.output(i)`), last layer first, before layer
    /// `i` backpropagates it; a loss with terms on intermediate activations
    /// adds their gradients there.  A caller with a loss on the logits alone
    /// passes `|_, _| Ok(())`.  Only input gradients are computed: no layer
    /// spends anything on parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns an error if the trace does not match the network, shapes are
    /// inconsistent, or `at_output` fails.
    pub fn backward_input(
        &self,
        trace: &ForwardTrace,
        grad_logits: Tensor,
        at_output: impl FnMut(usize, &mut Tensor) -> Result<()>,
    ) -> Result<Tensor> {
        self.backward_walk(trace, grad_logits, None, true, at_output)?
            .ok_or_else(|| {
                NnError::InvalidConfig("backward walk returned no input gradient".into())
            })
    }

    /// Writes every layer's parameter gradients, summed over the stacked
    /// batch `trace` recorded in sample order, into `param_grads` (shaped
    /// like [`Layer::params`], one entry per layer) — the trainer's backward
    /// pass.  No input gradient is computed for the first layer.
    pub(crate) fn backward_params(
        &self,
        trace: &ForwardTrace,
        grad_logits: Tensor,
        param_grads: &mut [Vec<Tensor>],
    ) -> Result<()> {
        self.backward_walk(trace, grad_logits, Some(param_grads), false, |_, _| Ok(()))?;
        Ok(())
    }

    /// Gradient of the softmax-cross-entropy loss (w.r.t. the input) for a given
    /// label — the quantity white-box attacks ascend.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabel`] if `label` is out of range, or shape errors
    /// from the forward/backward passes.
    pub fn input_gradient(&self, input: &Tensor, label: usize) -> Result<Tensor> {
        if label >= self.num_classes {
            return Err(NnError::InvalidLabel {
                label,
                num_classes: self.num_classes,
            });
        }
        let trace = self.forward_trace(input)?;
        let grad_logits = crate::loss::softmax_cross_entropy_grad(trace.logits(), label)?;
        self.backward_input(&trace, grad_logits, |_, _| Ok(()))
    }

    /// One zeroed gradient buffer per parameter, per layer: what
    /// [`Network::backward_params`] writes into.
    pub(crate) fn param_grad_buffers(&self) -> Vec<Vec<Tensor>> {
        self.layers
            .iter()
            .map(|layer| {
                layer
                    .params()
                    .iter()
                    .map(|p| Tensor::zeros(p.dims()))
                    .collect()
            })
            .collect()
    }

    /// Applies a gradient step `p -= lr * g` to every parameter
    /// (`param_grads[i]` shaped like layer `i`'s [`Layer::params`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `param_grads` does not match the network structure.
    pub fn apply_gradients(&mut self, param_grads: &[Vec<Tensor>], lr: f32) -> Result<()> {
        if param_grads.len() != self.layers.len() {
            return Err(NnError::InvalidConfig(
                "gradient/layer count mismatch".into(),
            ));
        }
        for (layer, layer_grads) in self.layers.iter_mut().zip(param_grads) {
            let params = layer.params_mut();
            if params.len() != layer_grads.len() {
                return Err(NnError::InvalidConfig(
                    "gradient/parameter count mismatch inside a layer".into(),
                ));
            }
            for (p, g) in params.into_iter().zip(layer_grads) {
                p.add_scaled_inplace(g, -lr)?;
            }
        }
        Ok(())
    }
}

/// Whatever runs a [`Network`]'s layers over an input while handing every
/// activation boundary to a [`TraceSink`]: the f32 [`Network`] itself, or its
/// int8 view [`crate::QuantizedNetwork`].
///
/// Inference precision is this argument, nothing more: the streaming path
/// extraction in `ptolemy-core` is generic over the provider (statically
/// dispatched), so every precision streams through the same sinks and the same
/// selection kernels.  There is one pass, and it takes a batch — a single
/// input is the batch of one.  It follows the [`TraceSink`] delivery contract
/// with stacked `[B] ++ shape` tensors whose slice `b` depends on sample `b`
/// alone.
pub trait ForwardProvider: Sync {
    /// The network whose layers the pass runs (and whose layers decompose
    /// the boundaries afterwards).
    fn network(&self) -> &Network;

    /// One fused forward pass over `inputs`, streaming stacked boundaries to
    /// `sink`; returns the stacked logits.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or any input does not match the
    /// network input shape.
    fn forward_with_sink_batch<S: TraceSink + ?Sized>(
        &self,
        inputs: &[Tensor],
        sink: &mut S,
    ) -> Result<Tensor>;
}

impl ForwardProvider for Network {
    fn network(&self) -> &Network {
        self
    }

    fn forward_with_sink_batch<S: TraceSink + ?Sized>(
        &self,
        inputs: &[Tensor],
        sink: &mut S,
    ) -> Result<Tensor> {
        Network::forward_with_sink_batch(self, inputs, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Flatten, ReLU};
    use ptolemy_tensor::Rng64;

    fn tiny_net(rng: &mut Rng64) -> Network {
        Network::new(vec![
            Box::new(Flatten::new(&[1, 2, 2])),
            Box::new(Dense::new(4, 5, rng).unwrap()),
            Box::new(ReLU::new(&[5])),
            Box::new(Dense::new(5, 3, rng).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_shapes() {
        let mut rng = Rng64::new(0);
        assert!(Network::new(vec![]).is_err());
        // Mismatched consecutive shapes.
        let bad = Network::new(vec![
            Box::new(Dense::new(4, 5, &mut rng).unwrap()) as Box<dyn Layer>,
            Box::new(Dense::new(6, 3, &mut rng).unwrap()),
        ]);
        assert!(bad.is_err());
    }

    #[test]
    fn forward_and_trace_agree() {
        let mut rng = Rng64::new(1);
        let net = tiny_net(&mut rng);
        let x = Tensor::ones(&[1, 2, 2]);
        let logits = net.forward(&x).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.num_layers(), 4);
        assert_eq!(trace.logits().as_slice(), logits.as_slice());
        assert_eq!(net.predict(&x).unwrap(), logits.argmax().unwrap());
        // Chaining property: output(i) and input(i + 1) are the same boundary.
        for i in 0..trace.num_layers() - 1 {
            assert_eq!(trace.output(i).as_slice(), trace.input(i + 1).as_slice());
        }
        // The trace holds each boundary once: num_layers + 1 activations.
        assert_eq!(trace.activations().len(), trace.num_layers() + 1);
    }

    /// A sink that keeps only the layer indices and boundary lengths it saw —
    /// the streaming driver must visit every layer in order without the sink
    /// retaining any activation.
    #[test]
    fn forward_with_sink_streams_boundaries_in_order() {
        struct Probe {
            seen: Vec<(usize, usize)>,
            input_len: usize,
        }
        impl TraceSink for Probe {
            fn on_input(&mut self, input: &Tensor) {
                self.input_len = input.len();
            }
            fn on_layer(&mut self, index: usize, output: &Tensor) {
                self.seen.push((index, output.len()));
            }
        }
        let mut rng = Rng64::new(9);
        let net = tiny_net(&mut rng);
        let x = Tensor::ones(&[1, 2, 2]);
        let mut probe = Probe {
            seen: Vec::new(),
            input_len: 0,
        };
        // A single input is the batch of one: stacked `[1] ++ shape`.
        let logits = net.forward_with_sink(&x, &mut probe).unwrap();
        assert_eq!(logits.dims(), &[1, 3]);
        assert_eq!(logits.as_slice(), net.forward(&x).unwrap().as_slice());
        assert_eq!(probe.input_len, 4);
        assert_eq!(
            probe.seen,
            vec![(0usize, 4usize), (1, 5), (2, 5), (3, 3)],
            "every layer must be observed in order"
        );

        // The batched driver observes stacked boundaries.
        let mut probe = Probe {
            seen: Vec::new(),
            input_len: 0,
        };
        let batch = vec![x.clone(), x];
        let stacked = net.forward_with_sink_batch(&batch, &mut probe).unwrap();
        assert_eq!(stacked.dims(), &[2, 3]);
        assert_eq!(probe.input_len, 8);
        assert_eq!(probe.seen, vec![(0usize, 8usize), (1, 10), (2, 10), (3, 6)]);
    }

    /// A non-finite logit is never ranked: logits are boundary
    /// `num_layers`, so `predict` fails with the typed error instead of
    /// choosing around a NaN or letting an infinity win (the slice ranking
    /// itself, [`predicted_class`], rejects both and is pinned in
    /// `trace.rs`), and so does a NaN input, at boundary 0.
    #[test]
    fn predict_rejects_non_finite_logits_and_inputs() {
        let identity = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let x = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        for poison in [f32::NAN, f32::INFINITY] {
            let bias = Tensor::from_vec(vec![poison, 0.0], &[2]).unwrap();
            let dense = Dense::from_parts(identity.clone(), bias).unwrap();
            let net = Network::new(vec![Box::new(dense)]).unwrap();
            assert_eq!(net.predict(&x), Err(NnError::NonFinite { boundary: 1 }));
            let all_nan = Tensor::full(&[2], f32::NAN);
            assert_eq!(
                net.predict(&all_nan),
                Err(NnError::NonFinite { boundary: 0 })
            );
        }
    }

    #[test]
    fn weight_layer_indices_and_macs() {
        let mut rng = Rng64::new(2);
        let net = tiny_net(&mut rng);
        assert_eq!(net.weight_layer_indices(), vec![1, 3]);
        assert_eq!(net.total_macs(), 4 * 5 + 5 * 3);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.input_shape(), &[1, 2, 2]);
        assert!(net.layer(4).is_err());
        assert_eq!(net.layer(2).unwrap().name(), "relu");
    }

    #[test]
    fn input_gradient_matches_numeric() {
        let mut rng = Rng64::new(3);
        let net = tiny_net(&mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.8, 0.1], &[1, 2, 2]).unwrap();
        let label = 1;
        let grad = net.input_gradient(&x, label).unwrap();
        let loss = |input: &Tensor| {
            let logits = net.forward(input).unwrap();
            crate::loss::cross_entropy_loss(&logits, label).unwrap()
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let ana = grad.as_slice()[i];
            assert!((num - ana).abs() < 1e-2, "grad {i}: {num} vs {ana}");
        }
        assert!(net.input_gradient(&x, 99).is_err());
    }

    #[test]
    fn fused_batch_matches_per_input_path_bit_for_bit() {
        let mut rng = Rng64::new(11);
        // A conv net exercises every fused kernel: conv, relu, pools, flatten,
        // dense and the residual block.
        let net = crate::zoo::resnet_mini(3, &mut rng).unwrap();
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| {
                let data = (0..net.input_shape().iter().product::<usize>())
                    .map(|_| rng.normal() * (1.0 + i as f32 * 0.3))
                    .collect();
                Tensor::from_vec(data, net.input_shape()).unwrap()
            })
            .collect();

        /// Every stacked boundary of one pass.
        struct Boundaries(Vec<Tensor>);
        impl TraceSink for Boundaries {
            fn on_input(&mut self, input: &Tensor) {
                self.0.push(input.clone());
            }
            fn on_layer(&mut self, _index: usize, output: &Tensor) {
                self.0.push(output.clone());
            }
        }

        let logits = net.forward_batch(&inputs).unwrap();
        assert_eq!(logits.dims(), &[5, net.num_classes()]);
        let mut stacked = Boundaries(Vec::new());
        net.forward_with_sink_batch(&inputs, &mut stacked).unwrap();
        assert_eq!(stacked.0.len(), net.num_layers() + 1);

        for (b, input) in inputs.iter().enumerate() {
            let single = net.forward(input).unwrap();
            let fused = logits.slice_batch(b).unwrap();
            for (f, s) in fused.as_slice().iter().zip(single.as_slice()) {
                assert_eq!(f.to_bits(), s.to_bits());
            }
            let single_trace = net.forward_trace(input).unwrap();
            for (boundary, stacked) in single_trace.activations().iter().zip(&stacked.0) {
                let sliced = stacked.slice_batch(b).unwrap();
                assert_eq!(sliced.dims(), boundary.dims());
                for (f, s) in sliced.as_slice().iter().zip(boundary.as_slice()) {
                    assert_eq!(f.to_bits(), s.to_bits());
                }
            }
        }
    }

    #[test]
    fn batched_forward_rejects_empty_and_mismatched_inputs() {
        let mut rng = Rng64::new(12);
        let net = tiny_net(&mut rng);
        assert!(net.forward_batch(&[]).is_err());
        let bad = vec![Tensor::ones(&[1, 2, 2]), Tensor::ones(&[4])];
        assert!(net.forward_batch(&bad).is_err());
        assert!(net.forward_with_sink_batch(&bad, &mut ()).is_err());
        // A batch of one works and equals the single path.
        let one = vec![Tensor::ones(&[1, 2, 2])];
        let fused = net.forward_batch(&one).unwrap();
        let single = net.forward(&one[0]).unwrap();
        assert_eq!(fused.slice_batch(0).unwrap().as_slice(), single.as_slice());
    }

    #[test]
    fn apply_gradients_moves_parameters_downhill() {
        let mut rng = Rng64::new(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.5, 0.25, 1.0], &[1, 2, 2]).unwrap();
        let label = 2;
        let before = {
            let logits = net.forward(&x).unwrap();
            crate::loss::cross_entropy_loss(&logits, label).unwrap()
        };
        for _ in 0..20 {
            let trace = net.forward_trace(&x).unwrap();
            let grad_logits =
                crate::loss::softmax_cross_entropy_grad(trace.logits(), label).unwrap();
            let mut grads = net.param_grad_buffers();
            net.backward_params(&trace, grad_logits, &mut grads)
                .unwrap();
            net.apply_gradients(&grads, 0.1).unwrap();
        }
        let after = {
            let logits = net.forward(&x).unwrap();
            crate::loss::cross_entropy_loss(&logits, label).unwrap()
        };
        assert!(after < before, "loss should decrease: {before} -> {after}");
    }
}
