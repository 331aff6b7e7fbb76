//! Forward-pass observation: the streaming [`TraceSink`] abstraction and the
//! materialized [`ForwardTrace`] record built on top of it.
//!
//! A forward pass produces `num_layers + 1` *activation boundaries*: boundary
//! `0` is the network input, boundary `i + 1` is layer `i`'s output (which is
//! also layer `i + 1`'s input — the two were historically stored twice, as
//! `inputs[i + 1]` *and* `outputs[i]`; they are now stored once).  A
//! [`TraceSink`] observes the boundaries as they are produced by
//! [`crate::Network::forward_with_sink_batch`], deciding per layer what to keep —
//! the hook that lets `ptolemy-core` run path extraction *during* inference
//! and drop activations eagerly instead of materialising the whole trace.

use ptolemy_tensor::Tensor;

use crate::batch::check_finite;
use crate::{Network, NnError, Result};

/// Layer-indexed observer of a forward pass — the streaming alternative to
/// materialising a full [`ForwardTrace`].
///
/// [`crate::Network::forward_with_sink_batch`] (and every
/// [`crate::ForwardProvider`]) calls
/// [`TraceSink::on_input`] once with the activation entering layer 0, then
/// [`TraceSink::on_layer`] after each layer finishes, **before** the next
/// layer starts — preceded, for a layer that has one, by
/// [`TraceSink::on_interior`] with the layer's interior activation.  Those
/// hooks only borrow.  What the driver is done with it hands over by value:
/// each interior right after its `on_interior`
/// ([`TraceSink::take_interior`]), and each boundary once the layer it feeds
/// has run ([`TraceSink::take_boundary`]).  A sink that keeps an activation
/// keeps it by move, never by copy; the default hooks drop it, which is
/// where a plain pass would have dropped it anyway, so a sink that retains
/// nothing observes an entire forward pass in O(largest layer) memory.  The
/// last boundary is never handed over: it is the logits the pass returns.
/// The tensors are always stacked (`[B] ++ shape`, NCHW) — a single input is
/// the batch of one, and its sink sees `[1] ++ shape`.
///
/// Sinks are infallible by design — a sink that can fail (e.g. a channel to a
/// worker thread) records the failure internally and surfaces it after the
/// drive; the forward pass itself never turns back.
pub trait TraceSink {
    /// Observes the activation entering layer 0 (boundary 0).
    fn on_input(&mut self, _input: &Tensor) {}

    /// Observes layer `index`'s interior activation
    /// ([`crate::Layer::forward_batch_interior`] — a residual block's last
    /// body layer's input), called just before that layer's
    /// [`TraceSink::on_layer`].
    /// A sink that keeps it spares the reverse walk a re-run of the block's
    /// body; the default ignores it.
    fn on_interior(&mut self, _index: usize, _interior: &Tensor) {}

    /// Observes layer `index`'s freshly produced output activation (boundary
    /// `index + 1`), called before layer `index + 1` runs.
    fn on_layer(&mut self, _index: usize, _output: &Tensor) {}

    /// Takes layer `index`'s interior by value, right after
    /// [`TraceSink::on_interior`].  The default drops it.
    fn take_interior(&mut self, _index: usize, _interior: Tensor) {}

    /// Takes boundary `boundary` by value once layer `boundary` has consumed
    /// it (after that layer's [`TraceSink::on_layer`]): boundary 0 is the
    /// input, boundary `i + 1` layer `i`'s output.  The default drops it.
    fn take_boundary(&mut self, _boundary: usize, _activation: Tensor) {}
}

/// A [`TraceSink`] that keeps every stacked boundary and every interior of a
/// pass, by move — the adapter that turns the streaming driver back into a
/// materialized trace ([`record`] unstacks a batch of one; the trainer keeps
/// its minibatch stacked for the batched backward pass).
#[derive(Debug, Default)]
pub(crate) struct TraceRecorder {
    activations: Vec<Tensor>,
    interiors: Vec<Option<Tensor>>,
}

impl TraceRecorder {
    pub(crate) fn with_capacity(num_layers: usize) -> Self {
        TraceRecorder {
            activations: Vec::with_capacity(num_layers + 1),
            interiors: vec![None; num_layers],
        }
    }

    /// The recorded boundaries and interiors as a trace, stacked as recorded,
    /// with the pass's `logits` (the one boundary the driver returns instead
    /// of handing it over) as the last boundary.
    pub(crate) fn into_trace(mut self, logits: Tensor) -> Result<ForwardTrace> {
        self.activations.push(logits);
        ForwardTrace::with_interiors(self.activations, self.interiors)
    }
}

impl TraceSink for TraceRecorder {
    fn take_interior(&mut self, index: usize, interior: Tensor) {
        self.interiors[index] = Some(interior);
    }

    fn take_boundary(&mut self, _boundary: usize, activation: Tensor) {
        self.activations.push(activation);
    }
}

/// The sink that observes nothing: driving it is a plain forward pass.
impl TraceSink for () {}

/// The batch of one of `network` over `input` with a keep-everything sink —
/// the materializing adapter behind `forward_trace`.  Every tensor of the
/// trace is the driver's own, moved out of the batch of one in place.
pub(crate) fn record(network: &Network, input: &Tensor) -> Result<ForwardTrace> {
    let mut recorder = TraceRecorder::with_capacity(network.num_layers());
    let logits = network.forward_with_sink(input, &mut recorder)?;
    recorder.activations.push(logits);
    let activations = recorder
        .activations
        .into_iter()
        .map(Tensor::into_sample)
        .collect::<std::result::Result<_, _>>()?;
    let interiors = recorder
        .interiors
        .into_iter()
        .map(|interior| interior.map(Tensor::into_sample).transpose())
        .collect::<std::result::Result<_, _>>()?;
    ForwardTrace::with_interiors(activations, interiors)
}

/// Picks the predicted class from one sample's logits: the index of the
/// largest logit, the earliest of equal maxima winning ([`Tensor::argmax`]'s
/// ranking).  [`crate::Network::predict`] ranks with this function too.
///
/// A NaN or an infinity has no rank, so — the crate's one rule for
/// non-finite values — such a logit is rejected, never skipped.  Logits that
/// come out of a network have already passed the boundary check
/// ([`NnError::NonFinite`]); this guards slices handed in from elsewhere.
///
/// # Errors
///
/// Returns [`NnError::InvalidLogits`] if `logits` is empty or holds a NaN or
/// an infinity.
pub fn predicted_class(logits: &[f32]) -> Result<usize> {
    let mut best: Option<usize> = None;
    for (i, &v) in logits.iter().enumerate() {
        if !v.is_finite() {
            return Err(NnError::InvalidLogits(format!("logit {i} is {v}")));
        }
        if best.map_or(true, |b| v > logits[b]) {
            best = Some(i);
        }
    }
    best.ok_or_else(|| NnError::InvalidLogits("logits tensor is empty".into()))
}

/// Record of a full forward pass through a [`crate::Network`].
///
/// Stores each activation boundary exactly once: [`ForwardTrace::input`]`(i)`
/// and [`ForwardTrace::output`]`(i)` are views into the same list (layer `i`'s
/// output *is* layer `i + 1`'s input), so a materialized trace costs half of
/// what the historical `inputs`/`outputs` pair did.  The Ptolemy extraction
/// algorithms consume this trace: backward extraction walks it from the last
/// layer to the first, forward extraction walks it in layer order, and the
/// per-layer partial sums are recomputed on demand from `input(i)` via
/// [`crate::Layer::contributions_many`].
///
/// A trace recorded by [`crate::Network::forward_trace`] also keeps each
/// layer's *interior* ([`crate::Layer::forward_batch_interior`] — a residual
/// block's last body layer's input), so decomposing that layer later re-runs nothing;
/// a trace assembled from boundaries alone ([`ForwardTrace::from_activations`])
/// has none, and the layer recomputes its interior from the boundary it is
/// given.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `activations[0]` is the network input; `activations[i + 1]` is layer
    /// `i`'s output.
    activations: Vec<Tensor>,
    /// `interiors[i]` is layer `i`'s interior, where recorded (empty for a
    /// boundaries-only trace).
    interiors: Vec<Option<Tensor>>,
}

impl ForwardTrace {
    /// Assembles a trace from its activation boundaries (`num_layers + 1`
    /// tensors: the network input followed by every layer output in order).
    /// A trace obeys the forward pass's non-finite rule however it was
    /// assembled, so these boundaries are checked as the driver checks its
    /// own.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if fewer than two boundaries are
    /// supplied (a non-empty network has at least one layer), or
    /// [`NnError::NonFinite`] if a boundary holds a NaN or an infinity.
    pub fn from_activations(activations: Vec<Tensor>) -> Result<Self> {
        for (boundary, activation) in activations.iter().enumerate() {
            check_finite(activation.as_slice(), boundary)?;
        }
        ForwardTrace::with_interiors(activations, Vec::new())
    }

    /// A trace of boundaries plus the interiors recorded alongside them, as
    /// the driver (which has already checked them) handed them out.
    pub(crate) fn with_interiors(
        activations: Vec<Tensor>,
        interiors: Vec<Option<Tensor>>,
    ) -> Result<Self> {
        if activations.len() < 2 {
            return Err(NnError::InvalidConfig(format!(
                "a forward trace needs at least 2 activation boundaries, got {}",
                activations.len()
            )));
        }
        Ok(ForwardTrace {
            activations,
            interiors,
        })
    }

    /// Layer `index`'s interior activation, if this trace recorded one.
    pub fn interior(&self, index: usize) -> Option<&Tensor> {
        self.interiors.get(index).and_then(Option::as_ref)
    }

    /// Number of layers traced.
    pub fn num_layers(&self) -> usize {
        self.activations.len() - 1
    }

    /// All activation boundaries: the network input followed by every layer
    /// output in order.
    pub fn activations(&self) -> &[Tensor] {
        &self.activations
    }

    /// Input activation of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()` (same contract as indexing the
    /// historical `inputs` vector).
    pub fn input(&self, index: usize) -> &Tensor {
        &self.activations[index]
    }

    /// Output activation of layer `index` (identical to `input(index + 1)` for
    /// non-final layers).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()`.
    pub fn output(&self, index: usize) -> &Tensor {
        &self.activations[index + 1]
    }

    /// Final network output (logits).
    #[expect(
        clippy::expect_used,
        reason = "forward_trace always records >= 2 boundaries"
    )]
    pub fn logits(&self) -> &Tensor {
        self.activations
            .last()
            .expect("a trace holds at least two boundaries")
    }

    /// Index of the predicted class (the largest logit,
    /// [`predicted_class`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLogits`] if the logits are empty (a trace's
    /// boundaries are finite by construction).
    pub fn predicted_class(&self) -> Result<usize> {
        predicted_class(self.logits().as_slice())
    }

    /// Total bytes of activation data this materialized trace holds resident
    /// (boundaries and recorded interiors) — the baseline the streaming
    /// extraction pipeline's peak footprint is compared against.
    pub fn activation_bytes(&self) -> usize {
        self.activations
            .iter()
            .chain(self.interiors.iter().flatten())
            .map(|t| t.len() * std::mem::size_of::<f32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accessors() {
        let trace = ForwardTrace::from_activations(vec![
            Tensor::zeros(&[4]),
            Tensor::from_vec(vec![0.1, 0.9, 0.0], &[3]).unwrap(),
        ])
        .unwrap();
        assert_eq!(trace.num_layers(), 1);
        assert_eq!(trace.predicted_class().unwrap(), 1);
        assert_eq!(trace.logits().len(), 3);
        assert_eq!(trace.input(0).len(), 4);
        assert_eq!(trace.output(0).len(), 3);
        assert_eq!(trace.activations().len(), 2);
        assert_eq!(trace.activation_bytes(), (4 + 3) * 4);
        assert!(ForwardTrace::from_activations(vec![Tensor::zeros(&[4])]).is_err());
        let poisoned = vec![Tensor::zeros(&[4]), Tensor::full(&[3], f32::NEG_INFINITY)];
        assert_eq!(
            ForwardTrace::from_activations(poisoned).unwrap_err(),
            NnError::NonFinite { boundary: 1 }
        );
    }

    #[test]
    fn predicted_class_rejects_degenerate_logits() {
        // Any non-finite logit is rejected, wherever it sits and whatever the
        // other logits are: a NaN is never skipped, an infinity never wins.
        for logits in [
            vec![f32::NAN, f32::NAN],
            vec![f32::NAN, 2.0, 1.0],
            vec![0.0, f32::INFINITY],
            vec![0.25, 1.0, f32::NEG_INFINITY],
        ] {
            assert!(matches!(
                predicted_class(&logits),
                Err(NnError::InvalidLogits(_))
            ));
        }
        // An empty logits tensor errors too.
        let empty = Tensor::zeros(&[0]);
        assert!(matches!(
            predicted_class(empty.as_slice()),
            Err(NnError::InvalidLogits(_))
        ));
        // Finite logits match argmax exactly, the first of equal maxima
        // winning.
        for logits in [
            vec![0.1, 0.9, 0.0],
            vec![0.7, 0.7],
            vec![-1.0, f32::MAX, f32::MAX],
        ] {
            let tensor = Tensor::from_vec(logits.clone(), &[logits.len()]).unwrap();
            assert_eq!(predicted_class(&logits).unwrap(), tensor.argmax().unwrap());
        }
        assert_eq!(predicted_class(&[0.7, 0.7]).unwrap(), 0);
    }

    #[test]
    fn recorder_sink_materializes_all_boundaries() {
        // Stacked as recorded: a batch of two, handed over as the driver
        // hands it — every boundary but the logits by value, the logits at
        // the end.
        let mut recorder = TraceRecorder::with_capacity(2);
        let x = Tensor::zeros(&[2, 4]);
        let h = Tensor::ones(&[2, 3]);
        let y = Tensor::full(&[2, 2], 0.5);
        let h_data = h.as_slice().as_ptr();
        recorder.take_boundary(0, x);
        recorder.take_boundary(1, h);
        let trace = recorder.into_trace(y.clone()).unwrap();
        assert_eq!(trace.num_layers(), 2);
        assert!(trace.interior(0).is_none());
        assert_eq!(trace.input(0).dims(), &[2, 4]);
        assert_eq!(trace.input(1).as_slice(), &[1.0; 6]);
        // Kept by move: the trace holds the very buffer it was handed.
        assert_eq!(trace.input(1).as_slice().as_ptr(), h_data);
        assert_eq!(trace.logits().dims(), &[2, 2]);
        assert_eq!(trace.logits().as_slice(), y.as_slice());
    }
}
