//! Important-neuron extraction (paper Sec. III-A/III-C, Fig. 3).
//!
//! Backward extraction starts from the predicted-class neuron of the last layer and
//! walks towards the input: at every weight layer it ranks (cumulative threshold) or
//! filters (absolute threshold) the partial sums feeding each currently-important
//! output neuron and keeps the contributing input neurons.  Pass-through layers
//! (ReLU, pooling, flatten) simply re-map indices.
//!
//! Forward extraction selects each layer's important neurons from the layer's own
//! output activations as soon as the layer finishes, which is what allows the
//! compiler to overlap extraction with the next layer's inference.
//!
//! # Streaming pipeline
//!
//! Both algorithms are implemented over *activation boundary sources*, so they
//! run equally on a materialized [`ForwardTrace`] ([`extract_path`]) and on the
//! streaming pipeline, which plugs a [`ptolemy_nn::TraceSink`] into the
//! provider's batched forward pass itself.  There is one streaming driver per
//! direction and it takes a batch: [`extract_paths_streaming_batch`] runs it
//! over stacked inputs, and [`extract_path_streaming`] — like every other
//! single-input entry point in this crate — runs the same driver on the batch
//! of one.
//!
//! * **forward programs** mask each sample's slice of each enabled layer's
//!   output inline, the moment the layer finishes, and never retain or clone
//!   an activation, so the resident trace state is zero instead of
//!   O(network);
//! * **backward programs** retain only what the reverse walk will actually
//!   read: enabled weight layers' inputs and outputs, their interior
//!   activations ([`ptolemy_nn::TraceSink::on_interior`] — a residual block's
//!   last body layer's input), plus the inputs of pass-through layers whose
//!   routing is data-dependent ([`ptolemy_nn::Layer::static_routing`] is
//!   `false`, e.g. max pooling).  Early-termination programs drop everything
//!   below the first disabled weight layer as it streams past.  Each sample's
//!   walk reads its slice of the retained stacked tensors — a batch of one's
//!   are retained unstacked in the first place, so its walk slices nothing.
//!
//! Streamed and materialized extraction are **bit-for-bit identical**: slab
//! `b` of every fused layer kernel is bit-for-bit the unbatched layer on
//! sample `b`, and both pipelines feed the same selection kernels with the
//! same tensors (pinned by `tests/streaming.rs`).
//!
//! # Cost of the reverse walk
//!
//! The walk reads partial sums off activations the inference already produced
//! (paper Sec. III-A): per layer it asks for the partial sums of *all*
//! currently-important outputs in one [`ptolemy_nn::Layer::partial_sums`]
//! call and never runs a layer forward in the streaming pipelines — a residual
//! block decomposes against the interior its own forward pass handed the sink.
//! A [`ForwardTrace`] recorded by `Network::forward_trace` carries the same
//! interiors, so [`extract_path`] over it runs nothing either; a trace
//! assembled from boundaries alone (`ForwardTrace::from_activations`) makes
//! each block re-run its body head once per block, never per neuron.
//!
//! The paper's `csps` → `sort` → `acum` (Listing 1) is one stream per
//! neuron: the layer writes the neuron's partial sums as **values only** into
//! one reused buffer — a convolution reads them through a per-geometry tap
//! list of its window's clip class, a dense layer multiplies `x ⊙ W[neuron]`,
//! a residual block appends its shortcut last — and [`Ranking`], the one
//! ranking kernel, takes arg-maxes off that buffer in place: one branch-free
//! 8-lane pass per pick, the pick set to `-∞`, and a sort of what is left
//! after eight scans.  Only the picked positions are mapped back to input
//! indices ([`ptolemy_nn::Sources`]); no index is stored per partial sum.
//! Activation and reshape layers pass the important indices through
//! untouched; pooling layers route them through one flat [`Decompositions`]
//! buffer.  The union of contributors is a [`BitVec`] over the layer input —
//! the path segment itself at an enabled layer — read back in ascending
//! order.
//!
//! Nor does the walk allocate per neuron, per layer or per detect: its
//! buffers live per thread, grow to their high-water mark and serve every
//! layer, every sample of a sub-batch and every later walk on that thread
//! (`tests/alloc_budget.rs` counts it).
//!
//! # Precision
//!
//! Nothing above depends on what multiplied the activations.  The streaming
//! driver is generic over a [`ForwardProvider`] — the f32 [`Network`] or its
//! int8 view `ptolemy_nn::QuantizedNetwork` — statically dispatched, so an
//! int8 pass streams through the same sinks and selection kernels (its
//! residual blocks run f32 and hand the sink the same interior a recompute
//! would produce).

use std::cell::RefCell;

use ptolemy_nn::{
    predicted_class, Decompositions, ForwardProvider, ForwardTrace, Network, TraceSink,
};
use ptolemy_tensor::parallel::par_chunks;
use ptolemy_tensor::Tensor;

use crate::{
    ActivationPath, BitVec, CoreError, DetectionProgram, Direction, Ranking, Result, ThresholdKind,
};

/// Computes the `(network layer index, mask length)` layout of paths extracted with
/// `program` on `network`.
///
/// Backward extraction records masks over each enabled weight layer's *input*
/// feature map; forward extraction records masks over its *output* feature map.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the program does not describe the same
/// number of weight layers as the network has.
pub fn path_layout(network: &Network, program: &DetectionProgram) -> Result<Vec<(usize, usize)>> {
    Ok(ExtractionPlan::new(network, program)?.layout)
}

/// What an extraction walk does at one network layer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LayerRole {
    /// ReLU, flatten: output `i` routes to input `i`, so the important
    /// indices pass through unchanged.
    Identity,
    /// Pooling: importance is re-mapped to the layer's `input_len` input
    /// indices.
    PassThrough { input_len: usize },
    /// A weight layer the program skips; a backward walk terminates here
    /// (early termination, Sec. VII-F).
    Disabled,
    /// An enabled weight layer: select with `threshold`, record the mask in
    /// path segment `segment`.
    Enabled {
        threshold: ThresholdKind,
        segment: usize,
    },
}

/// `program` resolved against `network`, once: the path layout, the
/// per-network-layer role table every walk and streaming sink indexes by layer
/// (nothing searches for an ordinal or a segment), the boundaries a streaming
/// backward pass retains, and the two per-input sizes every call reports —
/// everything an extraction needs that depends on the model alone.
///
/// [`crate::DetectionEngineBuilder::build`] binds one to the engine, so
/// serving walks the layer list zero times per call; the free functions
/// ([`extract_path`], [`extract_path_streaming`], …) build their own.  A plan
/// is only meaningful for the network it was built from.
#[derive(Debug, Clone)]
pub(crate) struct ExtractionPlan {
    direction: Direction,
    layout: Vec<(usize, usize)>,
    roles: Vec<LayerRole>,
    /// Boundaries a streaming backward pass must retain (see
    /// [`backward_retention`]); empty for forward programs, which retain none.
    retain: Vec<bool>,
    /// Forward MACs of one input.
    forward_macs: usize,
    /// [`materialized_trace_bytes`] of one input.
    trace_bytes: usize,
}

impl ExtractionPlan {
    pub(crate) fn new(network: &Network, program: &DetectionProgram) -> Result<Self> {
        let mut specs = program.specs().iter();
        let mut layout = Vec::new();
        let mut roles = Vec::with_capacity(network.num_layers());
        for (layer_idx, layer) in network.layers().enumerate() {
            let kind = layer.kind();
            if kind.routes_by_identity() {
                roles.push(LayerRole::Identity);
                continue;
            }
            if !kind.is_weight_layer() {
                roles.push(LayerRole::PassThrough {
                    input_len: layer.input_len(),
                });
                continue;
            }
            let spec = specs.next().ok_or_else(|| mismatch(network, program))?;
            roles.push(if spec.enabled {
                let len = match program.direction() {
                    Direction::Backward => layer.input_len(),
                    Direction::Forward => layer.output_len(),
                };
                layout.push((layer_idx, len));
                LayerRole::Enabled {
                    threshold: spec.threshold,
                    segment: layout.len() - 1,
                }
            } else {
                LayerRole::Disabled
            });
        }
        if specs.next().is_some() {
            return Err(mismatch(network, program));
        }
        let retain = match program.direction() {
            Direction::Backward => backward_retention(network, &roles)?,
            Direction::Forward => Vec::new(),
        };
        Ok(ExtractionPlan {
            direction: program.direction(),
            layout,
            roles,
            retain,
            forward_macs: usize::try_from(network.total_macs()).unwrap_or(usize::MAX),
            trace_bytes: materialized_trace_bytes(network, 1),
        })
    }

    /// The `(network layer index, mask length)` layout of extracted paths.
    pub(crate) fn layout(&self) -> &[(usize, usize)] {
        &self.layout
    }

    /// Forward MACs of `batch` inputs: the work estimate every per-input and
    /// per-batch fan-out in this crate hands the work gate.  The reverse walk
    /// of a backward program runs no layer forward; it adds only the
    /// decomposition of the few neurons it marks, which this estimate leaves
    /// out.
    pub(crate) fn forward_work(&self, batch: usize) -> usize {
        self.forward_macs.saturating_mul(batch)
    }

    fn footprint(&self, peak_streamed_bytes: usize, batch: usize) -> ActivationFootprint {
        ActivationFootprint {
            peak_streamed_bytes,
            materialized_bytes: self.trace_bytes * batch,
        }
    }

    /// [`extract_path`] against this plan.
    pub(crate) fn extract(
        &self,
        network: &Network,
        trace: &ForwardTrace,
    ) -> Result<ActivationPath> {
        if trace.num_layers() != network.num_layers() {
            return Err(CoreError::InvalidInput(format!(
                "trace covers {} layers but the network has {}",
                trace.num_layers(),
                network.num_layers()
            )));
        }
        match self.direction {
            Direction::Backward => {
                let predicted = trace.predicted_class()?;
                WalkScratch::with(|scratch| scratch.walk(network, self, trace, predicted))
            }
            Direction::Forward => extract_forward(self, trace),
        }
    }

    /// Driver behind [`extract_paths_streaming_batch`] and the engine's fused
    /// batch path: `finish(predicted_class, path)` completes each sample on
    /// the thread that extracted it, so engine-level completion work
    /// (path-similarity scoring) rides the same fan-out instead of
    /// serialising after it.
    pub(crate) fn stream_batch_with<P, T, F>(
        &self,
        provider: &P,
        inputs: &[Tensor],
        finish: &F,
    ) -> Result<(Vec<T>, ActivationFootprint)>
    where
        P: ForwardProvider,
        T: Send,
        F: Fn(usize, ActivationPath) -> Result<T> + Sync,
    {
        let stream = |sub_batch: &[Tensor]| match self.direction {
            Direction::Forward => stream_forward_batch(provider, self, sub_batch, finish),
            Direction::Backward => stream_backward_batch(provider, self, sub_batch, finish),
        };
        let mut samples = Vec::with_capacity(inputs.len());
        let mut peak_streamed_bytes = 0;
        for streamed in par_chunks(inputs, self.forward_work(inputs.len()), stream) {
            let (sub_samples, sub_peak) = streamed?;
            samples.extend(sub_samples);
            // Sub-batches run side by side, so their retained state adds up.
            peak_streamed_bytes += sub_peak;
        }
        Ok((samples, self.footprint(peak_streamed_bytes, inputs.len())))
    }
}

fn mismatch(network: &Network, program: &DetectionProgram) -> CoreError {
    CoreError::InvalidProgram(format!(
        "program describes {} weight layers but the network has {}",
        program.num_weight_layers(),
        network.weight_layer_indices().len()
    ))
}

/// Activation bytes a fully materialized trace of `network` holds resident for
/// a batch of `batch_size` samples — every boundary (the input plus each
/// layer's output) and every layer interior at once, the baseline the
/// streaming pipeline's [`ActivationFootprint::peak_streamed_bytes`] is
/// measured against.
pub fn materialized_trace_bytes(network: &Network, batch_size: usize) -> usize {
    let input: usize = network.input_shape().iter().product();
    let layers: usize = network
        .layers()
        .map(|l| l.output_len() + l.interior_len())
        .sum();
    (input + layers) * std::mem::size_of::<f32>() * batch_size
}

/// Peak activation bytes the streaming extraction pipeline kept resident,
/// against the bytes a materialized trace would have held.
///
/// "Resident" counts the **trace state** that outlives a layer — the
/// boundaries a backward program retains for its reverse walk (forward
/// programs retain none), summed over the sub-batches a fanned-out batch runs
/// concurrently.  It deliberately excludes state both strategies hold
/// identically, so the two numbers stay comparable: the driver's transient
/// current-layer input/output, and the
/// per-sample extraction scratch of backward batches (the streamed walk
/// slices each retained stacked boundary per sample, as a materialized
/// per-sample trace would copy it — in fact it slices a subset, and a batch
/// of one slices nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivationFootprint {
    /// Peak resident activation bytes of the streamed extraction.
    pub peak_streamed_bytes: usize,
    /// Bytes the materialized trace of the same pass holds (all boundaries).
    pub materialized_bytes: usize,
}

/// Result of one streamed trace + extraction ([`extract_path_streaming`]).
#[derive(Debug, Clone)]
pub struct StreamedExtraction {
    /// The class the network predicted for the input.
    pub predicted_class: usize,
    /// The extracted activation path (bit-for-bit what [`extract_path`] on a
    /// materialized trace of the same input produces).
    pub path: ActivationPath,
    /// Peak-memory accounting of the streamed pass.
    pub footprint: ActivationFootprint,
}

/// Result of one streamed fused-batch trace + extraction
/// ([`extract_paths_streaming_batch`]).
#[derive(Debug, Clone)]
pub struct StreamedBatchExtraction {
    /// Per-sample `(predicted class, activation path)`, in input order; each
    /// entry is bit-for-bit what the per-input path produces.
    pub samples: Vec<(usize, ActivationPath)>,
    /// Peak-memory accounting of the streamed pass (stacked boundaries).
    pub footprint: ActivationFootprint,
}

/// Extracts the activation path of one traced inference under `program` from a
/// fully materialized trace.
///
/// The streaming pipeline ([`extract_path_streaming`]) produces bit-for-bit
/// identical paths without materialising the trace; this entry point remains
/// for callers that already hold a [`ForwardTrace`] for other reasons.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the program does not match the network,
/// or propagates substrate errors for inconsistent traces.
pub fn extract_path(
    network: &Network,
    trace: &ForwardTrace,
    program: &DetectionProgram,
) -> Result<ActivationPath> {
    ExtractionPlan::new(network, program)?.extract(network, trace)
}

/// Runs one forward pass and extracts the activation path **while inferring**:
/// the streaming counterpart of `forward_trace` + [`extract_path`].
///
/// The input runs as the batch of one of [`extract_paths_streaming_batch`] —
/// there is no separate single-input pipeline.  Forward programs mask each
/// enabled layer's output inline as soon as the layer finishes and retain
/// nothing; backward programs retain only the boundaries the reverse walk
/// reads.  The whole call runs on the calling thread.  The returned path and
/// predicted class are bit-for-bit identical to the materialized pipeline's.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the program does not match the
/// network, and propagates substrate errors (including a mis-shaped input and
/// [`ptolemy_nn::NnError::InvalidLogits`] for logits no class can be predicted
/// from).
pub fn extract_path_streaming(
    network: &Network,
    program: &DetectionProgram,
    input: &Tensor,
) -> Result<StreamedExtraction> {
    let StreamedBatchExtraction { samples, footprint } =
        extract_paths_streaming_batch(network, program, std::slice::from_ref(input))?;
    let (predicted_class, path) = samples
        .into_iter()
        .next()
        .ok_or_else(|| CoreError::InvalidInput("a batch of one extracted no path".into()))?;
    Ok(StreamedExtraction {
        predicted_class,
        path,
        footprint,
    })
}

/// Fused-batch counterpart of [`extract_path_streaming`]: stacked NCHW
/// forward passes drive the extraction of every sample's path.
///
/// The batch is split into as many contiguous sub-batches as its forward
/// MACs buy at the workspace's work gate ([`ptolemy_tensor::parallel`]; one,
/// on the calling thread, for small batches or when every core is busy).
/// Each sub-batch runs one fused forward pass with its masking (forward
/// programs) or its per-sample reverse walks (backward programs) inline on
/// the same thread.  Sample `b` of the result is bit-for-bit
/// `extract_path_streaming(network, program, &inputs[b])` whatever the split:
/// sample `b` of a fused pass depends on `inputs[b]` alone, and a single
/// input *is* the batch of one.
///
/// # Errors
///
/// Returns an error if the program does not match the network, if `inputs` is
/// empty or mis-shaped (the whole fused pass fails — callers wanting
/// per-input error granularity retry each input as a batch of one), or if any
/// sample's logits admit no prediction.
pub fn extract_paths_streaming_batch(
    network: &Network,
    program: &DetectionProgram,
    inputs: &[Tensor],
) -> Result<StreamedBatchExtraction> {
    let plan = ExtractionPlan::new(network, program)?;
    let (samples, footprint) =
        plan.stream_batch_with(network, inputs, &|predicted, path| Ok((predicted, path)))?;
    Ok(StreamedBatchExtraction { samples, footprint })
}

/// The ranking kernel's reused buffers: the values it ranks (and consumes)
/// and its sort order.  They grow to their high-water mark and are never
/// shrunk.
#[derive(Debug, Default)]
struct RankScratch {
    values: Vec<f32>,
    order: Vec<u32>,
}

/// Selects contributors from one neuron's partial sums (`values`, consumed
/// by the ranking) according to a threshold, handing each one's position to
/// `select` in selection order; `order` is the ranking's sort scratch.
///
/// * Cumulative: minimal prefix of the descending-sorted partial sums whose
///   cumulative sum reaches `theta × target` (paper Fig. 3).  If the target is not
///   positive, only the single largest contributor is kept.
/// * Absolute: every partial sum `≥ phi × |target|`.
///
/// The partial sums are finite: they decompose the outputs of a checked pass,
/// and a non-finite `w · x` would have made its neuron's output non-finite.
fn select_contributors(
    values: &mut [f32],
    target: f32,
    threshold: ThresholdKind,
    order: &mut Vec<u32>,
    mut select: impl FnMut(usize),
) {
    match threshold {
        ThresholdKind::Cumulative { theta } => {
            let mut ranked = Ranking::new(values, order);
            if target <= 0.0 {
                if let Some((at, _)) = ranked.next() {
                    select(at);
                }
                return;
            }
            let goal = theta * target;
            let mut cum = 0.0;
            for (at, partial) in ranked {
                select(at);
                cum += partial;
                if cum >= goal {
                    break;
                }
            }
        }
        ThresholdKind::Absolute { phi } => {
            let cutoff = phi * target.abs();
            for (at, &partial) in values.iter().enumerate() {
                if partial >= cutoff && partial > 0.0 {
                    select(at);
                }
            }
        }
    }
}

/// Marks the important neurons of a layer output in `mask`, selecting directly
/// from the activation values (forward extraction, where no downstream
/// importance information exists yet) — the single forward-program masking
/// step shared by the materialized walk and the streaming sinks, so every
/// pipeline is bit-for-bit the same selection.  `ranking` is the ranking
/// kernel's reused scratch, which a cumulative threshold copies the values
/// into.
///
/// * Cumulative: the minimal prefix of the descending-sorted positive
///   activations whose sum reaches `theta ×` the positive mass (the single
///   largest activation when there is no positive mass).
/// * Absolute: every positive activation `≥ phi × max`.  Two passes over the
///   values: the maximum, then the mask a word at a time.
///
/// The activations are a checked boundary, so finite.
fn mask_from_activations(
    values: &[f32],
    threshold: ThresholdKind,
    mask: &mut BitVec,
    ranking: &mut RankScratch,
) {
    match threshold {
        ThresholdKind::Cumulative { theta } => {
            ranking.values.clear();
            ranking.values.extend_from_slice(values);
            let mut ranked = Ranking::new(&mut ranking.values, &mut ranking.order);
            let total: f32 = values.iter().filter(|v| **v > 0.0).sum();
            if total <= 0.0 {
                if let Some((idx, _)) = ranked.next() {
                    mask.set(idx);
                }
                return;
            }
            let goal = theta * total;
            let mut cum = 0.0;
            for (idx, value) in ranked {
                if value <= 0.0 {
                    break;
                }
                mask.set(idx);
                cum += value;
                if cum >= goal {
                    break;
                }
            }
        }
        ThresholdKind::Absolute { phi } => {
            let max = max(values);
            if max > 0.0 {
                let cutoff = phi * max;
                mask.set_where(values, |v| *v >= cutoff && *v > 0.0);
            }
        }
    }
}

/// The maximum of `values` (`-inf` when empty), in one pass.  Eight running
/// maxima instead of one: a single one is a chain of dependent compares, four
/// cycles an element.
fn max(values: &[f32]) -> f32 {
    const LANES: usize = 8;
    let keep_greater = |max: &mut f32, v: f32| {
        if v > *max {
            *max = v;
        }
    };
    let mut maxima = [f32::NEG_INFINITY; LANES];
    let chunks = values.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (max, &v) in maxima.iter_mut().zip(chunk) {
            keep_greater(max, v);
        }
    }
    for (max, &v) in maxima.iter_mut().zip(rest) {
        keep_greater(max, v);
    }
    let mut max = f32::NEG_INFINITY;
    for lane in maxima {
        keep_greater(&mut max, lane);
    }
    max
}

/// Access to the activation boundaries of one forward pass: boundary `i` is
/// the activation entering layer `i`; boundary `num_layers` is the logits.
///
/// Implemented by the materialized [`ForwardTrace`] and by the partial stores
/// the streaming sinks retain, so the extraction walks below run bit-for-bit
/// identically on either.
trait BoundarySource {
    fn boundary(&self, index: usize) -> Result<&Tensor>;

    /// Layer `layer`'s interior activation, when the source kept it.
    fn interior(&self, layer: usize) -> Option<&Tensor>;
}

impl BoundarySource for ForwardTrace {
    fn boundary(&self, index: usize) -> Result<&Tensor> {
        self.activations().get(index).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "trace has no activation boundary {index} (network has {} layers)",
                self.num_layers()
            ))
        })
    }

    fn interior(&self, layer: usize) -> Option<&Tensor> {
        ForwardTrace::interior(self, layer)
    }
}

/// What a streaming backward pass retained: `boundaries[i]` enters layer `i`,
/// `interiors[i]` is layer `i`'s interior.
#[derive(Debug)]
struct Retained {
    boundaries: Vec<Option<Tensor>>,
    interiors: Vec<Option<Tensor>>,
}

impl BoundarySource for Retained {
    fn boundary(&self, index: usize) -> Result<&Tensor> {
        self.boundaries
            .get(index)
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                CoreError::InvalidInput(format!(
                    "activation boundary {index} was not retained by the streaming plan"
                ))
            })
    }

    fn interior(&self, layer: usize) -> Option<&Tensor> {
        self.interiors.get(layer).and_then(Option::as_ref)
    }
}

/// The reverse walk's working memory, reused by every layer of a walk and by
/// every walk on the same thread: once each buffer has grown to its
/// high-water mark, a walk allocates nothing per neuron, per layer or per
/// detect.
#[derive(Debug, Default)]
struct WalkScratch {
    /// Important neurons at the output of the layer being examined, ascending.
    important: Vec<usize>,
    /// One neuron's partial sums at a time, and the ranking's order.
    ranking: RankScratch,
    /// A pooling layer's routes.
    routes: Decompositions,
    /// A pooling layer's routed inputs (an enabled layer marks its path
    /// segment instead).
    routed: BitVec,
}

thread_local! {
    /// Each thread's walk scratch: a served detect reuses the buffers the
    /// thread's previous walks grew.
    static WALK_SCRATCH: RefCell<WalkScratch> = RefCell::default();
}

impl WalkScratch {
    /// Runs `f` on this thread's scratch.  The scratch is taken out for the
    /// call, so a walk nested in `f` (none is) would start from an empty one
    /// instead of failing.
    fn with<R>(f: impl FnOnce(&mut WalkScratch) -> R) -> R {
        let mut scratch = WALK_SCRATCH.take();
        let result = f(&mut scratch);
        WALK_SCRATCH.set(scratch);
        result
    }

    /// The backward path of `predicted_class` through the activations of
    /// `source`.
    fn walk<S: BoundarySource + ?Sized>(
        &mut self,
        network: &Network,
        plan: &ExtractionPlan,
        source: &S,
        predicted_class: usize,
    ) -> Result<ActivationPath> {
        let mut path = ActivationPath::empty(&plan.layout);
        // The walk starts at the last layer with the predicted class (paper:
        // "the last layer has only one important neuron").
        self.important.clear();
        self.important.push(predicted_class);
        for (layer_idx, role) in plan.roles.iter().enumerate().rev() {
            if self.important.is_empty() {
                break;
            }
            // The layer's important inputs, marked as a set: ascending and
            // duplicate-free when read back.
            let marked = match *role {
                // Output `i` is input `i`: the important indices stand.
                LayerRole::Identity => continue,
                // Early termination: the backward walk stops at the first
                // disabled weight layer (Sec. VII-F).
                LayerRole::Disabled => break,
                LayerRole::Enabled { threshold, segment } => {
                    let layer = network.layer(layer_idx)?;
                    let input = source.boundary(layer_idx)?;
                    let out = source.boundary(layer_idx + 1)?.as_slice();
                    // The mask over this layer's input feature map is the set.
                    let mask = &mut path.segments_mut()[segment].mask;
                    let order = &mut self.ranking.order;
                    // One call hands over every important output's partial
                    // sums, so a composite layer touches its body at most
                    // once — and not at all when the source kept the
                    // interior.  Only the picked positions are mapped back
                    // to their inputs.
                    layer.partial_sums(
                        input,
                        source.interior(layer_idx),
                        &self.important,
                        &mut self.ranking.values,
                        &mut |neuron, values, sources| {
                            select_contributors(values, out[neuron], threshold, order, |at| {
                                mask.set(sources.input(at));
                            });
                        },
                    )?;
                    &*mask
                }
                LayerRole::PassThrough { input_len } => {
                    // Re-map the important output indices to input indices
                    // (argmax routing for max pooling, window members for
                    // average pooling).  Statically-routed layers never
                    // touch their input activations, which is what lets the
                    // streaming pipeline drop those boundaries eagerly.
                    let layer = network.layer(layer_idx)?;
                    self.routes.clear();
                    if !layer.static_routing(&self.important, &mut self.routes)? {
                        let input = source.boundary(layer_idx)?;
                        layer.contributions_many(input, &self.important, &mut self.routes)?;
                    }
                    self.routed.reset(input_len);
                    for &(idx, _) in self.routes.iter().flatten() {
                        self.routed.set(idx);
                    }
                    &self.routed
                }
            };
            self.important.clear();
            self.important.extend(marked.iter_ones());
        }
        Ok(path)
    }
}

fn extract_forward<S: BoundarySource + ?Sized>(
    plan: &ExtractionPlan,
    source: &S,
) -> Result<ActivationPath> {
    let mut path = ActivationPath::empty(&plan.layout);
    let mut ranking = RankScratch::default();
    for (layer_idx, role) in plan.roles.iter().enumerate() {
        if let LayerRole::Enabled { threshold, segment } = *role {
            let output = source.boundary(layer_idx + 1)?.as_slice();
            let mask = &mut path.segments_mut()[segment].mask;
            mask_from_activations(output, threshold, mask, &mut ranking);
        }
    }
    Ok(path)
}

/// Boundaries a streaming backward pass must retain: enabled weight layers'
/// inputs and outputs, data-dependently-routed pass-through layers' inputs,
/// and nothing below the walk's early-termination point.  A layer's interior
/// is retained exactly when its input boundary is.
fn backward_retention(network: &Network, roles: &[LayerRole]) -> Result<Vec<bool>> {
    let mut retain = vec![false; network.num_layers() + 1];
    for (layer_idx, role) in roles.iter().enumerate().rev() {
        match role {
            // The reverse walk breaks here; nothing below is ever read.
            LayerRole::Disabled => break,
            LayerRole::Identity => {}
            LayerRole::Enabled { .. } => {
                retain[layer_idx] = true;
                retain[layer_idx + 1] = true;
            }
            LayerRole::PassThrough { .. } => {
                let mut probe = Decompositions::default();
                if !network.layer(layer_idx)?.static_routing(&[], &mut probe)? {
                    retain[layer_idx] = true;
                }
            }
        }
    }
    Ok(retain)
}

/// Streaming sink for forward programs over a stacked batch: each sample's
/// slice of an enabled output is masked into that sample's path inline, and
/// nothing is ever retained or cloned.
struct ForwardSink<'a> {
    roles: &'a [LayerRole],
    paths: Vec<ActivationPath>,
    /// The ranking kernel's scratch, shared by every selection of the pass.
    ranking: RankScratch,
}

impl TraceSink for ForwardSink<'_> {
    fn on_layer(&mut self, index: usize, output: &Tensor) {
        let LayerRole::Enabled { threshold, segment } = self.roles[index] else {
            return;
        };
        // Sample `b`'s slab of the stacked output depends on sample `b`
        // alone, so its selection is the same whatever the batch around it.
        let sample_len = output.len() / self.paths.len().max(1);
        for (path, sample) in self
            .paths
            .iter_mut()
            .zip(output.as_slice().chunks_exact(sample_len.max(1)))
        {
            let mask = &mut path.segments_mut()[segment].mask;
            mask_from_activations(sample, threshold, mask, &mut self.ranking);
        }
    }
}

/// Streaming sink for backward programs: retains exactly the planned
/// boundaries and interiors, by move as the driver hands them over, and lets
/// everything else drop where the driver is done with it.
struct RetainSink<'a> {
    retain: &'a [bool],
    /// The pass is a batch of one: its tensors are retained as the sample's
    /// own (the leading 1 dropped in place), so its walk reads them as they
    /// are, with no per-sample slice afterwards.
    single: bool,
    kept: Retained,
    /// Bytes retained so far — nothing is released before the walk ends, so
    /// this is also the pass's peak.
    retained_bytes: usize,
}

impl<'a> RetainSink<'a> {
    fn new(retain: &'a [bool], single: bool) -> Self {
        RetainSink {
            retain,
            single,
            kept: Retained {
                boundaries: vec![None; retain.len()],
                interiors: vec![None; retain.len()],
            },
            retained_bytes: 0,
        }
    }

    /// `activation`, counted, if the plan retains boundary `planned`.
    fn keep(&mut self, planned: usize, activation: Tensor) -> Option<Tensor> {
        if !self.retain[planned] {
            return None;
        }
        self.retained_bytes += activation.len() * std::mem::size_of::<f32>();
        if self.single {
            // `[1] ++ shape` always gives its sample up.
            activation.into_sample().ok()
        } else {
            Some(activation)
        }
    }
}

impl TraceSink for RetainSink<'_> {
    fn take_interior(&mut self, index: usize, interior: Tensor) {
        // The walk decomposes layer `index` iff it reads the layer's input.
        self.kept.interiors[index] = self.keep(index, interior);
    }

    fn take_boundary(&mut self, boundary: usize, activation: Tensor) {
        self.kept.boundaries[boundary] = self.keep(boundary, activation);
    }
}

impl Retained {
    /// Sample `b`'s copy of every retained stacked tensor — the same tensors
    /// a materialized trace of sample `b` alone would hand the walk.
    fn slice_batch(&self, b: usize) -> Result<Retained> {
        let slice_all = |stacked: &[Option<Tensor>]| -> Result<Vec<Option<Tensor>>> {
            stacked
                .iter()
                .map(|kept| Ok(kept.as_ref().map(|t| t.slice_batch(b)).transpose()?))
                .collect()
        };
        Ok(Retained {
            boundaries: slice_all(&self.boundaries)?,
            interiors: slice_all(&self.interiors)?,
        })
    }
}

/// One fused forward-program pass over `inputs`, on the calling thread.
/// Returns the finished samples and the peak retained bytes (always zero).
fn stream_forward_batch<P, T, F>(
    provider: &P,
    plan: &ExtractionPlan,
    inputs: &[Tensor],
    finish: &F,
) -> Result<(Vec<T>, usize)>
where
    P: ForwardProvider,
    F: Fn(usize, ActivationPath) -> Result<T>,
{
    let mut sink = ForwardSink {
        roles: &plan.roles,
        paths: vec![ActivationPath::empty(&plan.layout); inputs.len()],
        ranking: RankScratch::default(),
    };
    let logits = provider.forward_with_sink_batch(inputs, &mut sink)?;
    // Row `b` of the stacked `[B, classes]` logits is sample `b`'s.
    let classes = provider.network().num_classes().max(1);
    let samples = sink
        .paths
        .into_iter()
        .zip(logits.as_slice().chunks(classes))
        .map(|(path, sample_logits)| finish(predicted_class(sample_logits)?, path))
        .collect::<Result<Vec<_>>>()?;
    Ok((samples, 0))
}

/// One fused backward-program pass over `inputs` plus every sample's reverse
/// walk, on the calling thread.  Returns the finished samples and the peak
/// retained bytes.
fn stream_backward_batch<P, T, F>(
    provider: &P,
    plan: &ExtractionPlan,
    inputs: &[Tensor],
    finish: &F,
) -> Result<(Vec<T>, usize)>
where
    P: ForwardProvider,
    F: Fn(usize, ActivationPath) -> Result<T>,
{
    let single = inputs.len() == 1;
    let mut sink = RetainSink::new(&plan.retain, single);
    let logits = provider.forward_with_sink_batch(inputs, &mut sink)?;
    let classes = provider.network().num_classes().max(1);
    // Row `b` of the stacked `[B, classes]` logits is sample `b`'s; the
    // logits are the pass's last boundary, which the driver returns instead
    // of handing it over.
    let predicted = logits
        .as_slice()
        .chunks(classes)
        .map(predicted_class)
        .collect::<std::result::Result<Vec<_>, _>>()?;
    sink.take_boundary(provider.network().num_layers(), logits);
    // Each walk reads exactly the tensors a materialized trace of its sample
    // would hold, so the extraction is bit-for-bit the materialized one.
    WalkScratch::with(|scratch| {
        let mut walk = |sample: &Retained, predicted: usize| -> Result<T> {
            finish(
                predicted,
                scratch.walk(provider.network(), plan, sample, predicted)?,
            )
        };
        if single {
            Ok(vec![walk(&sink.kept, predicted[0])?])
        } else {
            predicted
                .iter()
                .enumerate()
                .map(|(b, &predicted)| walk(&sink.kept.slice_batch(b)?, predicted))
                .collect::<Result<Vec<_>>>()
        }
    })
    .map(|samples| (samples, sink.retained_bytes))
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;
    use ptolemy_nn::layer::{Dense, Flatten, ReLU};
    use ptolemy_nn::Layer;
    use ptolemy_tensor::{Rng64, Tensor};

    /// [`select_contributors`]' picks, in selection order, as the first
    /// elements of `pairs`.
    fn select(pairs: &[(usize, f32)], target: f32, threshold: ThresholdKind) -> Vec<usize> {
        let mut values: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let mut picks = Vec::new();
        select_contributors(&mut values, target, threshold, &mut Vec::new(), |at| {
            picks.push(pairs[at].0)
        });
        picks
    }

    /// The worked fully-connected example of Fig. 3 (left panel): input feature map
    /// `[0.1, 1.0, 0.4, 0.3, 0.2]`, kernel `[2.1, 0.09, 0.2, 0.2, 0.1]`, θ = 0.6.
    /// The two largest partial sums (0.21 from neuron 0 and 0.09 from neuron 1)
    /// cumulatively exceed 0.6 × 0.46, so neurons {0, 1} are important.
    #[test]
    fn fig3_fully_connected_example() {
        let pairs = vec![
            (0usize, 0.1 * 2.1),
            (1, 1.0 * 0.09),
            (2, 0.4 * 0.2),
            (3, 0.3 * 0.2),
            (4, 0.2 * 0.1),
        ];
        let selected = select(&pairs, 0.46, ThresholdKind::Cumulative { theta: 0.6 });
        assert_eq!(selected, vec![0, 1]);
        // With θ = 0.9 more neurons are needed.
        let selected = select(&pairs, 0.46, ThresholdKind::Cumulative { theta: 0.9 });
        assert!(selected.len() > 2);
        // Absolute thresholding keeps only partial sums above φ × |target|.
        let selected = select(&pairs, 0.46, ThresholdKind::Absolute { phi: 0.4 });
        assert_eq!(selected, vec![0]);
    }

    #[test]
    fn cumulative_selection_is_minimal() {
        let pairs = vec![(0, 0.5), (1, 0.3), (2, 0.2)];
        // θ = 0.5 of target 1.0 is reached by the single largest partial sum.
        assert_eq!(
            select(&pairs, 1.0, ThresholdKind::Cumulative { theta: 0.5 }),
            vec![0]
        );
        // θ = 1.0 needs all of them.
        assert_eq!(
            select(&pairs, 1.0, ThresholdKind::Cumulative { theta: 1.0 }).len(),
            3
        );
        // Non-positive target degenerates to the single largest contributor.
        assert_eq!(
            select(&pairs, -0.2, ThresholdKind::Cumulative { theta: 0.5 }),
            vec![0]
        );
        assert!(select(&[], 1.0, ThresholdKind::Cumulative { theta: 0.5 }).is_empty());
    }

    /// Selection ranks the way the ranking kernel does: with a goal out of
    /// reach every partial sum is selected, in stable descending order, and a
    /// non-positive target selects the single largest — across ties, ±0 and
    /// the scan/sort switch.
    #[test]
    fn cumulative_selection_follows_the_stable_descending_order() {
        let mut rng = Rng64::new(5);
        let palette = [-1.5f32, -0.0, 0.0, 0.25, 0.25, 3.0];
        for len in [0usize, 1, 2, 7, 73, 145] {
            let pairs: Vec<(usize, f32)> = (0..len)
                .map(|at| (1000 + at, palette[rng.below(palette.len())]))
                .collect();
            let mut in_rank_order = pairs.clone();
            in_rank_order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
            let in_rank_order: Vec<usize> = in_rank_order.iter().map(|p| p.0).collect();
            let cumulative = ThresholdKind::Cumulative { theta: 1.0 };
            assert_eq!(select(&pairs, f32::MAX, cumulative), in_rank_order);
            for target in [0.0, -0.0, -2.0, f32::NEG_INFINITY] {
                assert_eq!(
                    select(&pairs, target, cumulative),
                    in_rank_order[..len.min(1)],
                    "len {len}, target {target}"
                );
            }
        }
    }

    #[test]
    fn non_finite_values_never_reach_a_selection_kernel() {
        use ptolemy_nn::NnError;
        let net = two_layer_net();
        let programs = [
            DetectionProgram::builder(Direction::Forward, 2)
                .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
                .build()
                .unwrap(),
            DetectionProgram::builder(Direction::Backward, 2)
                .all_layers(ThresholdKind::Absolute { phi: 0.5 })
                .build()
                .unwrap(),
        ];
        let non_finite = |boundary| CoreError::Nn(NnError::NonFinite { boundary });
        // In the input: boundary 0, on every entry point, either direction.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let x = Tensor::from_vec(vec![1.0, bad, 0.5, 0.5], &[4]).unwrap();
            for program in &programs {
                let streamed = extract_path_streaming(&net, program, &x);
                assert_eq!(streamed.unwrap_err(), non_finite(0));
                let clean = Tensor::ones(&[4]);
                let batch = extract_paths_streaming_batch(&net, program, &[clean, x.clone()]);
                assert_eq!(batch.unwrap_err(), non_finite(0));
            }
            assert_eq!(
                CoreError::from(net.forward_trace(&x).unwrap_err()),
                non_finite(0)
            );
        }
        // From overflow: hidden neuron 2 sums inputs 2 and 3, so two finite
        // `f32::MAX` inputs make layer 1's output (boundary 2) `+inf` — the
        // value the ReLU after it would pass on and the walk would rank.
        let x = Tensor::from_vec(vec![0.0, 0.0, f32::MAX, f32::MAX], &[4]).unwrap();
        for program in &programs {
            let streamed = extract_path_streaming(&net, program, &x);
            assert_eq!(streamed.unwrap_err(), non_finite(2));
        }
        // A trace assembled by hand obeys the same rule.
        let mut boundaries = net
            .forward_trace(&Tensor::ones(&[4]))
            .unwrap()
            .activations()
            .to_vec();
        boundaries[3].as_mut_slice()[0] = f32::NAN;
        assert_eq!(
            ForwardTrace::from_activations(boundaries).unwrap_err(),
            NnError::NonFinite { boundary: 3 }
        );
    }

    /// The indices [`mask_from_activations`] marks, ascending.
    fn selected(values: &[f32], threshold: ThresholdKind) -> Vec<usize> {
        let mut mask = BitVec::new(values.len());
        mask_from_activations(values, threshold, &mut mask, &mut RankScratch::default());
        mask.iter_ones().collect()
    }

    #[test]
    fn forward_selection_from_activations() {
        let values = [0.1, 3.0, 0.0, 1.0, -0.5];
        // 3.0 alone is 3.0/4.1 ≈ 0.73 ≥ 0.7 of the positive mass.
        assert_eq!(
            selected(&values, ThresholdKind::Cumulative { theta: 0.7 }),
            vec![1]
        );
        assert_eq!(
            selected(&values, ThresholdKind::Absolute { phi: 0.3 }),
            vec![1, 3]
        );
        // All-negative activations select nothing under absolute thresholds
        // and the single largest one under cumulative ones.
        assert!(selected(&[-1.0, -2.0], ThresholdKind::Absolute { phi: 0.1 }).is_empty());
        assert_eq!(
            selected(&[-2.0, -1.0], ThresholdKind::Cumulative { theta: 0.5 }),
            vec![1]
        );
        assert!(selected(&[], ThresholdKind::Absolute { phi: 0.1 }).is_empty());
        assert!(selected(&[], ThresholdKind::Cumulative { theta: 0.5 }).is_empty());
    }

    /// The word-at-a-time absolute mask is the per-element filter it replaced,
    /// across word boundaries, with infinities, signed zeros and a zero `phi`
    /// (where `v >= cutoff` alone would let `0.0` through).
    #[test]
    fn absolute_mask_is_the_per_element_filter() {
        let mut rng = Rng64::new(41);
        let palette = [-1.0f32, -0.0, 0.0, 0.25, 0.5, 2.0, f32::INFINITY];
        for len in [1usize, 63, 64, 65, 200] {
            for phi in [0.0f32, 0.3, 1.0] {
                let values: Vec<f32> = (0..len)
                    .map(|i| {
                        if i % 3 == 0 {
                            palette[rng.below(palette.len())]
                        } else {
                            rng.normal()
                        }
                    })
                    .collect();
                let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let expected: Vec<usize> = (0..len)
                    .filter(|&i| max > 0.0 && values[i] >= phi * max && values[i] > 0.0)
                    .collect();
                assert_eq!(
                    selected(&values, ThresholdKind::Absolute { phi }),
                    expected,
                    "len {len}, phi {phi}"
                );
            }
        }
    }

    fn two_layer_net() -> Network {
        // 4 -> 3 -> 2 network with hand-written weights so paths are predictable.
        let w1 = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 0.0, // neuron 0 driven by input 0
                0.0, 1.0, 0.0, 0.0, // neuron 1 driven by input 1
                0.0, 0.0, 1.0, 1.0, // neuron 2 driven by inputs 2 and 3
            ],
            &[3, 4],
        )
        .unwrap();
        let w2 = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, // class 0 driven by hidden 0
                0.0, 1.0, 1.0, // class 1 driven by hidden 1 and 2
            ],
            &[2, 3],
        )
        .unwrap();
        Network::new(vec![
            Box::new(Flatten::new(&[4])) as Box<dyn Layer>,
            Box::new(Dense::from_parts(w1, Tensor::zeros(&[3])).unwrap()),
            Box::new(ReLU::new(&[3])),
            Box::new(Dense::from_parts(w2, Tensor::zeros(&[2])).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn backward_extraction_follows_the_active_route() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.9 })
            .build()
            .unwrap();
        // Input that activates class 0 through input 0 only.
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.0, 0.0], &[4]).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        assert_eq!(trace.predicted_class().unwrap(), 0);
        let path = extract_path(&net, &trace, &program).unwrap();
        // Layout: weight layers are network layers 1 and 3; masks over their inputs.
        assert_eq!(path.segments().len(), 2);
        let last = path.segment_for_layer(3).unwrap();
        assert!(last.mask.get(0), "hidden neuron 0 must be important");
        assert!(!last.mask.get(1));
        let first = path.segment_for_layer(1).unwrap();
        assert!(first.mask.get(0), "input 0 must be important");
        assert!(!first.mask.get(2));

        // A class-1 input leaves a different path.
        let y = Tensor::from_vec(vec![0.0, 0.0, 4.0, 4.0], &[4]).unwrap();
        let trace_y = net.forward_trace(&y).unwrap();
        assert_eq!(trace_y.predicted_class().unwrap(), 1);
        let path_y = extract_path(&net, &trace_y, &program).unwrap();
        assert!(path_y.segment_for_layer(1).unwrap().mask.get(2));
        assert!(path_y.segment_for_layer(1).unwrap().mask.get(3));
        assert!(!path_y.segment_for_layer(1).unwrap().mask.get(0));
        // Paths of different classes are distinct.
        assert!(path.jaccard(&path_y).unwrap() < 0.5);
    }

    #[test]
    fn forward_extraction_marks_high_activations() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Forward, 2)
            .all_layers(ThresholdKind::Absolute { phi: 0.5 })
            .build()
            .unwrap();
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.0, 0.0], &[4]).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        let path = extract_path(&net, &trace, &program).unwrap();
        // Forward masks cover output feature maps.
        let seg = path.segment_for_layer(1).unwrap();
        assert_eq!(seg.mask.len(), 3);
        assert!(seg.mask.get(0));
        assert!(!seg.mask.get(1));
        assert!(path.count_ones() >= 2);
    }

    #[test]
    fn selective_extraction_limits_segments() {
        let net = two_layer_net();
        // Backward with only the last weight layer enabled (early termination).
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .disable_before(1)
            .build()
            .unwrap();
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.0, 0.0], &[4]).unwrap();
        let trace = net.forward_trace(&x).unwrap();
        let path = extract_path(&net, &trace, &program).unwrap();
        assert_eq!(path.segments().len(), 1);
        assert_eq!(path.segments()[0].layer, 3);
        assert!(path.count_ones() >= 1);

        // The streaming retention plan drops everything below the termination
        // point: boundaries 0..=2 (flatten input, dense-1 input, relu input)
        // are never retained, only the last dense layer's input and output.
        let plan = ExtractionPlan::new(&net, &program).unwrap();
        assert_eq!(plan.retain, vec![false, false, false, true, true]);
        assert_eq!(
            plan.roles,
            vec![
                LayerRole::Identity,
                LayerRole::Disabled,
                LayerRole::Identity,
                LayerRole::Enabled {
                    threshold: ThresholdKind::Cumulative { theta: 0.5 },
                    segment: 0
                },
            ]
        );
    }

    #[test]
    fn backward_retention_keeps_only_data_dependent_boundaries() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.9 })
            .build()
            .unwrap();
        // Flatten (layer 0) and ReLU (layer 2) route statically, so their
        // input boundaries are dropped; both dense layers retain input+output.
        let plan = ExtractionPlan::new(&net, &program).unwrap();
        assert_eq!(plan.retain, vec![false, true, true, true, true]);
        assert_eq!(plan.forward_work(3), 3 * (4 * 3 + 3 * 2));

        // Forward programs retain nothing at all (masking happens in flight).
        let fw = DetectionProgram::builder(Direction::Forward, 2)
            .all_layers(ThresholdKind::Absolute { phi: 0.5 })
            .build()
            .unwrap();
        assert!(ExtractionPlan::new(&net, &fw).unwrap().retain.is_empty());
        let streamed = extract_path_streaming(&net, &fw, &Tensor::ones(&[4])).unwrap();
        assert_eq!(streamed.footprint.peak_streamed_bytes, 0);
        assert_eq!(
            streamed.footprint.materialized_bytes,
            materialized_trace_bytes(&net, 1)
        );
    }

    #[test]
    fn streamed_extraction_matches_materialized_bit_for_bit() {
        let mut rng = Rng64::new(7);
        let net = ptolemy_nn::zoo::lenet(1, 4, &mut rng).unwrap();
        let programs = [
            DetectionProgram::builder(Direction::Backward, 4)
                .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
                .build()
                .unwrap(),
            DetectionProgram::builder(Direction::Forward, 4)
                .all_layers(ThresholdKind::Absolute { phi: 0.2 })
                .build()
                .unwrap(),
        ];
        let inputs: Vec<Tensor> = (0..5)
            .map(|i| {
                let data = (0..64)
                    .map(|_| rng.normal() * (0.4 + 0.2 * i as f32))
                    .collect();
                Tensor::from_vec(data, &[1, 8, 8]).unwrap()
            })
            .collect();
        for program in &programs {
            // Single-input (the batch of one) and fused-batch streaming both
            // reproduce the materialized pipeline.
            let batch = extract_paths_streaming_batch(&net, program, &inputs).unwrap();
            assert_eq!(batch.samples.len(), inputs.len());
            for (b, input) in inputs.iter().enumerate() {
                let trace = net.forward_trace(input).unwrap();
                let materialized = (
                    trace.predicted_class().unwrap(),
                    extract_path(&net, &trace, program).unwrap(),
                );
                let streamed = extract_path_streaming(&net, program, input).unwrap();
                assert_eq!(
                    (streamed.predicted_class, streamed.path),
                    materialized,
                    "single-input parity"
                );
                assert_eq!(batch.samples[b], materialized, "batch sample {b} parity");
            }
        }
    }

    #[test]
    fn streamed_forward_peak_memory_beats_materialized_on_a_deep_program() {
        // A deep forward program on the conv model: the streaming pipeline
        // must hold strictly less activation state than the materialized
        // trace — the acceptance bar of the streaming refactor.
        let mut rng = Rng64::new(11);
        let net = ptolemy_nn::zoo::lenet(1, 4, &mut rng).unwrap();
        let program = DetectionProgram::builder(Direction::Forward, 4)
            .all_layers(ThresholdKind::Absolute { phi: 0.2 })
            .build()
            .unwrap();
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::from_vec((0..64).map(|_| rng.normal()).collect(), &[1, 8, 8]).unwrap())
            .collect();
        let batch = extract_paths_streaming_batch(&net, &program, &inputs).unwrap();
        assert!(
            batch.footprint.peak_streamed_bytes < batch.footprint.materialized_bytes,
            "streamed peak {} must be under the materialized {} bytes",
            batch.footprint.peak_streamed_bytes,
            batch.footprint.materialized_bytes
        );
        // The materialized figure matches what the recorded traces hold.
        let recorded: usize = inputs
            .iter()
            .map(|x| net.forward_trace(x).unwrap().activation_bytes())
            .sum();
        assert_eq!(batch.footprint.materialized_bytes, recorded);

        // Backward programs retain strictly less than the full trace as well
        // (statically-routed ReLU/flatten inputs are dropped in flight).
        let bw = DetectionProgram::builder(Direction::Backward, 4)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let streamed = extract_paths_streaming_batch(&net, &bw, &inputs).unwrap();
        assert!(streamed.footprint.peak_streamed_bytes < streamed.footprint.materialized_bytes);
    }

    #[test]
    fn mismatched_program_is_rejected() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Backward, 5)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let x = Tensor::zeros(&[4]);
        let trace = net.forward_trace(&x).unwrap();
        assert!(extract_path(&net, &trace, &program).is_err());
        assert!(path_layout(&net, &program).is_err());
        assert!(extract_path_streaming(&net, &program, &x).is_err());
        assert!(extract_paths_streaming_batch(&net, &program, &[x]).is_err());
    }

    #[test]
    fn streaming_batch_propagates_forward_errors() {
        let net = two_layer_net();
        let program = DetectionProgram::builder(Direction::Forward, 2)
            .all_layers(ThresholdKind::Absolute { phi: 0.5 })
            .build()
            .unwrap();
        // An empty batch and a mis-shaped input both fail the fused pass as a
        // whole; per-input granularity is the engine's fallback concern.
        assert!(extract_paths_streaming_batch(&net, &program, &[]).is_err());
        let bad = vec![Tensor::ones(&[4]), Tensor::ones(&[5])];
        assert!(extract_paths_streaming_batch(&net, &program, &bad).is_err());
    }

    #[test]
    fn extraction_works_on_a_convolutional_model() {
        let mut rng = Rng64::new(1);
        let net = ptolemy_nn::zoo::lenet(1, 4, &mut rng).unwrap();
        let program = DetectionProgram::builder(Direction::Backward, 4)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.5);
        let trace = net.forward_trace(&x).unwrap();
        let path = extract_path(&net, &trace, &program).unwrap();
        assert_eq!(path.segments().len(), 4);
        assert!(path.count_ones() > 0);
        // The paper observes important-neuron density stays low; with θ=0.5 we
        // should certainly not mark the whole network.
        assert!(path.density() < 0.6, "density {}", path.density());
    }
}
