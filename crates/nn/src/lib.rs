//! # ptolemy-nn
//!
//! The DNN inference/training substrate of the Ptolemy reproduction.
//!
//! The Ptolemy detection framework treats a DNN inference like an imperative program
//! execution: every output neuron is a sum of *partial sums*, and the detector needs
//! to ask, for any output neuron of any layer, "which input elements contributed how
//! much?".  This crate therefore exposes, in addition to the usual
//! forward/backward/training machinery:
//!
//! * [`Layer::partial_sums`] — the per-output-neuron partial sums the
//!   important-neuron extraction algorithms rank (paper Fig. 3), asked for
//!   all of a layer's important neurons at once and handed over one neuron
//!   at a time as **values only**, in a caller-owned scratch buffer, with a
//!   [`Sources`] that maps a position back to its input index on demand (a
//!   convolution's per-geometry tap list offset by the window corner, the
//!   identity for a dense layer, a residual block's shortcut last) — so a
//!   composite layer never works per neuron, a reverse walk allocates
//!   nothing per neuron, and only the picked positions are ever mapped; a
//!   [`layer::Residual`] block decomposes against the interior activation
//!   its forward pass hands out ([`Layer::forward_batch_interior`],
//!   [`TraceSink::on_interior`]).  Pooling layers route importance instead
//!   ([`Layer::contributions_many`] into a flat [`Decompositions`] buffer),
//!   and activations and reshapes pass it on by identity
//!   ([`LayerKind::routes_by_identity`]);
//! * [`Network::forward_with_sink_batch`] — the one **streaming driver**: B
//!   inputs are stacked into one `[B, C, H, W]` tensor and run layer by layer
//!   through each layer's one forward kernel, [`Layer::forward_batch`] (the
//!   fused conv kernel, one bias-prefilled GEMM for dense layers), handing
//!   each stacked activation boundary to a [`TraceSink`] the moment the
//!   producing layer finishes, before the next layer starts.  The driver
//!   keeps only the current layer's input and output alive, so what outlives
//!   a layer is entirely the sink's decision — a selective sink observes a
//!   whole inference in O(largest layer) memory.  This is the hook
//!   `ptolemy-core` uses to extract paths while the forward pass runs (the
//!   paper's Sec. III-C compiler insight) and to drop activations eagerly.
//!   Slice `b` of every boundary is **bit-for-bit** the batch of one of
//!   input `b` — each output element depends only on its own input sample,
//!   and every kernel keeps the single-sample reduction order whatever the
//!   batch size;
//! * [`Network::forward`], [`Network::forward_batch`],
//!   [`Network::forward_with_sink`] and [`Network::forward_trace`] — adapters
//!   over that driver: a single input is the batch of one.
//!   [`Network::forward_trace`] records each activation boundary **once**
//!   (`activations[i + 1]` is both layer `i`'s output and layer `i + 1`'s
//!   input — no duplicated storage) so extraction can run after the fact;
//! * [`ForwardProvider`] — the streaming pass as a trait (`network()` plus
//!   `forward_with_sink_batch`, nothing else), implemented by [`Network`]
//!   (f32) and [`QuantizedNetwork`] (int8, one fused integer kernel per layer
//!   kind): inference precision is an argument to `ptolemy-core`'s
//!   extraction, not a parallel API;
//! * [`Layer::backward_batch`] — each layer's one **backward kernel**, over
//!   the same stacked batch, reading the activations the forward pass
//!   recorded ([`Saved`]; a residual block backpropagates from the interior
//!   its forward handed out and re-runs nothing) and computing only the
//!   gradients asked for.  [`Network::backward_input`] walks it for the input
//!   gradient alone (every attack; [`Network::input_gradient`] is its batch
//!   of one), and [`Trainer`] for the parameter gradients of one fused
//!   minibatch — one forward and one backward pass per step.  The backward
//!   pass keeps the per-sample arithmetic bit for bit, and every product in
//!   it is the workspace's one reduction contract, the plain ascending sum
//!   from `+0.0` with no zero term skipped (on finite operands a skip could
//!   not change a bit: a `±0.0` term added to an accumulator that is never
//!   `-0.0` is the identity):
//!   - the convolution's input gradient `Wᵀ · gy` is one GEMM batched along
//!     N (samples × positions) that re-tiles only M and N, so each element
//!     is still one ascending reduction over output channels, and `col2im`
//!     scatters each sample in its own traversal order; the dense layer's
//!     `gy · W` reduces over ascending outputs whatever the batch;
//!   - the weight gradient is computed **per sample**, with the ascending
//!     reduction over positions;
//!   - the per-sample parameter gradients are summed **in sample order, the
//!     first sample initialising the sum** — what adding each sample's
//!     gradients into the first one's computed, down to a `-0.0` surviving;
//! * a [`zoo`] of small architectures standing in for AlexNet, ResNet-18, VGG and
//!   friends at laptop scale.
//!
//! # Non-finite values
//!
//! A NaN or an infinity has no rank among partial sums, so it may never
//! become a path, a verdict, a gradient or a trained parameter.  The crate
//! has one rule for it, enforced in one place: a non-finite value in a
//! network's input or in any layer's output is [`NnError::NonFinite`] at that
//! boundary (`0` the input, `i + 1` layer `i`'s output).  The driver checks
//! every boundary of every f32 and int8 pass — streamed, fused or recorded —
//! before the sink or the next layer sees it; a residual body checks its own
//! layers before a ReLU could zero a NaN; the backward walk checks every
//! boundary's gradient and every parameter gradient (at its layer's output
//! boundary), so no training step writes a non-finite parameter.  So no kernel ever meets a non-finite operand, and
//! every partial sum of a checked pass is finite (a non-finite `w · x` makes
//! its neuron's output non-finite).
//!
//! # Example
//!
//! ```
//! use ptolemy_nn::{zoo, TrainConfig, Trainer};
//! use ptolemy_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), ptolemy_nn::NnError> {
//! let mut rng = Rng64::new(0);
//! let mut net = zoo::mlp_net(&[8], 3, &mut rng)?;
//! let samples = vec![
//!     (Tensor::full(&[8], 1.0), 0usize),
//!     (Tensor::full(&[8], -1.0), 1usize),
//! ];
//! let mut trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::default() });
//! trainer.fit(&mut net, &samples)?;
//! let class = net.predict(&samples[0].0)?;
//! assert!(class < 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
pub mod layer;
mod loss;
mod network;
mod quant;
mod trace;
mod train;
pub mod zoo;

pub use error::NnError;
pub use layer::{Decompositions, Layer, LayerKind, Saved, Sources};
pub use loss::{cross_entropy_loss, softmax_cross_entropy_grad};
pub use network::{ForwardProvider, Network};
pub use quant::QuantizedNetwork;
pub use trace::{predicted_class, ForwardTrace, TraceSink};
pub use train::{TrainConfig, TrainReport, Trainer};

pub use ptolemy_tensor::available_parallelism;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
