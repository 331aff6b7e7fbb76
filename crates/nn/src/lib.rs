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
//! * [`Layer::contributions_many`] — the per-output-neuron partial-sum
//!   decomposition used by the important-neuron extraction algorithms (paper
//!   Fig. 3), asked for all of a layer's important neurons at once and
//!   appended to one caller-owned flat [`Decompositions`] buffer, so a
//!   composite layer never works per neuron and a reverse walk allocates
//!   nothing per neuron; a [`layer::Residual`] block decomposes against the
//!   interior activation its forward pass hands out
//!   ([`Layer::forward_batch_interior`], [`TraceSink::on_interior`]);
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
//! * [`Network::input_gradient`] — the loss gradient w.r.t. the input, which the
//!   attack generators in `ptolemy-attacks` need;
//! * a [`zoo`] of small architectures standing in for AlexNet, ResNet-18, VGG and
//!   friends at laptop scale.
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
pub use layer::{Decompositions, Layer, LayerGrads, LayerKind};
pub use loss::{cross_entropy_loss, softmax_cross_entropy_grad};
pub use network::{ForwardProvider, Network, NetworkGrads};
pub use quant::QuantizedNetwork;
pub use trace::{predicted_class, ForwardTrace, TraceSink};
pub use train::{TrainConfig, TrainReport, Trainer};

pub use ptolemy_tensor::available_parallelism;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
