//! # ptolemy-core
//!
//! The Ptolemy adversarial-sample detection framework (the paper's primary
//! contribution, Sec. III): activation paths, class paths, the important-neuron
//! extraction algorithms with their three knobs (extraction direction, thresholding
//! mechanism, selective extraction), offline class-path profiling, and the online
//! detector that combines path similarity with a random-forest classifier.
//!
//! The crate is purely *functional*: it computes what the Ptolemy hardware would
//! compute.  The cost of executing a detection program on the co-designed hardware
//! is modelled separately by `ptolemy-compiler` + `ptolemy-accel`, which consume the
//! same [`DetectionProgram`] description.
//!
//! # Pipeline
//!
//! ```text
//!  offline                                     online (serving)
//!  ───────                                     ────────────────
//!  training set ──► Profiler ──► ClassPathSet ─┐
//!                                              ├─► DetectionEngine::builder(..)
//!  benign + adversarial calibration set ───────┘      .threshold(..)
//!                                                     .build()?        ◄ fingerprint checked once
//!                                                        │
//!          detect(&x) / detect_batch(&xs) / detect_batch_on(&provider, &xs)   ◄ f32 | int8
//!                                                        ▼
//!                                          Detection { is_adversary, … }
//! ```
//!
//! [`DetectionEngine`] is the only online surface (the historical one-shot
//! `Detector` shim is gone): bind once, then drive per input or per fused NCHW
//! batch, at whichever inference precision the caller's
//! [`ptolemy_nn::ForwardProvider`] runs (see [`engine`]).
//!
//! # Streaming extraction
//!
//! Extraction no longer materialises a full forward trace.  The engine (and
//! the offline [`Profiler`]) run through [`extract_paths_streaming_batch`]'s
//! driver — a single input, as in [`extract_path_streaming`], is its batch of
//! one — which plugs a path extractor into the forward pass itself via
//! [`ptolemy_nn::TraceSink`]:
//!
//! * **forward programs** select each enabled layer's important neurons
//!   inline, the moment the layer finishes, and never retain an activation —
//!   zero resident trace bytes instead of O(network) (Sec. III-C's compiler
//!   insight that forward extraction needs nothing beyond the layer just
//!   computed, now the serving hot path);
//! * **backward programs** retain only what the reverse walk reads (enabled
//!   weight layers' inputs/outputs and residual-block interiors, plus
//!   data-dependently-routed pass-through inputs such as max-pool windows)
//!   and drop everything else in flight; early-termination programs never
//!   retain layers below their cut.  The walk itself runs no layer forward:
//!   a backward detect costs one forward pass plus the decomposition of the
//!   few neurons it marks.
//!
//! Streamed extraction is **bit-for-bit identical** to the materialized
//! [`extract_path`] pipeline (same driver, same selection kernels, same
//! tensors — pinned by the `tests/streaming.rs` proptest suite), and
//! [`ActivationFootprint`] reports the measured peak resident activation
//! bytes against the materialized baseline.
//!
//! # Non-finite values
//!
//! A NaN or an infinity has no rank among the partial sums a path is made
//! of, so it is never a path, a verdict or a similarity: a non-finite value
//! in an input, or in any layer's output, is
//! `CoreError::Nn(NnError::NonFinite { boundary })` from every entry point
//! (`detect*`, profiling, extraction), under either precision.  The check is
//! `ptolemy-nn`'s, made once per boundary inside the forward driver; this
//! crate adds none of its own, and its selection kernels rank finite values
//! only.  In a fused batch a poisoned input fails the batch, which retries
//! each input alone, so the poisoned one fails by itself.
//!
//! # Example
//!
//! ```
//! use ptolemy_core::{variants, DetectionEngine, Profiler};
//! use ptolemy_nn::{zoo, TrainConfig, Trainer};
//! use ptolemy_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::new(0);
//! let mut net = zoo::mlp_net(&[8], 2, &mut rng)?;
//! let samples: Vec<(Tensor, usize)> = (0..20)
//!     .map(|i| {
//!         let class = i % 2;
//!         let value = if class == 0 { 1.0 } else { 0.0 };
//!         (Tensor::full(&[8], value), class)
//!     })
//!     .collect();
//! Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
//!
//! // Offline: profile class paths with the BwCu algorithm (θ = 0.5).
//! let program = variants::bw_cu(&net, 0.5)?;
//! let class_paths = Profiler::new(program.clone()).profile(&net, &samples)?;
//!
//! // Online: bind an engine once (fingerprint validated here), then serve.
//! let engine = DetectionEngine::builder(net, program, class_paths).build()?;
//! let (class, similarity) = engine.path_similarity(&samples[0].0)?;
//! assert!(class < 2);
//! assert!((0.0..=1.0).contains(&similarity));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod cost;
pub mod engine;
mod error;
mod extraction;
pub use ptolemy_obs::json;
mod path;
mod profile;
mod program;
mod ranking;
pub mod variants;

pub use bits::BitVec;
pub use cost::{software_cost, SoftwareCostReport};
pub use engine::{path_similarity, Detection, DetectionEngine, DetectionEngineBuilder};
pub use error::CoreError;
pub use extraction::{
    extract_path, extract_path_streaming, extract_paths_streaming_batch, materialized_trace_bytes,
    path_layout, ActivationFootprint, StreamedBatchExtraction, StreamedExtraction,
};
pub use path::{ActivationPath, ClassPath, ClassPathSet, PathSegment};
pub use profile::{class_similarity_matrix, similarity_stats, Profiler, SimilarityStats};
pub use program::{
    DetectionProgram, DetectionProgramBuilder, Direction, ExtractionSpec, ThresholdKind,
};
pub use ranking::Ranking;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
