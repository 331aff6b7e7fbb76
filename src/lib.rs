//! # Ptolemy (reproduction) — umbrella crate
//!
//! This crate re-exports the member crates of the Ptolemy reproduction workspace so
//! that the runnable examples under `examples/` and the cross-crate integration
//! tests under `tests/` have a single import root.
//!
//! The interesting code lives in the member crates:
//!
//! * [`tensor`] — NCHW tensors, matmul, im2col ([`ptolemy_tensor`]).
//! * [`nn`] — DNN inference/training with partial-sum visibility ([`ptolemy_nn`]).
//! * [`data`] — synthetic class-structured datasets ([`ptolemy_data`]).
//! * [`attacks`] — FGSM/BIM/PGD/JSMA/DeepFool/CW-L2 and the adaptive attack
//!   ([`ptolemy_attacks`]).
//! * [`forest`] — random forest + AUC ([`ptolemy_forest`]).
//! * [`core`] — the Ptolemy detection framework and its serving engine
//!   ([`ptolemy_core`]).
//! * [`isa`], [`compiler`], [`accel`] — the ISA, compiler and hardware model
//!   that price a detection program.
//! * [`serve`] — the multi-worker serving runtime over one or two engines
//!   ([`ptolemy_serve`]).
//! * [`baselines`] — EP, CDRP and DeepFense baselines.
//!
//! # Quick start
//!
//! Offline, profile canary class paths; then bind everything into a
//! [`DetectionEngine`](core::DetectionEngine) once and serve traffic through it —
//! per input, per batch, or as a stream:
//!
//! ```no_run
//! use ptolemy::prelude::*;
//! use ptolemy::tensor::Rng64;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small synthetic dataset and train a network on it.
//! let dataset = SyntheticDataset::synth_cifar10(20, 5, 7)?;
//! let mut rng = Rng64::new(0);
//! let mut network = zoo::mlp_net(dataset.input_shape(), dataset.num_classes(), &mut rng)?;
//! Trainer::new(TrainConfig::default()).fit(&mut network, dataset.train())?;
//!
//! // Offline: profile canary class paths with the FwAb algorithm.
//! let program = variants::fw_ab(&network, 0.05)?;
//! let class_paths = Profiler::new(program.clone()).profile(&network, dataset.train())?;
//!
//! // Calibration sets: benign test inputs and FGSM adversarial samples.
//! let benign: Vec<_> = dataset.test().iter().map(|(x, _)| x.clone()).collect();
//! let adversarial: Vec<_> = dataset
//!     .test()
//!     .iter()
//!     .map(|(x, y)| Fgsm::new(0.3).perturb(&network, x, *y).map(|e| e.input))
//!     .collect::<Result<Vec<_>, _>>()?;
//!
//! // Bind the engine once: the program/class-path fingerprint is validated
//! // here, the classifier is fitted from the calibration sets, and the decision
//! // threshold becomes an explicit knob.
//! let engine = DetectionEngine::builder(network, program, class_paths)
//!     .threshold(0.5)
//!     .calibrate(&benign, &adversarial)
//!     .build()?;
//!
//! // Online: serve a whole batch through one fused NCHW trace (batched
//! // im2col/matmul across inputs; bit-for-bit identical to per-input detect).
//! for verdict in engine.detect_batch(&adversarial)? {
//!     println!("adversarial? {}", verdict.is_adversary);
//! }
//!
//! // The engine computes verdicts; the cost of its program on the co-designed
//! // hardware is `compiler::Compiler::compile` + `accel::Simulator::simulate`.
//! # Ok(())
//! # }
//! ```
//!
//! # Serving
//!
//! For traffic that arrives one request at a time, wrap the engine(s) in a
//! [`serve::Server`] instead of hand-rolling batches: a bounded submission
//! queue feeds N worker threads, a free worker takes a work-conserving cut of
//! at most `max_batch` queued requests and runs it fused, a cheap screening
//! engine can escalate uncertain scores to an expensive tier-2 engine — or to a set of
//! **shard** engines splitting a many-class canary set
//! (`ServerBuilder::escalate_sharded`, with tier-2 slivers pipelined against
//! the next batch's screening by default) — and an LRU cache keyed on
//! activation-path prefixes short-circuits repeated/near-duplicate inputs
//! (persistable across restarts via `CacheConfig::persist_path`).  With the
//! cache disabled, served verdicts are bit-for-bit identical to direct
//! `detect` calls on the routed engine, sharded or not.
//!
//! ```no_run
//! use ptolemy::prelude::*;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let (screen_engine, expensive_engine): (DetectionEngine, DetectionEngine) = todo!();
//! let server = Server::builder(screen_engine)
//!     .escalate(expensive_engine, 0.35, 0.65) // uncertainty band -> tier 2
//!     .workers(4)
//!     .cache(CacheConfig::default())
//!     .start()?;
//! let ticket = server.submit(Tensor::full(&[3, 8, 8], 0.5))?;
//! let served = ticket.wait()?;
//! println!("adversarial? {} (tier {:?})", served.detection.is_adversary, served.tier);
//! println!("{:#?}", server.stats());
//! # Ok(())
//! # }
//! ```
//!
//! `examples/serving.rs` runs this end to end on trained engines and prints the
//! full `ServeStats` snapshot.

#![forbid(unsafe_code)]

pub use ptolemy_accel as accel;
pub use ptolemy_attacks as attacks;
pub use ptolemy_baselines as baselines;
pub use ptolemy_compiler as compiler;
pub use ptolemy_core as core;
pub use ptolemy_data as data;
pub use ptolemy_forest as forest;
pub use ptolemy_isa as isa;
pub use ptolemy_nn as nn;
pub use ptolemy_obs as obs;
pub use ptolemy_serve as serve;
pub use ptolemy_tensor as tensor;

/// Commonly used items, re-exported for examples and integration tests.
pub mod prelude {
    pub use ptolemy_attacks::{Attack, Bim, CarliniWagnerL2, DeepFool, Fgsm, Jsma, Pgd};
    pub use ptolemy_core::{
        path_similarity, variants, ClassPathSet, Detection, DetectionEngine,
        DetectionEngineBuilder, DetectionProgram, ExtractionSpec, Profiler,
    };
    pub use ptolemy_data::{Arrivals, SyntheticDataset, WorkloadSpec, WorkloadTrace};
    pub use ptolemy_forest::{auc, RandomForest};
    pub use ptolemy_nn::{zoo, Network, TrainConfig, Trainer};
    pub use ptolemy_obs::{Clock, Registry};
    pub use ptolemy_serve::{
        AdmissionPolicy, CacheConfig, DegradePolicy, ServeError, ServeStats, Served, Server,
        ShedReason, Ticket, Tier,
    };
    pub use ptolemy_tensor::Tensor;
}
