//! # ptolemy-serve
//!
//! The serving runtime that turns one-or-more bound
//! [`ptolemy_core::DetectionEngine`]s into a production front-end.  PR 1's
//! engine is a session object — bind once, then `detect`/`detect_batch` — but
//! every caller still hand-rolls batching and drives a single engine
//! synchronously.  This crate adds the layer between "one input" and "one
//! pre-formed batch":
//!
//! * **[`Server`]** — a bounded submission queue drained by N worker threads
//!   (std threads + condvars, no external executor).  [`Server::submit`]
//!   returns a [`Ticket`] that resolves to a [`Served`] verdict; full queues
//!   apply backpressure.
//! * **Work-conserving cut of at most `max_batch`**
//!   ([`ServerBuilder::max_batch`]) — a worker that becomes free while
//!   requests are queued takes whatever is there, at once, up to `max_batch`
//!   (default 8, a measured number), and sleeps only on an empty queue: there
//!   is no batch-forming delay.  Batches grow when every worker is busy and
//!   requests accumulate behind them, which is exactly when fusing them buys
//!   throughput.  Every queue decision (admission, EDF order, the cut,
//!   degradation, shutdown flush) is made by a pure state machine in
//!   `queue.rs`, and what a batch's requests resolve to — shed, cache hit,
//!   screen verdict, degraded verdict, escalation group, escalated verdict —
//!   by three stage functions in `stage.rs` that return the tickets they
//!   answered plus one counter delta.  The threaded code in `server.rs` only
//!   acts on those answers: it reads the clock, calls the engines, folds each
//!   delta into [`ServeStats`] under one lock and then resolves the tickets,
//!   so a [`Server::stats`] read taken right after [`Ticket::wait`] returns
//!   already counts that request — on the success, error, expiry and
//!   worker-panic paths alike.
//! * **Streamed fused batch execution** — each formed batch runs through
//!   [`ptolemy_core::DetectionEngine::detect_batch_with_paths`]: one batched
//!   NCHW `im2col`/matmul forward pass (tier 1, and again for the uncertain
//!   sliver on tier 2) whose activation paths are extracted **while the pass
//!   runs** ([`ptolemy_core::extract_paths_streaming_batch`]) — stacked
//!   boundaries are masked and released eagerly instead of materialising a
//!   full trace, so batching buys kernel fusion *and* O(retained
//!   boundaries) peak activation memory per worker, not just shared
//!   scheduling.
//! * **Two-tier routing** ([`ServerBuilder::escalate`]) — a cheap screening
//!   engine (e.g. an FwAb program) serves everything; inputs whose screening
//!   score falls in an uncertainty band are re-scored by an expensive engine
//!   (e.g. BwCu).  Per-tier counters land in [`ServeStats`].
//! * **Sharded tier 2** ([`ServerBuilder::escalate_sharded`]) — a many-class
//!   model's canary set splits across N escalation engines
//!   ([`ptolemy_core::ClassPathSet::shard`]); each in-band input is re-scored
//!   by the shard owning its screened class, so shard engines hold only their
//!   slice of canary memory while the union of shard verdicts stays
//!   **bit-for-bit identical** to the unsharded escalation engine.
//! * **Cross-batch tier-2 pipelining** — each worker hands its escalation
//!   sliver to a bounded overlap thread and immediately screens the next
//!   formed batch, so tier-2 extraction of batch *k* overlaps tier-1 of batch
//!   *k+1* (both tiers stream through the `TraceSink` drivers, so the
//!   in-flight sliver holds only its retained boundaries).  This is the one
//!   way tier 2 runs; the worker executes a sliver itself only when the
//!   overlap thread already has one running and one waiting.
//!   [`ServeStats::pipelined_batches`] / [`ServeStats::serial_batches`] count
//!   the two outcomes.
//! * **Persistent path-prefix result cache** ([`CacheConfig`]) — an LRU cache
//!   keyed on [`ptolemy_core::ActivationPath::prefix_fingerprint`] of the
//!   screening path, so repeated/near-duplicate inputs skip re-scoring (most
//!   importantly the tier-2 re-extraction).  A byte-identical repeat of a
//!   cached input is answered inside [`Server::submit`] itself, as a
//!   [`Ticket`] that is already resolved — it never reaches the queue
//!   ([`ServeStats::cache_hits_at_submit`]).  With
//!   [`CacheConfig::persist_path`] set the cache survives restarts: flushed on
//!   shutdown, reloaded on start, and keyed on the engine fingerprint so a
//!   file written by a different engine is ignored (with a counter) instead of
//!   replayed.  Hit/miss and persistence counters land in [`ServeStats`].
//! * **Overload survival** ([`AdmissionPolicy`], [`DegradePolicy`]) —
//!   [`Server::submit_with_deadline`] attaches a per-request deadline: the
//!   queue drains earliest-deadline-first (FIFO among deadline-free traffic,
//!   so plain `submit` ordering is untouched), admission control sheds
//!   submissions whose deadline the current backlog already dooms
//!   ([`ServeError::Shed`]), expired requests are dropped at batch formation
//!   instead of wasting inference, and under sustained queue pressure the
//!   server degrades to screen-tier-only verdicts (flagged via
//!   [`Served::degraded`], auto-recovering on drain).  All of it is counted
//!   in [`ServeStats`] and inert without deadlines and policies — the parity
//!   tests pin bit-for-bit identical serving under zero overload.
//!
//! With the cache disabled, served verdicts are **bit-for-bit identical** to
//! calling `detect` directly on whichever engine the router picked — the
//! serving layer adds scheduling, never arithmetic.  The workspace test-suite
//! pins that parity down.
//!
//! # Example
//!
//! ```
//! use ptolemy_core::{variants, DetectionEngine, Profiler};
//! use ptolemy_nn::{zoo, TrainConfig, Trainer};
//! use ptolemy_serve::Server;
//! use ptolemy_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::new(0);
//! let mut net = zoo::mlp_net(&[8], 2, &mut rng)?;
//! let samples: Vec<(Tensor, usize)> = (0..20)
//!     .map(|i| (Tensor::full(&[8], (i % 2) as f32), i % 2))
//!     .collect();
//! Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
//! let program = variants::fw_ab(&net, 0.05)?;
//! let class_paths = Profiler::new(program.clone()).profile(&net, &samples)?;
//! let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
//! let engine = DetectionEngine::builder(net, program, class_paths)
//!     .calibrate(&inputs[..8], &inputs[8..16])
//!     .build()?;
//!
//! // Start a server over the engine and push the inputs through it.
//! let server = Server::builder(engine).workers(2).start()?;
//! let tickets: Vec<_> = inputs
//!     .iter()
//!     .map(|x| server.submit(x.clone()))
//!     .collect::<Result<_, _>>()?;
//! for ticket in tickets {
//!     let served = ticket.wait()?;
//!     assert!((0.0..=1.0).contains(&served.detection.score));
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, inputs.len() as u64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod admission;
mod cache;
mod error;
mod queue;
mod server;
mod stage;
mod stats;
mod sync;

pub use admission::{AdmissionPolicy, DegradePolicy};
pub use cache::{CacheConfig, LruCache};
pub use error::{Result, ServeError, ShedReason};
pub use server::{Served, Server, ServerBuilder, Ticket, Tier};
pub use stats::ServeStats;
