//! # ptolemy-obs
//!
//! The observability layer of the Ptolemy reproduction: a std-only,
//! dependency-free crate at the bottom of the workspace graph that every
//! other crate can instrument against.
//!
//! The paper's contribution is a measured accuracy/latency/cost trade-off,
//! so the workspace needs a first-class way to *see* where serving time goes
//! and how it drifts between commits.  This crate supplies the four pieces:
//!
//! * [`Clock`] — monotonic nanoseconds behind a swappable source, so tests
//!   can script time ([`Clock::manual`]) and the `raw-instant` rule can ban
//!   bare `std::time::Instant::now()` everywhere else;
//! * [`Histogram`] — mergeable log-bucketed latency histograms with bounded
//!   memory, exact bucket counts, and percentiles clamped to the recorded
//!   `[min, max]`;
//! * [`Registry`] — named [`Counter`]s and histograms behind one
//!   [`Registry::enabled`] gate (a single relaxed atomic load on the
//!   disabled path), snapshotted to the workspace [`json`] dialect;
//! * [`Span`] / [`Timeline`] — RAII stage timing and per-request timelines
//!   over the serving [`Stage`]s.
//!
//! The [`json`] module (hand-rolled reader/writer, u64-only numbers) moved
//! here from `ptolemy-core` so the whole workspace shares one dialect;
//! `ptolemy_core::json` re-exports it at its historical path.
//!
//! # Example
//!
//! ```
//! use ptolemy_obs::{Clock, Registry, Span};
//!
//! let registry = Registry::with_clock("demo", Clock::manual());
//! let requests = registry.counter("requests");
//! let latency = registry.histogram("latency_ns");
//!
//! requests.incr();
//! {
//!     let _span = Span::start(registry.clock(), latency.clone());
//!     registry.clock().advance(1_500); // the stage under measurement
//! }
//!
//! assert_eq!(latency.snapshot().percentile(0.5), Some(1_500));
//! let text = registry.snapshot().to_json();
//! assert!(text.contains("\"requests\":1"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clock;
mod hist;
pub mod json;
mod registry;
mod span;

pub use clock::Clock;
pub use hist::Histogram;
pub use registry::{Counter, HistogramHandle, Registry};
pub use span::{Span, Stage, Timeline, TimelineEvent};
