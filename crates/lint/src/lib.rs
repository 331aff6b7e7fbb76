//! # ptolemy-lint
//!
//! An offline, dependency-free static-analysis pass for the workspace
//! invariants clippy cannot express exactly.  The rest — bounded channels, the
//! cached `available_parallelism` accessor, one data-parallel spawn site, the
//! `Clock` wrapper, panic-free library code, no `todo!`, documented `unsafe` —
//! are clippy lints, configured in the workspace `Cargo.toml` and
//! `clippy.toml` (see `docs/ARCHITECTURE.md`, "Enforced invariants").  The
//! three rules here:
//!
//! * `float-eq` — `==`/`!=` against a float literal or a float cast; clippy's
//!   `float_cmp` skips comparisons against zero, the sentinel checks this rule
//!   wants annotated;
//! * `raw-numeric-cast` — `as i8` / `as u8` only; clippy's
//!   `cast_possible_truncation` covers every narrowing cast;
//! * `test-hook-in-prod` — `#[cfg(test)]` on a field, statement or
//!   expression; clippy has no such lint.
//!
//! The crate's parts:
//!
//! * [`lexer`] — a string/char/comment-aware Rust tokenizer, so lints match
//!   token adjacency, never text inside literals or comments;
//! * [`lints`] — the registry ([`lints::LINTS`]) with per-line suppression
//!   (`// lint:allow(<name>): <reason>`, reason mandatory) and test-code
//!   detection;
//! * [`runner`] — the workspace walk plus human and JSON reports.
//!
//! The binary (`cargo run -p ptolemy-lint`) exits non-zero on any finding and
//! is wired into CI as a hard gate next to clippy; the crate's test-suite
//! runs every lint against fixture snippets **and** asserts the real workspace
//! is violation-free, so the gate cannot silently rot.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod lints;
pub mod runner;

pub use lints::{Finding, LINTS};
pub use runner::{run, Report};
