//! # bandana-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation. Each module
//! exposes `run(scale) -> Vec<Row>` returning structured results and a
//! `render` producing the human-readable artifact; the `repro` binary
//! dispatches on experiment ids (`fig2`–`fig16`, `table1`, `table2`, `all`)
//! and the Criterion benches wrap the same `run` functions.
//!
//! Everything runs at a configurable [`Scale`]: `Quick` for CI-sized smoke
//! runs, `Full` for the 1000×-scaled-down-from-production runs. ROADMAP.md's
//! "What the paper reproduction says" records what each figure shows at
//! both scales.

// `deny` rather than `forbid`: the `count-allocs` feature's global
// allocator is the one narrowly-scoped `unsafe impl` in the workspace.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_track;
pub mod baseline;
pub mod experiments;
pub mod output;
pub mod scale;

pub use baseline::{check_serve, parse_document, BenchDoc};
pub use output::TextTable;
pub use scale::Scale;
