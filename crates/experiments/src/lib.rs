#![warn(missing_docs)]
#![allow(clippy::disallowed_methods, reason = "harness owns its stopwatch")]

//! # qdgnn-experiments
//!
//! The harness reproducing every table and figure of the paper's
//! evaluation (§7). Each experiment has a runner function here and a
//! thin binary under `src/bin/`; DESIGN.md §3 maps paper artifacts to
//! binaries. All runners accept a [`profile::RunConfig`] (CLI:
//! `--profile fast|std|paper`, `--seed N`, `--out DIR`,
//! `--datasets a,b,c`) and write both an aligned text table to stdout
//! and a CSV to the output directory.

pub mod ablation;
pub mod extras;
pub mod fig6;
pub mod fig7;
pub mod harness;
pub mod profile;
pub mod table;
pub mod table2;
pub mod table3;
pub mod table4;

pub use profile::{Profile, RunConfig};
pub use table::ResultTable;
