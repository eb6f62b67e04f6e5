#![warn(missing_docs)]

//! # qdgnn-benchmark
//!
//! The repository benchmark: four serving workloads over graphs of three
//! sizes, measured from `ServeEngine::submit` to the reply with the obs
//! layer compiled out, plus a traced pass that times each layer from
//! outside through its public functions. See `README.md` beside this
//! crate for the workloads, metrics and bounds.

pub mod load;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
