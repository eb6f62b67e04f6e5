#![warn(missing_docs)]

//! # qdgnn-bench
//!
//! The CI performance gate: the `qdgnn-bench` (serve) and
//! `qdgnn-bench-train` binaries measure small fixed fixtures (the toy and
//! FB-414 replica datasets, few training epochs) through the production
//! code paths, write `BENCH_serve.json` / `BENCH_train.json`, and
//! `qdgnn-bench compare` checks a fresh run against those baselines.
//! This module holds the fixtures' shared configuration.

pub mod gate;
pub mod measure;
pub mod report;

use qdgnn_core::config::ModelConfig;
use qdgnn_core::train::TrainConfig;
use qdgnn_data::{queries as qgen, AttrMode, Dataset, QuerySplit};

/// Benchmark-scale model configuration.
pub fn bench_model_config() -> ModelConfig {
    ModelConfig { hidden: 32, ..ModelConfig::default() }
}

/// Benchmark-scale training configuration.
pub fn bench_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 12,
        validate_every: 6,
        gamma_grid: vec![0.3, 0.5, 0.7],
        ..Default::default()
    }
}

/// Queries for a dataset under `mode` (60 split 30/15/15).
pub fn bench_queries(dataset: &Dataset, mode: AttrMode, min_v: usize, max_v: usize) -> QuerySplit {
    let queries = qgen::generate(dataset, 60, min_v, max_v, mode, 0xBE7C);
    QuerySplit::new(queries, 30, 15, 15)
}
