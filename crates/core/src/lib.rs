#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! # qdgnn-core
//!
//! The paper's primary contribution: query-driven graph neural networks
//! for community search.
//!
//! * [`models::SimpleQdGnn`] — the query-propagation-only model of §5.1;
//! * [`models::QdGnn`] — Query Encoder + Graph Encoder + Feature Fusion
//!   (§5.2, Algorithm 2);
//! * [`models::AqdGnn`] — adds the bipartite Attribute Encoder for
//!   attributed community search (§6, Algorithm 3);
//! * [`train::Trainer`] — the offline training stage of §4.2 (BCE loss,
//!   Adam, data-parallel gradient batches, validation-based selection of
//!   the best weights and the threshold γ);
//! * [`identify`] — the online query stage of §4.3/§6.6 (constrained BFS
//!   on the structure graph or fusion graph);
//! * [`subgraph`] — the large-graph subgraph-training mechanism of §7.4;
//! * [`interactive`] — the ICS-GNN-style interactive loop of §7.3 with
//!   pluggable embedding models.

pub mod config;
pub mod error;
#[cfg(feature = "chaos")]
pub mod faultless;
pub mod identify;
pub mod inputs;
pub mod interactive;
pub mod models;
pub mod persist;
pub mod serve;
pub mod subgraph;
pub mod train;

pub use config::{FusionAgg, ModelConfig};
pub use error::QdgnnError;
pub use identify::{identify_community, try_identify_community};
pub use inputs::{GraphTensors, QueryBatch, QueryVectors};
pub use models::{AqdGnn, CsModel, ForwardResult, GraphCache, QdGnn, SimpleQdGnn};
pub use serve::{BatchTiming, OnlineStage};
pub use train::{TrainConfig, TrainReport, TrainedModel, Trainer};
