#![warn(missing_docs)]

//! # qdgnn — Query-Driven GNNs for Community Search
//!
//! A from-scratch Rust implementation of
//! *"Query Driven-Graph Neural Networks for Community Search: From
//! Non-Attributed, Attributed, to Interactive Attributed"*
//! (Jiang et al., PVLDB 15(6), 2022): the **Simple QD-GNN**, **QD-GNN**
//! and **AQD-GNN** models, their offline-training / online-query
//! framework, the large-graph subgraph mechanism, the interactive
//! framework, and the five baselines the paper compares against —
//! together with the tensor/autodiff engine and graph-algorithm
//! substrate they run on.
//!
//! ## Quickstart
//!
//! ```
//! use qdgnn::prelude::*;
//!
//! // A small synthetic attributed graph with ground-truth communities.
//! let data = qdgnn::data::presets::toy();
//!
//! // Precompute query-independent tensors.
//! let config = ModelConfig::fast();
//! let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
//!
//! // Generate (query, ground-truth) pairs and split them.
//! let queries = qdgnn::data::queries::generate(&data, 60, 1, 3, AttrMode::FromCommunity, 7);
//! let split = QuerySplit::new(queries, 30, 15, 15);
//!
//! // Offline: train AQD-GNN once.
//! let model = AqdGnn::new(config, tensors.d);
//! let trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::fast() });
//! let trained = trainer.train(model, &tensors, &split.train, &split.val);
//!
//! // Online: the Graph Encoder is cached once; each query costs one
//! // query-branch inference pass plus a constrained BFS.
//! let stage = OnlineStage::new(&trained.model, &tensors, trained.gamma);
//! let community = stage.try_query(&split.test[0]).expect("test query is valid");
//! assert!(!community.is_empty());
//! let metrics = stage.evaluate(&split.test);
//! assert!((0.0..=1.0).contains(&metrics.f1));
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Re-exported as |
//! |---|---|---|
//! | Tensors + autodiff + optimizers | `qdgnn-tensor` | [`tensor`] |
//! | Layers and losses | `qdgnn-nn` | [`nn`] |
//! | Graphs + classical algorithms | `qdgnn-graph` | [`graph`] |
//! | Synthetic datasets + queries | `qdgnn-data` | [`data`] |
//! | The paper's models + framework | `qdgnn-core` | [`core`] |
//! | CTC / k-ECC / ACQ / ATC / ICS-GNN | `qdgnn-baselines` | [`baselines`] |
//! | Tracing + metrics (feature `obs`) | `qdgnn-obs` | [`obs`] |

pub use qdgnn_baselines as baselines;
pub use qdgnn_core as core;
pub use qdgnn_data as data;
pub use qdgnn_graph as graph;
pub use qdgnn_nn as nn;
pub use qdgnn_obs as obs;
pub use qdgnn_tensor as tensor;

/// The most common imports for working with the library.
pub mod prelude {
    pub use qdgnn_baselines::{Acq, Atc, CommunityMethod, Ctc, IcsGnn, KClique, KEcc};
    pub use qdgnn_core::config::{FusionAgg, ModelConfig};
    pub use qdgnn_core::error::QdgnnError;
    pub use qdgnn_core::identify::{identify_community, try_identify_community};
    pub use qdgnn_core::inputs::{GraphTensors, QueryBatch, QueryVectors};
    pub use qdgnn_core::interactive::{
        run_interactive, InteractiveConfig, ModelScorer, SubgraphScorer,
    };
    pub use qdgnn_core::models::{
        predict_scores, predict_scores_batch, predict_scores_cached, AqdGnn, CsModel, GraphCache,
        QdGnn, SimpleQdGnn,
    };
    pub use qdgnn_core::persist::{load_model, save_model};
    pub use qdgnn_core::serve::OnlineStage;
    pub use qdgnn_core::subgraph::{SubgraphConfig, SubgraphTrainer};
    pub use qdgnn_core::train::{
        predict_community, TrainConfig, TrainReport, TrainedModel, Trainer,
    };
    pub use qdgnn_data::{AttrMode, Dataset, GeneratorConfig, Query, QuerySplit};
    pub use qdgnn_graph::{AttributedGraph, CommunityMetrics, Graph, VertexId};
}
