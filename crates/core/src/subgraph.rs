//! The large-graph subgraph-training mechanism of §7.4.
//!
//! For graphs where whole-graph propagation is too expensive, each query
//! is handled on a *candidate subgraph*: the 1- or 2-hop neighbourhood of
//! the query vertices in the **fusion graph** (structure + same-attribute
//! edges), the hop count chosen by neighbourhood size. The model is
//! trained on these small subgraphs and predicts communities on them;
//! its parameter shapes are graph-size-independent (the Query Encoder's
//! input width is 1, the Graph/Attribute Encoders' widths depend only on
//! the attribute vocabulary), so one model serves all subgraphs.

use qdgnn_data::Query;
use qdgnn_graph::graph::Subgraph;
use qdgnn_graph::{traversal, AttributedGraph, CommunityMetrics, VertexId};

use crate::config::ModelConfig;
use crate::error::QdgnnError;
use crate::inputs::GraphTensors;
use crate::models::CsModel;
use crate::serve::OnlineStage;
use crate::train::{run_training, TrainConfig, TrainItem, TrainedModel, Validation};

/// Candidate-subgraph extraction parameters.
#[derive(Clone, Debug)]
pub struct SubgraphConfig {
    /// If the 1-hop fusion neighbourhood has fewer vertices than this,
    /// expand to 2 hops (the paper selects "1 or 2-hop neighbors
    /// according to the number of neighbors").
    pub two_hop_below: usize,
    /// Hard cap on candidate size; BFS order decides who stays.
    pub max_vertices: usize,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        SubgraphConfig { two_hop_below: 256, max_vertices: 2048 }
    }
}

/// A per-query candidate subgraph with its tensors and localized query.
pub struct Candidate {
    /// Tensors of the candidate subgraph.
    pub tensors: GraphTensors,
    /// Local↔global vertex mapping.
    pub map: Subgraph,
    /// The query with vertices and ground truth in local ids (truth
    /// restricted to the candidate).
    pub local_query: Query,
}

/// Extracts the candidate subgraph for `query`: its 1- or 2-hop
/// neighbourhood in `graph`'s fusion graph, under the model's
/// attribute-frequency cap.
pub fn extract_candidate(
    graph: &AttributedGraph,
    query: &Query,
    model_config: &ModelConfig,
    cfg: &SubgraphConfig,
) -> Candidate {
    let fusion = graph.fusion(model_config.fusion_graph_attr_cap);
    let dist = traversal::bfs_distances(&fusion, &query.vertices, 2);
    let within = |hops: usize| -> Vec<VertexId> {
        (0..dist.len() as VertexId).filter(|&v| dist[v as usize] <= hops).collect()
    };
    let one_hop = within(1);
    let mut vertices = if one_hop.len() < cfg.two_hop_below { within(2) } else { one_hop };
    if vertices.len() > cfg.max_vertices {
        // Keep the closest vertices (BFS distance, then id) so the query
        // neighbourhood survives the cap.
        vertices.sort_by_key(|&v| (dist[v as usize], v));
        vertices.truncate(cfg.max_vertices);
    }
    let (sub_attr, map) = graph.induced_subgraph(&vertices);
    let tensors =
        GraphTensors::new(&sub_attr, model_config.adj_norm, model_config.fusion_graph_attr_cap);
    let local_query = Query {
        vertices: query
            .vertices
            .iter()
            .filter_map(|&v| map.local(v))
            .collect(),
        attrs: query.attrs.clone(),
        truth: {
            let mut t: Vec<VertexId> =
                query.truth.iter().filter_map(|&v| map.local(v)).collect();
            t.sort_unstable();
            t
        },
    };
    Candidate { tensors, map, local_query }
}

/// Trainer for the subgraph mechanism: same optimization loop as
/// [`crate::train::Trainer`], but every query lives on its own candidate
/// subgraph.
pub struct SubgraphTrainer {
    /// Optimization hyper-parameters.
    pub train_config: TrainConfig,
    /// Candidate extraction parameters.
    pub subgraph_config: SubgraphConfig,
}

impl SubgraphTrainer {
    /// Creates a subgraph trainer.
    pub fn new(train_config: TrainConfig, subgraph_config: SubgraphConfig) -> Self {
        SubgraphTrainer { train_config, subgraph_config }
    }

    /// Trains `model` on per-query candidate subgraphs; validation also
    /// runs on candidates. Returns the trained model, its γ, and the
    /// validation candidates are discarded.
    pub fn train<M: CsModel>(
        &self,
        model: M,
        graph: &AttributedGraph,
        train: &[Query],
        val: &[Query],
    ) -> TrainedModel<M> {
        let items: Vec<TrainItem> = train
            .iter()
            .map(|q| {
                let cand = extract_candidate(graph, q, model.config(), &self.subgraph_config);
                TrainItem::prepare(&model, &cand.tensors, &cand.local_query)
            })
            .collect();
        let val_candidates: Vec<Candidate> = val
            .iter()
            .map(|q| extract_candidate(graph, q, model.config(), &self.subgraph_config))
            .collect();
        let validation = Validation::per_query(
            val_candidates.iter().map(|c| (&c.tensors, &c.local_query, &c.map)),
            val,
        );
        run_training(model, &items, &self.train_config, &validation, None)
    }
}

/// Predicts the community for `query` via its candidate subgraph,
/// returning **global** vertex ids: the candidate is served by its own
/// [`OnlineStage`], so the answer is the served one.
///
/// # Errors
/// The stage's typed error for a malformed query (e.g. no query vertex
/// inside the candidate).
pub fn predict_community_subgraph(
    model: &dyn CsModel,
    graph: &AttributedGraph,
    query: &Query,
    gamma: f32,
    cfg: &SubgraphConfig,
) -> Result<Vec<VertexId>, QdgnnError> {
    let cand = {
        let _s = qdgnn_obs::span!("serve.extract");
        extract_candidate(graph, query, model.config(), cfg)
    };
    qdgnn_obs::observe("serve.candidate_vertices", cand.tensors.n as f64);
    let local = OnlineStage::new(model, &cand.tensors, gamma).try_query(&cand.local_query)?;
    let mut global = cand.map.to_global(&local);
    global.sort_unstable();
    Ok(global)
}

/// Micro-metrics over a query set evaluated through candidates, against
/// the **full** (global) ground truth — missing a community member
/// because the candidate was too small correctly costs recall.
///
/// # Panics
/// Panics on malformed queries (evaluation sets are trusted input).
pub fn evaluate_subgraph(
    model: &dyn CsModel,
    graph: &AttributedGraph,
    queries: &[Query],
    gamma: f32,
    cfg: &SubgraphConfig,
) -> CommunityMetrics {
    let predicted: Vec<Vec<VertexId>> = queries
        .iter()
        .map(|q| match predict_community_subgraph(model, graph, q, gamma, cfg) {
            Ok(c) => c,
            Err(e) => panic!("invalid query in evaluation set: {e}"),
        })
        .collect();
    let truth: Vec<Vec<VertexId>> = queries.iter().map(|q| q.truth.clone()).collect();
    CommunityMetrics::micro(&predicted, &truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::AqdGnn;
    use qdgnn_data::{presets, queries as qgen, AttrMode};

    #[test]
    fn candidate_contains_query_and_respects_cap() {
        let data = presets::toy();
        let mc = ModelConfig::fast();
        let queries = qgen::generate(&data, 5, 1, 2, AttrMode::FromNode, 1);
        let cfg = SubgraphConfig { two_hop_below: 4, max_vertices: 12 };
        for q in &queries {
            let cand = extract_candidate(&data.graph, q, &mc, &cfg);
            assert!(cand.tensors.n <= 12);
            assert_eq!(cand.local_query.vertices.len(), q.vertices.len());
            // Query vertices must survive the cap (distance 0).
            for &v in &q.vertices {
                assert!(cand.map.local(v).is_some());
            }
        }
    }

    #[test]
    fn two_hop_expansion_when_small() {
        let data = presets::toy();
        let mc = ModelConfig::fast();
        let q = qgen::generate(&data, 1, 1, 1, AttrMode::Empty, 2).remove(0);
        let small = extract_candidate(
            &data.graph,
            &q,
            &mc,
            &SubgraphConfig { two_hop_below: 0, max_vertices: 4096 },
        );
        let big = extract_candidate(
            &data.graph,
            &q,
            &mc,
            &SubgraphConfig { two_hop_below: 4096, max_vertices: 4096 },
        );
        assert!(big.tensors.n >= small.tensors.n);
    }

    #[test]
    fn subgraph_training_learns_toy_communities() {
        let data = presets::toy();
        let mc = ModelConfig::fast();
        let all = qgen::generate(&data, 40, 1, 2, AttrMode::FromCommunity, 3);
        let split = qdgnn_data::QuerySplit::new(all, 20, 10, 10);
        let model = AqdGnn::new(mc.clone(), data.graph.num_attrs());
        let trainer = SubgraphTrainer::new(
            TrainConfig { epochs: 25, ..TrainConfig::fast() },
            SubgraphConfig::default(),
        );
        let trained = trainer.train(model, &data.graph, &split.train, &split.val);
        let metrics = evaluate_subgraph(
            &trained.model,
            &data.graph,
            &split.test,
            trained.gamma,
            &SubgraphConfig::default(),
        );
        assert!(
            metrics.f1 > 0.4,
            "subgraph-trained AQD-GNN should find toy communities, F1={:.3}",
            metrics.f1
        );
    }
}
