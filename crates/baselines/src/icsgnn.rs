//! ICS-GNN — lightweight interactive community search via GNN
//! (Gao et al., PVLDB'21).
//!
//! For every query, ICS-GNN (1) extracts a candidate subgraph around the
//! query vertices, (2) **trains a fresh Vanilla GCN from scratch** on
//! that subgraph — query vertices are positive labels, far-away vertices
//! negative labels — and (3) returns the k highest-scoring vertices
//! reachable from the query. The per-query re-training is exactly the
//! cost the paper's QD-GNN framework removes.
//!
//! The model here is the two-layer GCN of Kipf & Welling with symmetric
//! normalization, matching §3.2's description of Vanilla GCN.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use qdgnn_core::interactive::{candidate_by_bfs, select_k_by_scores, SubgraphScorer};
use qdgnn_data::Query;
use qdgnn_graph::attributed::{adjacency_matrix, AdjNorm};
use qdgnn_graph::{traversal, AttributedGraph, VertexId};
use qdgnn_tensor::{Adam, AdamConfig, Dense, GradStore, ParamStore, Tape};

use crate::CommunityMethod;

/// ICS-GNN hyper-parameters (defaults follow the original paper's
/// lightweight setting).
#[derive(Clone, Debug)]
pub struct IcsGnnConfig {
    /// GCN hidden width.
    pub hidden: usize,
    /// Per-query training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Candidate subgraph size cap.
    pub candidate_size: usize,
    /// Negative labels sampled per positive label.
    pub negative_ratio: usize,
    /// Initialization / sampling seed.
    pub seed: u64,
}

impl Default for IcsGnnConfig {
    fn default() -> Self {
        IcsGnnConfig {
            hidden: 128,
            epochs: 60,
            lr: 0.01,
            candidate_size: 400,
            negative_ratio: 3,
            seed: 99,
        }
    }
}

/// The ICS-GNN baseline.
#[derive(Clone, Debug, Default)]
pub struct IcsGnn {
    /// Hyper-parameters.
    pub config: IcsGnnConfig,
}

impl IcsGnn {
    /// Creates the baseline with the given configuration.
    pub fn new(config: IcsGnnConfig) -> Self {
        IcsGnn { config }
    }

    /// Trains a fresh two-layer GCN on the candidate subgraph `graph` and
    /// returns per-vertex scores. `query_vertices` are in `graph`'s ids.
    pub fn train_and_score(
        &self,
        graph: &AttributedGraph,
        query_vertices: &[VertexId],
        seed: u64,
    ) -> Vec<f32> {
        let cfg = &self.config;
        let n = graph.num_vertices();
        let adj = Arc::new(adjacency_matrix(graph.graph(), AdjNorm::GcnSym));
        let adj_t = Arc::new(adj.transpose());
        let feat = Arc::new(graph.attribute_matrix());
        let feat_t = Arc::new(feat.transpose());
        let mut rng = StdRng::seed_from_u64(seed ^ cfg.seed);

        // Labels: positives = query vertices; negatives = the farthest
        // vertices from the query (likely outside the community).
        let mut target = Dense::zeros(n, 1);
        let mut weight = Dense::zeros(n, 1);
        for &q in query_vertices {
            target.set(q as usize, 0, 1.0);
            weight.set(q as usize, 0, 1.0);
        }
        let dist = traversal::bfs_distances(graph.graph(), query_vertices, usize::MAX);
        let mut by_distance: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| !query_vertices.contains(&v))
            .collect();
        by_distance.sort_by_key(|&v| std::cmp::Reverse(dist[v as usize].min(n)));
        let num_neg = (query_vertices.len() * cfg.negative_ratio).min(by_distance.len());
        let mut negatives: Vec<VertexId> = by_distance[..num_neg.max(1).min(by_distance.len())]
            .to_vec();
        negatives.shuffle(&mut rng);
        for &v in &negatives {
            weight.set(v as usize, 0, 1.0);
        }
        let target = Arc::new(target);
        let weight = Arc::new(weight);

        // Fresh GCN parameters.
        let mut store = ParamStore::new();
        let w1 = store.xavier("gcn.w1", graph.num_attrs(), cfg.hidden, &mut rng);
        let b1 = store.zeros("gcn.b1", 1, cfg.hidden);
        let w2 = store.xavier("gcn.w2", cfg.hidden, 1, &mut rng);
        let b2 = store.zeros("gcn.b2", 1, 1);
        let mut opt = Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() }, &store);

        let forward = |store: &ParamStore, tape: &mut Tape| {
            let w1v = tape.leaf(Arc::clone(store.value(w1)));
            let b1v = tape.leaf(Arc::clone(store.value(b1)));
            let w2v = tape.leaf(Arc::clone(store.value(w2)));
            let b2v = tape.leaf(Arc::clone(store.value(b2)));
            let xw = tape.spmm(&feat, &feat_t, w1v);
            let xwb = tape.add_row(xw, b1v);
            let h1 = tape.spmm(&adj, &adj_t, xwb);
            let h1 = tape.relu(h1);
            let hw = tape.matmul(h1, w2v);
            let hwb = tape.add_row(hw, b2v);
            let logits = tape.spmm(&adj, &adj_t, hwb);
            (logits, vec![(w1v, w1), (b1v, b1), (w2v, w2), (b2v, b2)])
        };

        for _ in 0..cfg.epochs {
            let mut tape = Tape::new();
            let (logits, leaves) = forward(&store, &mut tape);
            let loss = tape.bce_with_logits(logits, Arc::clone(&target), Some(Arc::clone(&weight)));
            let mut grads = tape.backward(loss);
            let mut gs = GradStore::for_store(&store);
            for (var, pid) in leaves {
                if let Some(g) = grads.take(var) {
                    gs.accumulate(pid, g);
                }
            }
            opt.step(&mut store, &gs);
        }

        let mut tape = Tape::new();
        let (logits, _) = forward(&store, &mut tape);
        let probs = tape.sigmoid(logits);
        tape.value(probs).as_slice().to_vec()
    }
}

impl SubgraphScorer for IcsGnn {
    fn label(&self) -> String {
        "ICS-GNN".to_string()
    }

    fn score_subgraph(&self, sub: &AttributedGraph, query: &Query, seed: u64) -> Vec<f32> {
        self.train_and_score(sub, &query.vertices, seed)
    }
}

impl CommunityMethod for IcsGnn {
    fn name(&self) -> &'static str {
        "ICS-GNN"
    }

    fn supports_attrs(&self) -> bool {
        false // the GCN uses graph attributes, but the *query* carries none
    }

    fn supports_multi_vertex(&self) -> bool {
        true
    }

    /// One non-interactive round: candidate extraction, per-query GCN
    /// training, k-sized selection with `k = |ground truth|` (ICS-GNN's k
    /// is user-provided; the evaluation grants every method the true
    /// size).
    fn search(&self, graph: &AttributedGraph, query: &Query) -> Vec<VertexId> {
        let candidate =
            candidate_by_bfs(graph.graph(), &query.vertices, self.config.candidate_size);
        let (sub, map) = graph.induced_subgraph(&candidate);
        let local_query: Vec<VertexId> =
            query.vertices.iter().filter_map(|&v| map.local(v)).collect();
        let scores = self.train_and_score(&sub, &local_query, 7);
        let k = query.truth.len().max(local_query.len());
        let local = select_k_by_scores(sub.graph(), &local_query, &scores, k);
        let mut global = map.to_global(&local);
        global.sort_unstable();
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_data::{presets, queries as qgen, AttrMode};
    use qdgnn_graph::f1_score;

    fn fast_config() -> IcsGnnConfig {
        IcsGnnConfig { hidden: 16, epochs: 30, candidate_size: 60, ..Default::default() }
    }

    #[test]
    fn scores_separate_positives_from_negatives() {
        let data = presets::toy();
        let ics = IcsGnn::new(fast_config());
        let q = &data.communities[0][..2];
        let scores = ics.train_and_score(&data.graph, q, 1);
        assert_eq!(scores.len(), data.graph.num_vertices());
        // Query vertices should be scored clearly above the global mean.
        let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
        for &v in q {
            assert!(
                scores[v as usize] > mean,
                "query vertex {v} scored {} ≤ mean {mean}",
                scores[v as usize]
            );
        }
    }

    #[test]
    fn search_finds_reasonable_toy_community() {
        let data = presets::toy();
        let ics = IcsGnn::new(fast_config());
        let q = qgen::generate(&data, 3, 2, 3, AttrMode::Empty, 5).remove(0);
        let c = ics.search(&data.graph, &q);
        let f1 = f1_score(&c, &q.truth);
        assert!(f1 > 0.3, "ICS-GNN should be non-trivial on toy data, F1={f1:.3}");
        // All query vertices present.
        for v in &q.vertices {
            assert!(c.contains(v));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = presets::toy();
        let ics = IcsGnn::new(fast_config());
        let a = ics.train_and_score(&data.graph, &[0, 1], 42);
        let b = ics.train_and_score(&data.graph, &[0, 1], 42);
        assert_eq!(a, b);
    }
}
