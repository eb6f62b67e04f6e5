//! The interactive community-search framework of §7.3.
//!
//! ICS-GNN's pipeline is: extract a candidate subgraph around the query,
//! score its vertices with a GNN, return the k vertices with maximum
//! scores reachable from the query (BFS-constrained greedy selection),
//! then let the user adjust the answer and iterate. The paper's §7.3
//! experiment keeps this pipeline and swaps the embedding model: Vanilla
//! GCN (original ICS-GNN, re-trained per query) versus the pre-trained
//! QD-GNN / AQD-GNN.
//!
//! [`SubgraphScorer`] abstracts the embedding model; `qdgnn-baselines`
//! implements it for per-query-trained GCN (ICS-GNN) and this crate for
//! any pre-trained [`CsModel`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdgnn_data::Query;
use qdgnn_graph::{f1_score, AttributedGraph, Graph, VertexId};

use crate::inputs::GraphTensors;
use crate::models::{predict_scores_cached, CsModel};
use crate::train::encode_query;

/// Scores the vertices of a candidate subgraph for a (localized) query.
pub trait SubgraphScorer {
    /// Human-readable method name for result tables.
    fn label(&self) -> String;

    /// Returns one score per local vertex of `sub`.
    ///
    /// `query` is in local vertex ids with `truth` restricted to the
    /// candidate. The scorer builds whatever tensors its model needs from
    /// `sub`, so they match what the model was trained with.
    fn score_subgraph(&self, sub: &AttributedGraph, query: &Query, seed: u64) -> Vec<f32>;
}

/// [`SubgraphScorer`] backed by a pre-trained model: one inference pass,
/// no per-query training (the framework contribution of §5: detaching
/// training from the online stage).
pub struct ModelScorer<'a> {
    /// The pre-trained model.
    pub model: &'a dyn CsModel,
}

impl SubgraphScorer for ModelScorer<'_> {
    fn label(&self) -> String {
        self.model.name().to_string()
    }

    /// Scores through the serving executor on candidate tensors built
    /// with the model's own adjacency normalization and fusion-graph
    /// attribute cap.
    fn score_subgraph(&self, sub: &AttributedGraph, query: &Query, _seed: u64) -> Vec<f32> {
        let cfg = self.model.config();
        let tensors = GraphTensors::new(sub, cfg.adj_norm, cfg.fusion_graph_attr_cap);
        let cache = self.model.build_graph_cache(&tensors).unwrap_or_default();
        predict_scores_cached(self.model, &tensors, &cache, &encode_query(self.model, &tensors, query))
    }
}

/// Interactive-loop parameters.
#[derive(Clone, Debug)]
pub struct InteractiveConfig {
    /// Candidate subgraph size cap (BFS order around the query).
    pub candidate_size: usize,
    /// Answer size k; `None` uses the ground-truth size (the "user knows
    /// how big a community they want" semantics of ICS-GNN's k).
    pub community_size: Option<usize>,
    /// Number of user-feedback rounds (including the initial one).
    pub rounds: usize,
    /// Ground-truth vertices revealed as feedback per round.
    pub feedback_per_round: usize,
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        InteractiveConfig {
            candidate_size: 400,
            community_size: None,
            rounds: 3,
            feedback_per_round: 2,
        }
    }
}

/// Outcome of one interactive session.
#[derive(Clone, Debug)]
pub struct InteractiveOutcome {
    /// Per-round F1 of the returned community.
    pub f1_per_round: Vec<f64>,
    /// Per-round wall-clock seconds (candidate + scoring + selection).
    pub seconds_per_round: Vec<f64>,
    /// The final community (global vertex ids).
    pub community: Vec<VertexId>,
}

impl InteractiveOutcome {
    /// F1 after the last round.
    pub fn final_f1(&self) -> f64 {
        self.f1_per_round.last().copied().unwrap_or(0.0)
    }

    /// Mean seconds per interaction.
    pub fn avg_seconds(&self) -> f64 {
        if self.seconds_per_round.is_empty() {
            0.0
        } else {
            self.seconds_per_round.iter().sum::<f64>() / self.seconds_per_round.len() as f64
        }
    }
}

/// Runs the interactive loop for one query, simulating user feedback by
/// revealing ground-truth members missing from the current answer.
pub fn run_interactive(
    graph: &AttributedGraph,
    scorer: &dyn SubgraphScorer,
    query: &Query,
    cfg: &InteractiveConfig,
    seed: u64,
) -> InteractiveOutcome {
    let mut current = query.clone();
    let k = cfg.community_size.unwrap_or(query.truth.len());
    let mut f1_per_round = Vec::with_capacity(cfg.rounds);
    let mut seconds = Vec::with_capacity(cfg.rounds);
    let mut community: Vec<VertexId> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::seq::SliceRandom;

    for round in 0..cfg.rounds {
        // Per-round wall timing via the injectable obs clock.
        let start_us = qdgnn_obs::clock::wall_micros();
        // 1. Candidate subgraph around the current query vertices.
        let candidate_vertices =
            candidate_by_bfs(graph.graph(), &current.vertices, cfg.candidate_size);
        let (sub, map) = graph.induced_subgraph(&candidate_vertices);
        let local_query = Query {
            vertices: current.vertices.iter().filter_map(|&v| map.local(v)).collect(),
            attrs: current.attrs.clone(),
            truth: {
                let mut t: Vec<VertexId> =
                    current.truth.iter().filter_map(|&v| map.local(v)).collect();
                t.sort_unstable();
                t
            },
        };
        // 2. Score.
        let scores = scorer.score_subgraph(&sub, &local_query, seed ^ (round as u64) << 8);
        // 3. k-sized greedy selection.
        let local_comm = select_k_by_scores(sub.graph(), &local_query.vertices, &scores, k);
        community = map.to_global(&local_comm);
        community.sort_unstable();
        seconds
            .push(qdgnn_obs::clock::wall_micros().saturating_sub(start_us) as f64 / 1e6);
        f1_per_round.push(f1_score(&community, &query.truth));

        // 4. Simulated feedback: reveal missing ground-truth members.
        if round + 1 < cfg.rounds {
            let mut missing: Vec<VertexId> = query
                .truth
                .iter()
                .copied()
                .filter(|v| community.binary_search(v).is_err())
                .filter(|v| !current.vertices.contains(v))
                .collect();
            if missing.is_empty() {
                // User is satisfied; later rounds repeat the answer.
                for _ in round + 1..cfg.rounds {
                    f1_per_round.push(*f1_per_round.last().unwrap());
                    seconds.push(*seconds.last().unwrap());
                }
                break;
            }
            missing.shuffle(&mut rng);
            current
                .vertices
                .extend(missing.into_iter().take(cfg.feedback_per_round));
            current.vertices.sort_unstable();
        }
    }
    InteractiveOutcome { f1_per_round, seconds_per_round: seconds, community }
}

/// BFS-order candidate extraction capped at `max_size` vertices (at
/// least the sources): the closest vertices by (hop distance, id),
/// returned sorted by id. The BFS stops after the level that fills the
/// cap, so it costs the candidate, not the graph.
pub fn candidate_by_bfs(graph: &Graph, sources: &[VertexId], max_size: usize) -> Vec<VertexId> {
    let cap = max_size.max(sources.len());
    let mut seen = vec![false; graph.num_vertices()];
    let mut reached: Vec<VertexId> = Vec::new();
    for &s in sources {
        if !std::mem::replace(&mut seen[s as usize], true) {
            reached.push(s);
        }
    }
    // `reached` holds whole levels in BFS order; `level` is where the
    // last one starts.
    let mut level = 0;
    while reached.len() < cap && level < reached.len() {
        let end = reached.len();
        for i in level..end {
            for &v in graph.neighbors(reached[i]) {
                if !std::mem::replace(&mut seen[v as usize], true) {
                    reached.push(v);
                }
            }
        }
        level = end;
    }
    // Only the last level can overflow the cap; keep its smallest ids.
    if reached.len() > cap {
        reached[level..].sort_unstable();
        reached.truncate(cap);
    }
    reached.sort_unstable();
    reached
}

/// ICS-GNN's community selection: grow from the seeds through the graph,
/// always absorbing the reachable vertex with the highest score, until
/// `k` vertices are selected (or the component is exhausted). Seeds are
/// always included.
pub fn select_k_by_scores(
    graph: &Graph,
    seeds: &[VertexId],
    scores: &[f32],
    k: usize,
) -> Vec<VertexId> {
    assert_eq!(scores.len(), graph.num_vertices(), "one score per vertex");
    let mut selected = vec![false; graph.num_vertices()];
    let mut in_frontier = vec![false; graph.num_vertices()];
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut out = Vec::with_capacity(k.max(seeds.len()));
    let push_neighbors = |v: VertexId,
                              selected: &[bool],
                              in_frontier: &mut Vec<bool>,
                              frontier: &mut Vec<VertexId>| {
        for &u in graph.neighbors(v) {
            if !selected[u as usize] && !in_frontier[u as usize] {
                in_frontier[u as usize] = true;
                frontier.push(u);
            }
        }
    };
    for &s in seeds {
        if !selected[s as usize] {
            selected[s as usize] = true;
            out.push(s);
        }
    }
    for &s in seeds {
        push_neighbors(s, &selected, &mut in_frontier, &mut frontier);
    }
    while out.len() < k && !frontier.is_empty() {
        // Pick the frontier vertex with max score (ties: smaller id).
        let (pos, _) = frontier
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                scores[a as usize]
                    .partial_cmp(&scores[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .expect("non-empty frontier");
        let v = frontier.swap_remove(pos);
        in_frontier[v as usize] = false;
        selected[v as usize] = true;
        out.push(v);
        push_neighbors(v, &selected, &mut in_frontier, &mut frontier);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::models::{AqdGnn, QdGnn};
    use crate::train::{TrainConfig, Trainer};
    use qdgnn_data::{presets, queries as qgen, AttrMode};
    use qdgnn_graph::attributed::AdjNorm;

    #[test]
    fn select_k_prefers_high_scores_but_stays_connected() {
        // Path 0-1-2-3-4 with a high-score vertex 4 far away.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let scores = [0.1, 0.3, 0.2, 0.25, 0.9];
        let c = select_k_by_scores(&g, &[0], &scores, 3);
        // Must include seed 0; can only reach 4 through 1,2,3, so with k=3
        // it takes the best *reachable* ones: 0, 1, then 2 (frontier of 1).
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn select_k_handles_k_larger_than_component() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let scores = [0.5; 4];
        let c = select_k_by_scores(&g, &[0], &scores, 10);
        assert_eq!(c, vec![0, 1]);
    }

    #[test]
    fn candidate_bfs_caps_size_and_keeps_sources() {
        let d = presets::toy();
        let cand = candidate_by_bfs(d.graph.graph(), &[0], 5);
        assert!(cand.len() <= 5);
        assert!(cand.contains(&0));
    }

    #[test]
    fn interactive_feedback_improves_or_maintains_f1() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let all = qgen::generate(&data, 40, 1, 2, AttrMode::Empty, 5);
        let split = qdgnn_data::QuerySplit::new(all, 20, 10, 10);
        let trained = Trainer::new(TrainConfig { epochs: 20, ..TrainConfig::fast() }).train(
            QdGnn::new(ModelConfig::fast(), t.d),
            &t,
            &split.train,
            &split.val,
        );
        let scorer = ModelScorer { model: &trained.model };
        let cfg = InteractiveConfig { rounds: 3, ..Default::default() };
        let outcome = run_interactive(&data.graph, &scorer, &split.test[0], &cfg, 1);
        assert_eq!(outcome.f1_per_round.len(), 3);
        assert!(outcome.final_f1() >= outcome.f1_per_round[0] - 0.25);
        assert!(!outcome.community.is_empty());
    }

    #[test]
    fn fake_clock_pins_seconds_per_round() {
        use qdgnn_obs::clock::{self, FakeClock, MonotonicClock};
        use std::sync::Arc;

        // Scorer that advances the injected wall clock by exactly 1ms per
        // scoring call, so per-round timing is deterministic.
        struct TickingScorer {
            clock: Arc<FakeClock>,
        }
        impl SubgraphScorer for TickingScorer {
            fn label(&self) -> String {
                "ticking".to_string()
            }
            fn score_subgraph(&self, sub: &AttributedGraph, _: &Query, _: u64) -> Vec<f32> {
                self.clock.advance_micros(1_000);
                vec![0.5; sub.num_vertices()]
            }
        }

        let fake = Arc::new(FakeClock::new());
        clock::set_wall(fake.clone());
        let data = presets::toy();
        let query = Query { vertices: vec![0], attrs: vec![], truth: vec![0, 1, 2] };
        let cfg = InteractiveConfig { rounds: 3, ..Default::default() };
        let outcome =
            run_interactive(&data.graph, &TickingScorer { clock: fake }, &query, &cfg, 7);
        // `reset()` is a no-op without the `enabled` feature, so restore
        // the monotonic wall clock by hand.
        clock::set_wall(Arc::new(MonotonicClock::new()));

        assert_eq!(outcome.seconds_per_round.len(), 3);
        for s in &outcome.seconds_per_round {
            assert!((s - 0.001).abs() < 1e-12, "round took {s}s on the fake clock");
        }
    }

    #[test]
    fn interactive_with_attributed_model() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let all = qgen::generate(&data, 30, 1, 2, AttrMode::FromCommunity, 6);
        let split = qdgnn_data::QuerySplit::new(all, 15, 8, 7);
        let trained = Trainer::new(TrainConfig { epochs: 15, ..TrainConfig::fast() }).train(
            AqdGnn::new(ModelConfig::fast(), t.d),
            &t,
            &split.train,
            &split.val,
        );
        let scorer = ModelScorer { model: &trained.model };
        let outcome = run_interactive(
            &data.graph,
            &scorer,
            &split.test[0],
            &InteractiveConfig::default(),
            2,
        );
        assert!((0.0..=1.0).contains(&outcome.final_f1()));
        assert!(outcome.avg_seconds() >= 0.0);
    }
}
