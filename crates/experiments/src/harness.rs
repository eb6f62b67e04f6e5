//! Shared experiment plumbing: dataset preparation, model training
//! wrappers, query timing.

use qdgnn_core::models::{AqdGnn, QdGnn, SimpleQdGnn};
use qdgnn_core::train::{TrainedModel, Trainer};
use qdgnn_core::{CsModel, GraphTensors, OnlineStage};
use qdgnn_data::queries::{generate_bases, materialize, QueryBase};
use qdgnn_data::{AttrMode, Dataset, Query, QuerySplit};
use qdgnn_graph::{CommunityMetrics, VertexId};

use crate::profile::RunConfig;

/// A dataset with its tensors and reusable query skeletons (§7.1.3:
/// vertex sets are shared across the EmA/AFC/AFN regimes).
pub struct DatasetContext {
    /// The dataset.
    pub dataset: Dataset,
    /// Query-independent tensors.
    pub tensors: GraphTensors,
    /// Multi-vertex (1–3) query skeletons.
    pub bases_multi: Vec<QueryBase>,
    /// Single-vertex query skeletons (for the ACQ comparison, §7.2.2).
    pub bases_single: Vec<QueryBase>,
}

impl DatasetContext {
    /// Generates tensors and query skeletons for `dataset`.
    pub fn prepare(dataset: Dataset, run: &RunConfig) -> Self {
        let mc = run.profile.model_config(run.seed);
        let tensors = GraphTensors::new(&dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap);
        let (total, ..) = run.profile.query_counts();
        let bases_multi = generate_bases(&dataset, total, 1, 3, run.seed);
        let bases_single = generate_bases(&dataset, total, 1, 1, run.seed ^ 0x51);
        DatasetContext { dataset, tensors, bases_multi, bases_single }
    }

    /// Materializes + splits the multi-vertex skeletons under `mode`.
    pub fn split_multi(&self, mode: AttrMode, run: &RunConfig) -> QuerySplit {
        let (_, train, val, test) = run.profile.query_counts();
        QuerySplit::new(materialize(&self.dataset, &self.bases_multi, mode), train, val, test)
    }

    /// Materializes + splits the single-vertex skeletons under `mode`.
    pub fn split_single(&self, mode: AttrMode, run: &RunConfig) -> QuerySplit {
        let (_, train, val, test) = run.profile.query_counts();
        QuerySplit::new(materialize(&self.dataset, &self.bases_single, mode), train, val, test)
    }
}

/// Trains a Simple QD-GNN on the split.
pub fn train_simple(ctx: &DatasetContext, run: &RunConfig, split: &QuerySplit) -> TrainedModel<SimpleQdGnn> {
    let model = SimpleQdGnn::new(run.profile.model_config(run.seed));
    Trainer::new(run.profile.train_config(run.seed)).train(
        model,
        &ctx.tensors,
        &split.train,
        &split.val,
    )
}

/// Trains a QD-GNN on the split.
pub fn train_qd(ctx: &DatasetContext, run: &RunConfig, split: &QuerySplit) -> TrainedModel<QdGnn> {
    let model = QdGnn::new(run.profile.model_config(run.seed), ctx.tensors.d);
    Trainer::new(run.profile.train_config(run.seed)).train(
        model,
        &ctx.tensors,
        &split.train,
        &split.val,
    )
}

/// Trains an AQD-GNN on the split.
pub fn train_aqd(ctx: &DatasetContext, run: &RunConfig, split: &QuerySplit) -> TrainedModel<AqdGnn> {
    let model = AqdGnn::new(run.profile.model_config(run.seed), ctx.tensors.d);
    Trainer::new(run.profile.train_config(run.seed)).train(
        model,
        &ctx.tensors,
        &split.train,
        &split.val,
    )
}

/// Test-set micro-F1 of a trained model through the served online stage.
pub fn model_test_f1(
    model: &dyn CsModel,
    tensors: &GraphTensors,
    test: &[Query],
    gamma: f32,
) -> f64 {
    OnlineStage::new(model, tensors, gamma).evaluate(test).f1
}

/// Micro-F1 of arbitrary predictions against the queries' ground truth.
pub fn micro_f1(predicted: &[Vec<VertexId>], queries: &[Query]) -> f64 {
    let truth: Vec<Vec<VertexId>> = queries.iter().map(|q| q.truth.clone()).collect();
    CommunityMetrics::micro(predicted, &truth).f1
}

/// Runs `f` once per query, returning `(avg_milliseconds, predictions)`.
pub fn time_queries(
    queries: &[Query],
    mut f: impl FnMut(&Query) -> Vec<VertexId>,
) -> (f64, Vec<Vec<VertexId>>) {
    let mut predictions = Vec::with_capacity(queries.len());
    // Injectable obs wall clock, not Instant (QD007): fake-clock tests
    // can pin these timings.
    let start_us = qdgnn_obs::clock::wall_micros();
    for q in queries {
        predictions.push(f(q));
    }
    let total_ms =
        qdgnn_obs::clock::wall_micros().saturating_sub(start_us) as f64 / 1e3;
    (total_ms / queries.len().max(1) as f64, predictions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    fn fast_run() -> RunConfig {
        RunConfig { profile: Profile::Fast, ..Default::default() }
    }

    #[test]
    fn context_preparation_shares_vertex_sets() {
        let run = fast_run();
        let ctx = DatasetContext::prepare(qdgnn_data::presets::toy(), &run);
        let ema = ctx.split_multi(AttrMode::Empty, &run);
        let afc = ctx.split_multi(AttrMode::FromCommunity, &run);
        assert_eq!(ema.test[0].vertices, afc.test[0].vertices);
        assert!(afc.test[0].attrs.len() <= 5 && !afc.test[0].attrs.is_empty());
        let single = ctx.split_single(AttrMode::FromNode, &run);
        assert!(single.test.iter().all(|q| q.vertices.len() == 1));
    }

    #[test]
    fn time_queries_counts_all() {
        let queries: Vec<Query> = (0..3)
            .map(|i| Query { vertices: vec![i], attrs: vec![], truth: vec![i] })
            .collect();
        let (avg_ms, preds) = time_queries(&queries, |q| q.vertices.clone());
        assert_eq!(preds.len(), 3);
        assert!(avg_ms >= 0.0);
        assert!((micro_f1(&preds, &queries) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_queries_on_fake_clock_is_exact() {
        use qdgnn_obs::clock::{self, FakeClock, MonotonicClock};
        use std::sync::Arc;

        let fake = Arc::new(FakeClock::new());
        clock::set_wall(fake.clone());
        let queries: Vec<Query> = (0..4)
            .map(|i| Query { vertices: vec![i], attrs: vec![], truth: vec![i] })
            .collect();
        let (avg_ms, preds) = time_queries(&queries, |q| {
            fake.advance_micros(2_000);
            q.vertices.clone()
        });
        // `reset()` is a no-op without the `enabled` feature, so restore
        // the monotonic wall clock by hand.
        clock::set_wall(Arc::new(MonotonicClock::new()));
        assert_eq!(preds.len(), 4);
        assert!((avg_ms - 2.0).abs() < 1e-12, "avg {avg_ms}ms on the fake clock");
    }
}
