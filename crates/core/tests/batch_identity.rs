//! The serving inference path must be bit-identical to the reference
//! forward pass.
//!
//! Serving stacks `K` encoded queries vertically and runs one tape-free
//! forward pass over the cached Graph Encoder output (a single query is
//! a batch of one): fused kernels whose epilogues replace the tape's
//! elementwise ops, the block-diagonal SpMM, and — under concatenation
//! fusion — products that continue from the cached Graph Encoder share.
//! These tests pin the resulting guarantee — per-query scores from
//! `predict_scores_batch` carry the exact bits of `predict_scores`, the
//! eval-mode tape forward — across all three models, every fusion
//! variant, with and without a cache, untrained and trained, for fixed
//! and property-sampled batch sizes including K=1.

use std::sync::Arc;

use proptest::prelude::*;

use qdgnn_core::config::{FusionAgg, ModelConfig};
use qdgnn_core::inputs::{GraphTensors, QueryBatch, QueryVectors};
use qdgnn_core::models::{
    predict_scores, predict_scores_batch, AqdGnn, CsModel, QdGnn, SimpleQdGnn,
};
use qdgnn_core::{OnlineStage, TrainConfig, Trainer};
use qdgnn_data::{presets, queries as qgen, AttrMode, Query, QuerySplit};
use qdgnn_graph::attributed::AdjNorm;
use qdgnn_graph::CommunityMetrics;

fn setup() -> (GraphTensors, Vec<Query>) {
    let data = presets::toy();
    let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
    let queries = qgen::generate(&data, 32, 1, 3, AttrMode::FromCommunity, 11);
    (t, queries)
}

fn models(d: usize) -> Vec<Box<dyn CsModel>> {
    vec![
        Box::new(SimpleQdGnn::new(ModelConfig::fast())),
        Box::new(QdGnn::new(ModelConfig::fast(), d)),
        Box::new(AqdGnn::new(ModelConfig::fast(), d)),
    ]
}

fn encode_all(model: &dyn CsModel, t: &GraphTensors, queries: &[Query]) -> Vec<QueryVectors> {
    queries
        .iter()
        .map(|q| {
            let attrs: &[u32] = if model.uses_attributes() { &q.attrs } else { &[] };
            QueryVectors::try_encode(t.n, t.d, &q.vertices, attrs).expect("generated query encodes")
        })
        .collect()
}

/// Asserts `predict_scores_batch` == the reference `predict_scores`, bit
/// for bit, for the given queries, with and without the graph cache.
fn assert_batch_matches_sequential(model: &dyn CsModel, t: &GraphTensors, queries: &[Query]) {
    let vectors = encode_all(model, t, queries);
    let batch = QueryBatch::try_stack(&vectors).expect("same-graph vectors stack");
    let cache = model.build_graph_cache(t);

    let batched_uncached = predict_scores_batch(model, t, None, &batch);
    assert_eq!(batched_uncached.len(), queries.len());
    for (qv, got) in vectors.iter().zip(&batched_uncached) {
        let want = predict_scores(model, t, qv);
        assert_eq!(
            want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "{} ({:?}, feature fusion {}): uncached batch diverged from the tape reference",
            model.name(),
            model.config().fusion,
            model.config().feature_fusion
        );
    }

    if let Some(cache) = cache {
        let batched_cached = predict_scores_batch(model, t, Some(&cache), &batch);
        for (qv, got) in vectors.iter().zip(&batched_cached) {
            let want = predict_scores(model, t, qv);
            assert_eq!(
                want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "{} ({:?}, feature fusion {}): cached batch diverged from the tape reference",
                model.name(),
                model.config().fusion,
                model.config().feature_fusion
            );
        }
    }
}

#[test]
fn all_models_are_bit_identical_at_fixed_batch_sizes() {
    let (t, queries) = setup();
    for model in models(t.d) {
        for k in [1usize, 2, 5, 8, 16] {
            assert_batch_matches_sequential(model.as_ref(), &t, &queries[..k]);
        }
    }
}

/// The fusion variants beside `fast()`'s concatenation with feature
/// fusion: each takes its own branch of the eval executor.
fn fusion_variants() -> Vec<ModelConfig> {
    let fast = ModelConfig::fast();
    vec![
        ModelConfig { fusion: FusionAgg::Sum, ..fast.clone() },
        ModelConfig { fusion: FusionAgg::Attention, ..fast.clone() },
        ModelConfig { feature_fusion: false, ..fast.clone() },
        ModelConfig { fusion: FusionAgg::Sum, feature_fusion: false, ..fast },
    ]
}

#[test]
fn fusion_variants_are_bit_identical_at_k1_and_k16() {
    let (t, queries) = setup();
    for config in fusion_variants() {
        let models: Vec<Box<dyn CsModel>> =
            vec![Box::new(QdGnn::new(config.clone(), t.d)), Box::new(AqdGnn::new(config, t.d))];
        for model in &models {
            for k in [1, 16] {
                assert_batch_matches_sequential(model.as_ref(), &t, &queries[..k]);
            }
        }
    }
}

#[test]
fn trained_qdgnn_preserves_bit_identity() {
    let (t, queries) = setup();
    let split = QuerySplit::new(queries, 16, 8, 8);
    let trained = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::fast() }).train(
        QdGnn::new(ModelConfig::fast(), t.d),
        &t,
        &split.train,
        &split.val,
    );
    assert_batch_matches_sequential(&trained.model, &t, &split.test);
}

#[test]
fn trained_weights_preserve_bit_identity() {
    // Random init exercises the math, but serving happens on trained
    // weights — BN running stats and a selected γ included.
    let (t, queries) = setup();
    let split = QuerySplit::new(queries, 16, 8, 8);
    let trained = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::fast() }).train(
        AqdGnn::new(ModelConfig::fast(), t.d),
        &t,
        &split.train,
        &split.val,
    );
    assert_batch_matches_sequential(&trained.model, &t, &split.test);
}

#[test]
fn evaluate_through_batched_path_reproduces_sequential_f1() {
    // `OnlineStage::evaluate` now scores through try_query_batch in
    // chunks; the micro-F1 must carry the exact value of the sequential
    // path (scores are bit-identical, so communities are equal).
    let (t, queries) = setup();
    let split = QuerySplit::new(queries, 16, 8, 8);
    let trained = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::fast() }).train(
        AqdGnn::new(ModelConfig::fast(), t.d),
        &t,
        &split.train,
        &split.val,
    );
    let stage = OnlineStage::new(&trained.model, &t, trained.gamma);
    let batched = stage.evaluate(&split.test);

    let predicted: Vec<Vec<_>> = split
        .test
        .iter()
        .map(|q| stage.try_query(q).expect("test query is valid"))
        .collect();
    let truth: Vec<Vec<_>> = split.test.iter().map(|q| q.truth.clone()).collect();
    let sequential = CommunityMetrics::micro(&predicted, &truth);
    assert_eq!(batched.f1.to_bits(), sequential.f1.to_bits());
    assert_eq!(batched.precision.to_bits(), sequential.precision.to_bits());
    assert_eq!(batched.recall.to_bits(), sequential.recall.to_bits());
}

#[test]
fn chunked_evaluate_crosses_chunk_boundaries_cleanly() {
    // A query set larger than EVAL_CHUNK forces multiple batches.
    let data = presets::toy();
    let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
    let queries = qgen::generate(&data, OnlineStage::EVAL_CHUNK + 7, 1, 2, AttrMode::Empty, 3);
    let model = QdGnn::new(ModelConfig::fast(), t.d);
    let stage = OnlineStage::new(&model, &t, 0.5);
    let m = stage.evaluate(&queries);
    assert!((0.0..=1.0).contains(&m.f1));
}

#[test]
fn shared_stage_batches_identically_to_borrowed() {
    let (t, queries) = setup();
    let model = AqdGnn::new(ModelConfig::fast(), t.d);
    let borrowed = OnlineStage::new(&model, &t, 0.5);
    let want: Vec<_> = borrowed.try_scores_batch(&queries[..6]);

    let t2 = {
        let data = presets::toy();
        GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100)
    };
    let shared = OnlineStage::new_shared(Arc::new(model), Arc::new(t2), 0.5);
    let got = shared.try_scores_batch(&queries[..6]);
    for (w, g) in want.iter().zip(&got) {
        let (w, g) = (w.as_ref().expect("valid"), g.as_ref().expect("valid"));
        assert_eq!(
            w.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            g.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_batch_sizes_stay_bit_identical(k in 1usize..12, offset in 0usize..20, seed in 0u64..1000) {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let queries = qgen::generate(&data, 32, 1, 3, AttrMode::FromCommunity, seed);
        let end = (offset + k).min(queries.len());
        let slice = &queries[offset.min(queries.len() - 1)..end.max(offset.min(queries.len() - 1) + 1)];
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        assert_batch_matches_sequential(&model, &t, slice);
    }

    #[test]
    fn random_batch_sizes_without_attributes(k in 1usize..10, seed in 0u64..1000) {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let queries = qgen::generate(&data, 16, 1, 2, AttrMode::Empty, seed);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        assert_batch_matches_sequential(&model, &t, &queries[..k.min(queries.len())]);
    }
}
