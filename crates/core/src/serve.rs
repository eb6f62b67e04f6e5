//! The online serving stage, packaged: a trained model, its graph
//! tensors, the selected threshold γ, and the precomputed
//! query-independent Graph Encoder cache.
//!
//! This is the deployment shape the paper's framework implies (§4.3):
//! training happened offline, and each arriving query costs one
//! query-branch inference plus a constrained BFS. Every answer the repo
//! computes comes from here: the serving engine, the CLI, training
//! validation's scores, the experiment tables and §7.4's per-candidate
//! answers. There is one inference
//! path: [`OnlineStage::try_query_batch`] stacks every valid query into a
//! single forward pass (one tape op per layer instead of one per query),
//! and [`OnlineStage::try_query`] is a batch of one. Every call records
//! the same spans — `serve.query` around `serve.encode` (per query),
//! `serve.forward` (the stacked pass) and `serve.bfs` (per query) — with
//! `serve.batch_size` carrying K.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::sync::Arc;

use qdgnn_data::Query;
use qdgnn_graph::{CommunityMetrics, VertexId};
use qdgnn_obs::clock::{Clock, MonotonicClock};

use crate::error::QdgnnError;
use crate::identify::identify_community;
use crate::inputs::{GraphTensors, QueryBatch, QueryVectors};
use crate::models::{predict_scores_batch, CsModel, GraphCache};

/// Exact per-phase timings for one [`OnlineStage::try_query_batch`]
/// call, measured against the caller-supplied [`Clock`] so the serving
/// engine can attribute batch cost back to individual requests (and
/// fake-clock tests can pin the attribution exactly). Unlike the span
/// instrumentation, these timings are recorded in every build.
pub struct BatchTiming {
    /// Microseconds the whole stacked forward pass took: validation,
    /// query encoding, stacking and batched scoring for every query in
    /// the batch.
    pub forward_us: u64,
    /// Per-query microseconds spent in community identification
    /// (constrained BFS plus extraction), in input order. Zero for
    /// queries whose forward pass failed.
    pub bfs_us: Vec<u64>,
}

/// Model handle held by an [`OnlineStage`]: borrowed from the caller or
/// shared via [`Arc`] (so the stage can be `'static` for worker threads).
enum ModelRef<'a> {
    Borrowed(&'a dyn CsModel),
    Shared(Arc<dyn CsModel>),
}

impl ModelRef<'_> {
    fn get(&self) -> &dyn CsModel {
        match self {
            ModelRef::Borrowed(m) => *m,
            ModelRef::Shared(m) => m.as_ref(),
        }
    }
}

/// Graph-tensor handle: borrowed or [`Arc`]-shared, like [`ModelRef`].
enum TensorsRef<'a> {
    Borrowed(&'a GraphTensors),
    Shared(Arc<GraphTensors>),
}

impl TensorsRef<'_> {
    fn get(&self) -> &GraphTensors {
        match self {
            TensorsRef::Borrowed(t) => t,
            TensorsRef::Shared(t) => t.as_ref(),
        }
    }
}

/// A ready-to-serve community-search endpoint.
pub struct OnlineStage<'a> {
    model: ModelRef<'a>,
    tensors: TensorsRef<'a>,
    cache: Option<GraphCache>,
    gamma: f32,
}

impl<'a> OnlineStage<'a> {
    /// Prepares serving state: precomputes the Graph Encoder cache when
    /// the model has a query-independent branch.
    pub fn new(model: &'a dyn CsModel, tensors: &'a GraphTensors, gamma: f32) -> Self {
        let cache = model.build_graph_cache(tensors);
        OnlineStage {
            model: ModelRef::Borrowed(model),
            tensors: TensorsRef::Borrowed(tensors),
            cache,
            gamma,
        }
    }

    /// Like [`OnlineStage::new`], but takes shared ownership of the model
    /// and tensors, producing a `'static` stage that worker threads can
    /// hold (the serving engine's deployment shape).
    pub fn new_shared(
        model: Arc<dyn CsModel>,
        tensors: Arc<GraphTensors>,
        gamma: f32,
    ) -> OnlineStage<'static> {
        let cache = model.build_graph_cache(&tensors);
        OnlineStage {
            model: ModelRef::Shared(model),
            tensors: TensorsRef::Shared(tensors),
            cache,
            gamma,
        }
    }

    fn model(&self) -> &dyn CsModel {
        self.model.get()
    }

    /// The graph tensors this stage serves against.
    pub fn tensors(&self) -> &GraphTensors {
        self.tensors.get()
    }

    /// The serving threshold γ.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Whether the Graph Encoder cache is active.
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// Per-vertex community scores `h_q` for a slice of queries, in one
    /// stacked forward pass. Every query vertex and attribute is checked
    /// against the served graph's dimensions, and a malformed query
    /// yields its own typed error without affecting the rest of the
    /// batch. Results are returned in input order.
    pub fn try_scores_batch(&self, queries: &[Query]) -> Vec<Result<Vec<f32>, QdgnnError>> {
        qdgnn_obs::observe("serve.batch_size", queries.len() as f64);
        let mut out: Vec<Result<Vec<f32>, QdgnnError>> = Vec::with_capacity(queries.len());
        let mut valid: Vec<usize> = Vec::with_capacity(queries.len());
        let mut vectors: Vec<QueryVectors> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let encoded = {
                let _s = qdgnn_obs::span!("serve.encode");
                try_encode_query(self.model(), self.tensors(), q)
            };
            match encoded {
                Ok(qv) => {
                    valid.push(i);
                    vectors.push(qv);
                    // placeholder, overwritten from the batch result below
                    out.push(Err(QdgnnError::EmptyQuery));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        if vectors.is_empty() {
            return out;
        }
        let _s = qdgnn_obs::span!("serve.forward");
        let batch = match QueryBatch::try_stack(&vectors) {
            Ok(b) => b,
            Err(e) => {
                // Stacking only fails on shape mismatches, which encoding
                // against one graph rules out — but never panic in serving.
                let msg = e.to_string();
                for &i in &valid {
                    if let Some(slot) = out.get_mut(i) {
                        *slot = Err(QdgnnError::invalid(msg.clone()));
                    }
                }
                return out;
            }
        };
        // Chaos injection point: fire any armed serve-path fault exactly
        // where a crashing model forward fails in production — after
        // validation and stacking, before the forward pass.
        #[cfg(feature = "chaos")]
        crate::faultless::serve_forward_hook();
        let scores =
            predict_scores_batch(self.model(), self.tensors(), self.cache.as_ref(), &batch);
        for (&i, s) in valid.iter().zip(scores) {
            if let Some(slot) = out.get_mut(i) {
                *slot = Ok(s);
            }
        }
        out
    }

    /// Full online answer for one untrusted query: a batch of one through
    /// [`OnlineStage::try_query_batch`]. Malformed queries surface as
    /// [`QdgnnError`] values, never panics.
    pub fn try_query(&self, query: &Query) -> Result<Vec<VertexId>, QdgnnError> {
        let clock = MonotonicClock::new();
        let (results, _) = self.try_query_batch(std::slice::from_ref(query), &clock);
        // One query in, one result out.
        results.into_iter().next().unwrap_or(Err(QdgnnError::EmptyQuery))
    }

    /// Full online answers (Algorithm 1, on the fusion graph for
    /// attributed queries): one stacked forward pass for every valid
    /// query, then a per-query constrained BFS. Per-query error isolation
    /// and input-order results, like [`OnlineStage::try_scores_batch`].
    ///
    /// Also returns an exact phase breakdown read from `clock`: how long
    /// the stacked forward pass took and how long each query's BFS took.
    /// The serving engine passes its own injected clock so per-request
    /// attribution sums exactly even under a fake clock.
    pub fn try_query_batch(
        &self,
        queries: &[Query],
        clock: &dyn Clock,
    ) -> (Vec<Result<Vec<VertexId>, QdgnnError>>, BatchTiming) {
        let _query_span = qdgnn_obs::span!("serve.query");
        qdgnn_obs::counter("serve.queries").inc_by(queries.len() as u64);
        let t0 = clock.now_micros();
        let scores = self.try_scores_batch(queries);
        let forward_us = clock.now_micros().saturating_sub(t0);
        let mut bfs_us = Vec::with_capacity(queries.len());
        let mut out = Vec::with_capacity(queries.len());
        for (res, q) in scores.into_iter().zip(queries) {
            let b0 = clock.now_micros();
            let r = res.map(|s| self.identify(q, &s));
            bfs_us.push(clock.now_micros().saturating_sub(b0));
            out.push(r);
        }
        (out, BatchTiming { forward_us, bfs_us })
    }

    /// The post-inference community-identification step (constrained BFS
    /// plus community-size accounting), shared by all query entry points.
    fn identify(&self, query: &Query, scores: &[f32]) -> Vec<VertexId> {
        let community = {
            let _s = qdgnn_obs::span!("serve.bfs");
            identify_query(self.model(), self.tensors(), query, scores, self.gamma)
        };
        qdgnn_obs::observe("serve.community_size", community.len() as f64);
        community
    }

    /// Evaluates the endpoint over a query set (micro metrics), scoring
    /// the queries through the batched path in chunks of
    /// [`OnlineStage::EVAL_CHUNK`].
    ///
    /// # Panics
    /// Panics on malformed queries (evaluation sets are trusted input).
    pub fn evaluate(&self, queries: &[Query]) -> CommunityMetrics {
        let clock = MonotonicClock::new();
        let predicted: Vec<Vec<VertexId>> = queries
            .chunks(Self::EVAL_CHUNK.max(1))
            .flat_map(|chunk| self.try_query_batch(chunk, &clock).0)
            .map(|r| match r {
                Ok(c) => c,
                #[expect(
                    clippy::panic,
                    reason = "documented trusted-input variant; untrusted queries go through try_query_batch"
                )]
                Err(e) => panic!("invalid query in evaluation set: {e}"),
            })
            .collect();
        let truth: Vec<Vec<VertexId>> = queries.iter().map(|q| q.truth.clone()).collect();
        CommunityMetrics::micro(&predicted, &truth)
    }

    /// Batch-chunk size used by [`OnlineStage::evaluate`]: bounds the
    /// stacked working set while keeping the per-layer amortization.
    pub const EVAL_CHUNK: usize = 32;
}

/// Encodes `query` for `model` against the graph of `t`, the one place
/// the EmA rule lives: a model that does not consume attributes sees
/// none, yet every attribute id is still checked, since an out-of-range
/// id means the query was built against a different graph. Malformed
/// queries surface as [`QdgnnError`] values, never panics.
pub(crate) fn try_encode_query(
    model: &dyn CsModel,
    t: &GraphTensors,
    query: &Query,
) -> Result<QueryVectors, QdgnnError> {
    if let Some(&a) = query.attrs.iter().find(|&&a| (a as usize) >= t.d) {
        return Err(QdgnnError::AttrOutOfRange { attr: a, d: t.d });
    }
    let attrs: &[u32] = if model.uses_attributes() { &query.attrs } else { &[] };
    QueryVectors::try_encode(t.n, t.d, &query.vertices, attrs)
}

/// Community identification from `query`'s scores at threshold `gamma`
/// (§4.3, §6.6): the constrained BFS walks the fusion graph when the model
/// consumes attributes and the query carries some, the structure graph
/// otherwise.
pub(crate) fn identify_query(
    model: &dyn CsModel,
    t: &GraphTensors,
    query: &Query,
    scores: &[f32],
    gamma: f32,
) -> Vec<VertexId> {
    let attributed = model.uses_attributes() && !query.attrs.is_empty();
    identify_community(t, &query.vertices, scores, gamma, attributed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::models::{AqdGnn, QdGnn, SimpleQdGnn};
    use crate::train::{predict_community, TrainConfig, Trainer};
    use qdgnn_data::{presets, queries as qgen, AttrMode, QuerySplit};
    use qdgnn_graph::attributed::AdjNorm;

    #[test]
    fn cached_serving_matches_uncached_pipeline() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let queries = qgen::generate(&data, 40, 1, 2, AttrMode::FromCommunity, 8);
        let split = QuerySplit::new(queries, 20, 10, 10);
        let models: Vec<(Box<dyn CsModel>, bool)> = vec![
            (Box::new(SimpleQdGnn::new(ModelConfig::fast())), false),
            (Box::new(QdGnn::new(ModelConfig::fast(), t.d)), true),
            (Box::new(AqdGnn::new(ModelConfig::fast(), t.d)), true),
        ];
        for (model, has_graph_branch) in models {
            let trained = Trainer::new(TrainConfig { epochs: 15, ..TrainConfig::fast() }).train(
                model,
                &t,
                &split.train,
                &split.val,
            );
            let stage = OnlineStage::new(&trained.model, &t, trained.gamma);
            assert_eq!(stage.is_cached(), has_graph_branch);
            for q in &split.test {
                assert_eq!(
                    stage.try_query(q).expect("test query is valid"),
                    predict_community(&trained.model, &t, q, trained.gamma),
                    "{}: cached endpoint must agree with the reference pipeline",
                    trained.model.name()
                );
            }
            let m = stage.evaluate(&split.test);
            assert!((0.0..=1.0).contains(&m.f1));
        }
    }

    #[test]
    fn try_query_rejects_malformed_queries_without_panicking() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let stage = OnlineStage::new(&model, &t, 0.5);
        let good = qgen::generate(&data, 1, 1, 1, AttrMode::FromCommunity, 3).remove(0);
        assert!(stage.try_query(&good).is_ok());

        let bad_vertex = Query { vertices: vec![t.n as u32 + 7], ..good.clone() };
        assert!(matches!(
            stage.try_query(&bad_vertex),
            Err(crate::error::QdgnnError::VertexOutOfRange { .. })
        ));
        let bad_attr = Query { attrs: vec![t.d as u32], ..good.clone() };
        assert!(matches!(
            stage.try_query(&bad_attr),
            Err(crate::error::QdgnnError::AttrOutOfRange { .. })
        ));
        let empty = Query { vertices: vec![], ..good.clone() };
        assert!(matches!(stage.try_query(&empty), Err(crate::error::QdgnnError::EmptyQuery)));
        // The stage must stay serviceable after rejecting bad input.
        assert!(stage.try_query(&good).is_ok());
    }

    #[test]
    fn non_attributed_model_still_validates_attr_ids() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = SimpleQdGnn::new(ModelConfig::fast());
        let stage = OnlineStage::new(&model, &t, 0.5);
        let q = Query {
            vertices: vec![0],
            attrs: vec![t.d as u32 + 1],
            truth: vec![0],
        };
        assert!(matches!(
            stage.try_query(&q),
            Err(crate::error::QdgnnError::AttrOutOfRange { .. })
        ));
    }

    #[test]
    fn simple_model_serves_without_cache() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = SimpleQdGnn::new(ModelConfig::fast());
        let stage = OnlineStage::new(&model, &t, 0.5);
        assert!(!stage.is_cached());
        let q = qgen::generate(&data, 1, 1, 1, AttrMode::Empty, 1).remove(0);
        let c = stage.try_query(&q).expect("test query is valid");
        assert!(c.contains(&q.vertices[0]));
    }

    #[test]
    fn batch_results_are_bit_identical_and_error_isolated() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let stage = OnlineStage::new(&model, &t, 0.5);
        let mut queries = qgen::generate(&data, 6, 1, 2, AttrMode::FromCommunity, 5);
        // Plant malformed queries in the middle of the batch.
        queries.insert(2, Query { vertices: vec![], attrs: vec![], truth: vec![] });
        queries.insert(4, Query { vertices: vec![t.n as u32], attrs: vec![], truth: vec![] });
        let batch = stage.try_scores_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, res) in queries.iter().zip(&batch) {
            match res {
                Ok(scores) => {
                    let seq = stage.try_scores_batch(std::slice::from_ref(q)).remove(0).unwrap();
                    let same = scores
                        .iter()
                        .zip(&seq)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "batched scores must be bit-identical to sequential");
                }
                Err(e) => assert!(e.is_bad_input(), "unexpected batch error: {e}"),
            }
        }
        assert!(batch[2].is_err() && batch[4].is_err());
        assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 6);

        let (communities, _) = stage.try_query_batch(&queries, &MonotonicClock::new());
        for (q, res) in queries.iter().zip(&communities) {
            match res {
                Ok(c) => assert_eq!(c, &stage.try_query(q).unwrap()),
                Err(e) => assert!(e.is_bad_input()),
            }
        }
    }

    #[test]
    fn shared_stage_is_static_and_matches_borrowed() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let q = qgen::generate(&data, 1, 1, 1, AttrMode::FromCommunity, 3).remove(0);
        let borrowed = OnlineStage::new(&model, &t, 0.5);
        let expect = borrowed.try_scores_batch(std::slice::from_ref(&q)).remove(0).unwrap();

        let shared: OnlineStage<'static> =
            OnlineStage::new_shared(Arc::new(model), Arc::new(t), 0.5);
        fn assert_static<T: 'static + Send + Sync>(_: &T) {}
        assert_static(&shared);
        let got = shared.try_scores_batch(std::slice::from_ref(&q)).remove(0).unwrap();
        assert_eq!(
            expect.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }
}
