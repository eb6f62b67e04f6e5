//! QD-GNN (§5.2, Algorithm 2): Query Encoder + Graph Encoder + Feature
//! Fusion.
//!
//! * The **Query Encoder** (Eq. 4/8) takes the one-hot query vector and
//!   propagates it over the structure graph; from the second layer on it
//!   aggregates the *fused* features (Eq. 7) so vertex attributes and
//!   global structure reach the query neighbourhood.
//! * The **Graph Encoder** (Eq. 5) propagates the normalized attribute
//!   matrix; it never consumes fused features, staying query-independent.
//! * **Feature Fusion** (Eq. 6) concatenates the two branch outputs; the
//!   final fused features feed a 1-unit output head producing per-vertex
//!   logits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdgnn_nn::{BatchNorm1d, Dropout, Mode};
use qdgnn_tensor::{Dense, ParamId, ParamStore, Tape};

use super::blocks::{
    EncoderLayer, EvalExec, Exec, FeatureInput, ForwardCtx, FusionOp, GraphEncoder, OutputHead,
    Post, Val,
};
use super::{CsModel, ForwardResult, GraphCache};
use crate::config::{FusionAgg, ModelConfig};
use crate::inputs::{GraphTensors, QueryBatch, QueryVectors};

/// The QD-GNN model of §5.2.
pub struct QdGnn {
    config: ModelConfig,
    store: ParamStore,
    bns: Vec<BatchNorm1d>,
    q_layers: Vec<EncoderLayer>,
    graph: GraphEncoder,
    fusions: Vec<FusionOp>,
    head: OutputHead,
}

impl QdGnn {
    /// Builds QD-GNN for a graph with attribute vocabulary size
    /// `attr_dim` (the Graph Encoder's first-layer input width).
    pub fn new(config: ModelConfig, attr_dim: usize) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let mut bns = Vec::new();
        let k = config.layers;
        let h = config.hidden;
        let fused = config.fused_width(2);

        let post = |store: &mut ParamStore, bns: &mut Vec<BatchNorm1d>, l: usize, tag: &str| {
            if l + 1 < k {
                let idx = bns.len();
                bns.push(BatchNorm1d::new(store, &format!("qdgnn.{tag}{l}.bn"), h));
                Post::Full(idx)
            } else {
                Post::None
            }
        };

        let mut q_layers = Vec::with_capacity(k);
        let mut g_layers = Vec::with_capacity(k);
        for l in 0..k {
            let q_self = if l == 0 { 1 } else { h };
            let q_agg = if l == 0 {
                1
            } else if config.feature_fusion {
                fused
            } else {
                h
            };
            let p = post(&mut store, &mut bns, l, "q");
            q_layers.push(EncoderLayer::new(
                &mut store,
                &format!("qdgnn.q{l}"),
                Some(q_self),
                q_agg,
                h,
                p,
                &mut rng,
            ));
            let g_in = if l == 0 { attr_dim } else { h };
            let p = post(&mut store, &mut bns, l, "g");
            g_layers.push(EncoderLayer::new(
                &mut store,
                &format!("qdgnn.g{l}"),
                Some(g_in),
                g_in,
                h,
                p,
                &mut rng,
            ));
        }
        let fusions: Vec<FusionOp> = (0..k)
            .map(|l| {
                FusionOp::new(&mut store, &format!("qdgnn.fuse{l}"), config.fusion, 2, h, &mut rng)
            })
            .collect();
        let head = OutputHead::new(&mut store, "qdgnn", fused, &mut rng);
        let graph = GraphEncoder::new(g_layers);
        QdGnn { config, store, bns, q_layers, graph, fusions, head }
    }

    /// Runs the query-dependent part given the (possibly batch-stacked)
    /// query one-hot `qv` and per-layer Graph Encoder outputs (freshly
    /// computed or cached): the model's one forward body, recorded on a
    /// tape or run by the eval executor.
    fn query_branch_and_head<E: Exec>(
        &self,
        ex: &mut E,
        inputs: &GraphTensors,
        qv: E::V,
        g: &[E::V],
    ) -> E::V {
        use FeatureInput::Dense as In;
        let adj = (&inputs.adj, &inputs.adj_t);
        // Layer 1 (Algorithm 2, lines 6–8).
        let mut q = ex.layer(&self.q_layers[0], In(&qv), In(&qv), adj);
        let mut ff = ex.fuse(&self.fusions[0], &[g[0].clone(), q.clone()]);
        // Intermediate + final layers (lines 10–14).
        for (l, (layer, fusion)) in self.q_layers.iter().zip(&self.fusions).enumerate().skip(1) {
            let q_agg = if self.config.feature_fusion { &ff } else { &q };
            q = ex.layer(layer, In(&q), In(q_agg), adj);
            ff = ex.fuse(fusion, &[g[l].clone(), q.clone()]);
        }
        ex.head(&self.head, &ff)
    }

    /// Every weight that consumes a concatenated fused feature, with the
    /// layer it consumes: the products whose Graph Encoder share the
    /// cache keeps.
    fn concat_consumers(&self) -> Vec<(usize, ParamId)> {
        if self.config.fusion != FusionAgg::Concat {
            return Vec::new();
        }
        let last = self.config.layers - 1;
        let mut consumers = vec![(last, self.head.weight())];
        if self.config.feature_fusion {
            consumers.extend((0..last).map(|l| (l, self.q_layers[l + 1].w_agg())));
        }
        consumers
    }
}

impl CsModel for QdGnn {
    fn name(&self) -> &'static str {
        "QD-GNN"
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn bns(&self) -> &[BatchNorm1d] {
        &self.bns
    }

    fn bns_mut(&mut self) -> &mut [BatchNorm1d] {
        &mut self.bns
    }

    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        query: &QueryVectors,
        mode: Mode,
        rng: &mut StdRng,
    ) -> ForwardResult {
        let mut ctx = ForwardCtx::new(
            tape,
            &self.store,
            &self.bns,
            mode,
            Dropout::new(self.config.dropout),
            rng,
        );
        let g = self.graph.forward(&mut ctx, inputs);
        let qv = ctx.tape.constant(query.vertex_onehot.clone());
        let logits = self.query_branch_and_head(&mut ctx, inputs, qv, &g);
        ForwardResult { logits, leaves: ctx.leaves, bn_stats: ctx.stats }
    }

    fn build_graph_cache(&self, inputs: &GraphTensors) -> Option<GraphCache> {
        let consumers = self.concat_consumers();
        Some(self.graph.build_cache(&self.store, &self.bns, inputs, &consumers))
    }

    fn forward_batched_eval(
        &self,
        inputs: &GraphTensors,
        cache: &GraphCache,
        batch: &QueryBatch,
    ) -> Dense {
        assert_eq!(cache.layers.len(), self.config.layers, "cache layer-count mismatch");
        let mut ex = EvalExec::new(&self.store, &self.bns, cache, batch.len());
        let g = ex.graph();
        let logits =
            self.query_branch_and_head(&mut ex, inputs, Val::Input(&batch.vertex_onehot), &g);
        ex.take_rows(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FusionAgg;
    use crate::models::predict_scores;
    use qdgnn_data::presets;
    use qdgnn_graph::attributed::AdjNorm;

    fn setup() -> (GraphTensors, qdgnn_data::Dataset) {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        (t, data)
    }

    #[test]
    fn forward_shapes_and_scores() {
        let (t, data) = setup();
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let q = QueryVectors::encode(t.n, t.d, &data.communities[1][..2], &[]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn nofu_variant_builds_and_runs() {
        let (t, _) = setup();
        let cfg = ModelConfig { feature_fusion: false, ..ModelConfig::fast() };
        let model = QdGnn::new(cfg, t.d);
        let q = QueryVectors::encode(t.n, t.d, &[0], &[]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
    }

    #[test]
    fn sum_fusion_variant_builds_and_runs() {
        let (t, _) = setup();
        let cfg = ModelConfig { fusion: FusionAgg::Sum, ..ModelConfig::fast() };
        let model = QdGnn::new(cfg, t.d);
        let q = QueryVectors::encode(t.n, t.d, &[2], &[]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
    }

    #[test]
    fn different_queries_produce_different_scores() {
        let (t, data) = setup();
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let q1 = QueryVectors::encode(t.n, t.d, &[data.communities[0][0]], &[]);
        let q2 = QueryVectors::encode(t.n, t.d, &[data.communities[2][0]], &[]);
        let s1 = predict_scores(&model, &t, &q1);
        let s2 = predict_scores(&model, &t, &q2);
        assert_ne!(s1, s2, "query-driven model must be query-sensitive");
    }

    #[test]
    fn cached_inference_matches_full_forward() {
        let (t, data) = setup();
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let cache = model.build_graph_cache(&t).expect("QD-GNN has a graph branch");
        assert_eq!(cache.layers.len(), model.config().layers);
        for q in 0..3u32 {
            let qv = QueryVectors::encode(t.n, t.d, &[data.communities[q as usize][0]], &[]);
            let full = predict_scores(&model, &t, &qv);
            let cached = crate::models::predict_scores_cached(&model, &t, &cache, &qv);
            assert_eq!(full, cached, "cached inference must be bit-identical");
        }
    }

    #[test]
    fn bn_count_matches_two_branches() {
        let (t, _) = setup();
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        // 3 layers → 2 hidden per branch → 4 BNs.
        assert_eq!(model.bns().len(), 4);
    }
}
