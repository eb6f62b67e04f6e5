//! AQD-GNN (§6, Algorithm 3): QD-GNN plus the bipartite Attribute
//! Encoder for attributed community search.
//!
//! The Attribute Encoder runs a bipartite GNN (Eq. 9/10) over the
//! node–attribute incidence `B`:
//!
//! * **A→N** (Eq. 9): node-side features are the bipartite aggregation of
//!   attribute-side features — in the first layer the attribute side *is*
//!   the one-hot query attribute vector `f_q`, which is how the model
//!   ingests attributed queries;
//! * **N→A** (Eq. 10): attribute-side features are refreshed from the
//!   node side with self-feature modelling; with feature fusion enabled
//!   the node-side input is the fused feature `h_FF` (Eq. 12), coupling
//!   structure and attribute learning.
//!
//! Feature Fusion (Eq. 11) concatenates Graph, Query and Attribute
//! encoder outputs each layer.

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

/// The AQD-GNN model of §6.
pub struct AqdGnn {
    config: ModelConfig,
    store: ParamStore,
    bns: Vec<BatchNorm1d>,
    q_layers: Vec<EncoderLayer>,
    graph: GraphEncoder,
    /// A→N propagations (Eq. 9), one per layer.
    an_layers: Vec<EncoderLayer>,
    /// N→A attribute-side updates (Eq. 10), layers 2..k.
    na_layers: Vec<EncoderLayer>,
    fusions: Vec<FusionOp>,
    head: OutputHead,
}

impl AqdGnn {
    /// Builds AQD-GNN for a graph with attribute vocabulary size
    /// `attr_dim`.
    pub fn new(config: ModelConfig, attr_dim: usize) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let mut bns = Vec::new();
        let k = config.layers;
        let h = config.hidden;
        let fused = config.fused_width(3);

        let post = |store: &mut ParamStore, bns: &mut Vec<BatchNorm1d>, l: usize, tag: &str| {
            if l + 1 < k {
                let idx = bns.len();
                bns.push(BatchNorm1d::new(store, &format!("aqdgnn.{tag}{l}.bn"), h));
                Post::Full(idx)
            } else {
                Post::None
            }
        };

        let mut q_layers = Vec::with_capacity(k);
        let mut g_layers = Vec::with_capacity(k);
        let mut an_layers = Vec::with_capacity(k);
        let mut na_layers = Vec::with_capacity(k.saturating_sub(1));
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
                &format!("aqdgnn.q{l}"),
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
                &format!("aqdgnn.g{l}"),
                Some(g_in),
                g_in,
                h,
                p,
                &mut rng,
            ));

            // A→N: attribute-side width is 1 in layer 1 (the one-hot f_q)
            // and `h` afterwards (refreshed by N→A).
            let a_side = if l == 0 { 1 } else { h };
            let p = post(&mut store, &mut bns, l, "n");
            an_layers.push(EncoderLayer::new(
                &mut store,
                &format!("aqdgnn.an{l}"),
                None,
                a_side,
                h,
                p,
                &mut rng,
            ));

            if l >= 1 {
                // N→A for layer l: self input is the previous attribute-side
                // features (1-dim f_q before the first update), aggregation
                // input is the fused node features (Eq. 12) or, without
                // fusion, the Attribute Encoder's own node-side output.
                let a_self = if l == 1 { 1 } else { h };
                let n_in = if config.feature_fusion { fused } else { h };
                na_layers.push(EncoderLayer::new(
                    &mut store,
                    &format!("aqdgnn.na{l}"),
                    Some(a_self),
                    n_in,
                    h,
                    Post::Relu,
                    &mut rng,
                ));
            }
        }
        let fusions: Vec<FusionOp> = (0..k)
            .map(|l| {
                FusionOp::new(&mut store, &format!("aqdgnn.fuse{l}"), config.fusion, 3, h, &mut rng)
            })
            .collect();
        let head = OutputHead::new(&mut store, "aqdgnn", fused, &mut rng);
        let graph = GraphEncoder::new(g_layers);
        AqdGnn { config, store, bns, q_layers, graph, an_layers, na_layers, fusions, head }
    }

    /// Runs the query- and attribute-dependent branches plus the output
    /// head, given per-layer Graph Encoder outputs: the model's one
    /// forward body, recorded on a tape or run by the eval executor.
    // Several parallel arrays (layers, fusions, cached g) are indexed by
    // the same layer counter; an iterator rewrite would obscure that.
    #[allow(clippy::needless_range_loop)]
    fn query_branches_and_head<E: Exec>(
        &self,
        ex: &mut E,
        inputs: &GraphTensors,
        qv: E::V,
        fq: E::V,
        g: &[E::V],
    ) -> E::V {
        use FeatureInput::Dense as In;
        let adj = (&inputs.adj, &inputs.adj_t);
        let bip = (&inputs.bip, &inputs.bip_t);
        let bip_rev = (&inputs.bip_t, &inputs.bip);
        let fused = self.config.feature_fusion;

        // Layer 1 (Algorithm 3, lines 7–10).
        let mut q = ex.layer(&self.q_layers[0], In(&qv), In(&qv), adj);
        let mut n = ex.layer(&self.an_layers[0], In(&fq), In(&fq), bip);
        let mut ff = ex.fuse(&self.fusions[0], &[g[0].clone(), q.clone(), n.clone()]);
        let mut a = fq;

        // Intermediate + final layers (lines 12–18).
        for l in 1..self.config.layers {
            q = ex.layer(&self.q_layers[l], In(&q), In(if fused { &ff } else { &q }), adj);
            a = ex.layer(&self.na_layers[l - 1], In(&a), In(if fused { &ff } else { &n }), bip_rev);
            n = ex.layer(&self.an_layers[l], In(&a), In(&a), bip);
            ff = ex.fuse(&self.fusions[l], &[g[l].clone(), q.clone(), n.clone()]);
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
            for l in 0..last {
                consumers.push((l, self.q_layers[l + 1].w_agg()));
                consumers.push((l, self.na_layers[l].w_agg()));
            }
        }
        consumers
    }
}

impl CsModel for AqdGnn {
    fn name(&self) -> &'static str {
        "AQD-GNN"
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

    fn uses_attributes(&self) -> bool {
        true
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
        let fq = ctx.tape.constant(query.attr_onehot.clone());
        let logits = self.query_branches_and_head(&mut ctx, inputs, qv, fq, &g);
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
        let (qv, fq) = (Val::Input(&batch.vertex_onehot), Val::Input(&batch.attr_onehot));
        let logits = self.query_branches_and_head(&mut ex, inputs, qv, fq, &g);
        ex.take_rows(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::predict_scores;
    use qdgnn_data::presets;
    use qdgnn_graph::attributed::AdjNorm;

    fn setup() -> (GraphTensors, qdgnn_data::Dataset) {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        (t, data)
    }

    #[test]
    fn attributed_forward_runs() {
        let (t, data) = setup();
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        assert!(model.uses_attributes());
        let attrs = data.graph.most_common_attrs(&data.communities[0], 5);
        let q = QueryVectors::encode(t.n, t.d, &[data.communities[0][0]], &attrs);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn empty_attribute_query_is_supported() {
        // §7.2.1 applies AQD-GNN with F_q = ∅ to non-attributed search.
        let (t, _) = setup();
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let q = QueryVectors::encode(t.n, t.d, &[0], &[]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
    }

    #[test]
    fn attribute_query_changes_output() {
        let (t, data) = setup();
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let a0 = data.graph.most_common_attrs(&data.communities[0], 5);
        let a1 = data.graph.most_common_attrs(&data.communities[2], 5);
        assert_ne!(a0, a1, "toy communities should have distinct topics");
        let q0 = QueryVectors::encode(t.n, t.d, &[0], &a0);
        let q1 = QueryVectors::encode(t.n, t.d, &[0], &a1);
        assert_ne!(
            predict_scores(&model, &t, &q0),
            predict_scores(&model, &t, &q1),
            "attribute input must influence predictions"
        );
    }

    #[test]
    fn nofu_variant_runs() {
        let (t, data) = setup();
        let cfg = ModelConfig { feature_fusion: false, ..ModelConfig::fast() };
        let model = AqdGnn::new(cfg, t.d);
        let q = QueryVectors::encode(t.n, t.d, &[1], &data.graph.attrs_of(1)[..1]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
    }

    #[test]
    fn attention_fusion_variant_runs_and_gates_add_params() {
        use crate::config::FusionAgg;
        let (t, data) = setup();
        let cfg = ModelConfig { fusion: FusionAgg::Attention, ..ModelConfig::fast() };
        let attn = AqdGnn::new(cfg.clone(), t.d);
        let plain = AqdGnn::new(ModelConfig { fusion: FusionAgg::Sum, ..cfg }, t.d);
        // Attention adds 2 gate params per branch per layer: 3×3×2 = 18.
        assert_eq!(attn.store().len(), plain.store().len() + 18);
        let attrs = data.graph.most_common_attrs(&data.communities[0], 3);
        let q = QueryVectors::encode(t.n, t.d, &[0], &attrs);
        let scores = predict_scores(&attn, &t, &q);
        assert_eq!(scores.len(), t.n);
        assert!(scores.iter().all(|s| s.is_finite()));
        // Cached inference also works for the attention variant.
        let cache = attn.build_graph_cache(&t).unwrap();
        assert_eq!(crate::models::predict_scores_cached(&attn, &t, &cache, &q), scores);
    }

    #[test]
    fn cached_attributed_inference_matches_full_forward() {
        let (t, data) = setup();
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let cache = model.build_graph_cache(&t).expect("AQD-GNN has a graph branch");
        let attrs = data.graph.most_common_attrs(&data.communities[1], 4);
        let qv = QueryVectors::encode(t.n, t.d, &data.communities[1][..2], &attrs);
        let full = predict_scores(&model, &t, &qv);
        let cached = crate::models::predict_scores_cached(&model, &t, &cache, &qv);
        assert_eq!(full, cached);
    }

    #[test]
    fn train_mode_emits_stats_for_three_branches() {
        let (t, _) = setup();
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let q = QueryVectors::encode(t.n, t.d, &[0], &[1]);
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.forward(&mut tape, &t, &q, Mode::Train, &mut rng);
        // 3 branches × 2 hidden layers with BN.
        assert_eq!(out.bn_stats.len(), 6);
    }
}
