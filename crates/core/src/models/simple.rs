//! Simple QD-GNN (§5.1): the query-propagation-only model.
//!
//! A single Query Encoder branch whose first-layer input is the one-hot
//! query vector `v_q`; every layer applies the self-feature + SUM
//! aggregation of Eq. 4 over the structure graph. No graph-attribute
//! branch, no fusion.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdgnn_nn::{BatchNorm1d, Dropout, Mode};
use qdgnn_tensor::{Dense, ParamStore, Tape};

use super::blocks::{
    EncoderLayer, EvalExec, Exec, FeatureInput, ForwardCtx, OutputHead, Post, Val,
};
use super::{CsModel, ForwardResult, GraphCache};
use crate::config::ModelConfig;
use crate::inputs::{GraphTensors, QueryBatch, QueryVectors};

/// The Simple QD-GNN model of §5.1.
pub struct SimpleQdGnn {
    config: ModelConfig,
    store: ParamStore,
    bns: Vec<BatchNorm1d>,
    layers: Vec<EncoderLayer>,
    head: OutputHead,
}

impl SimpleQdGnn {
    /// Builds the model for a graph context (the Query Encoder's input
    /// width is query-membership scalars, so no graph dimensions are
    /// needed beyond the config).
    pub fn new(config: ModelConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let mut bns = Vec::new();
        let k = config.layers;
        let h = config.hidden;
        let mut layers = Vec::with_capacity(k);
        for l in 0..k {
            let in_dim = if l == 0 { 1 } else { h };
            let post = if l + 1 < k {
                let idx = bns.len();
                bns.push(BatchNorm1d::new(&mut store, &format!("simple.l{l}.bn"), h));
                Post::Full(idx)
            } else {
                Post::None
            };
            layers.push(EncoderLayer::new(
                &mut store,
                &format!("simple.l{l}"),
                Some(in_dim),
                in_dim,
                h,
                post,
                &mut rng,
            ));
        }
        let head = OutputHead::new(&mut store, "simple", h, &mut rng);
        SimpleQdGnn { config, store, bns, layers, head }
    }

    /// The single query-propagation branch plus head, from a (possibly
    /// batch-stacked) query one-hot: the model's one forward body,
    /// recorded on a tape or run by the eval executor.
    fn branch_and_head<E: Exec>(&self, ex: &mut E, inputs: &GraphTensors, qv: E::V) -> E::V {
        use FeatureInput::Dense as In;
        let adj = (&inputs.adj, &inputs.adj_t);
        let mut h = ex.layer(&self.layers[0], In(&qv), In(&qv), adj);
        for layer in &self.layers[1..] {
            h = ex.layer(layer, In(&h), In(&h), adj);
        }
        ex.head(&self.head, &h)
    }
}

impl CsModel for SimpleQdGnn {
    fn name(&self) -> &'static str {
        "Simple QD-GNN"
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
        let qv = ctx.tape.constant(query.vertex_onehot.clone());
        let logits = self.branch_and_head(&mut ctx, inputs, qv);
        ForwardResult { logits, leaves: ctx.leaves, bn_stats: ctx.stats }
    }

    fn forward_batched_eval(
        &self,
        inputs: &GraphTensors,
        cache: &GraphCache,
        batch: &QueryBatch,
    ) -> Dense {
        // No graph branch to cache: the whole model is the query branch.
        let mut ex = EvalExec::new(&self.store, &self.bns, cache, batch.len());
        let logits = self.branch_and_head(&mut ex, inputs, Val::Input(&batch.vertex_onehot));
        ex.take_rows(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::predict_scores;
    use qdgnn_data::presets;
    use qdgnn_graph::attributed::AdjNorm;

    #[test]
    fn forward_produces_scores_in_unit_interval() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = SimpleQdGnn::new(ModelConfig::fast());
        let q = QueryVectors::encode(t.n, t.d, &[data.communities[0][0]], &[]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn train_mode_collects_bn_stats_and_leaves() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = SimpleQdGnn::new(ModelConfig::fast());
        let q = QueryVectors::encode(t.n, t.d, &[0], &[]);
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(3);
        let out = model.forward(&mut tape, &t, &q, Mode::Train, &mut rng);
        // 3 layers → 2 hidden BNs; head + 3 layers → leaves present.
        assert_eq!(out.bn_stats.len(), 2);
        assert!(out.leaves.len() >= 3 * 3 + 2);
        assert_eq!(tape.shape(out.logits), (t.n, 1));
    }

    #[test]
    fn single_layer_model_works() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = SimpleQdGnn::new(ModelConfig { layers: 1, ..ModelConfig::fast() });
        assert!(model.bns().is_empty());
        let q = QueryVectors::encode(t.n, t.d, &[1], &[]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n);
    }
}
