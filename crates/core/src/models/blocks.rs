//! Shared building blocks for the three models: the self-feature +
//! neighborhood-aggregation layer (Eq. 4/5/8/9/10), the Graph Encoder
//! QD-GNN and AQD-GNN share, and the forward-pass context threading the
//! tape, parameter leaves and batch-norm statistics through encoder
//! code.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdgnn_nn::{BatchNorm1d, BnStats, Dropout, Mode};
use qdgnn_tensor::{Csr, ParamId, ParamStore, Tape, Var};

use super::GraphCache;
use crate::inputs::GraphTensors;

/// Mutable state threaded through one forward pass.
pub(crate) struct ForwardCtx<'a, R: Rng> {
    pub tape: &'a mut Tape,
    pub store: &'a ParamStore,
    pub bns: &'a [BatchNorm1d],
    pub mode: Mode,
    pub dropout: Dropout,
    pub rng: &'a mut R,
    /// Tape leaves created for parameters, for gradient extraction.
    pub leaves: Vec<(Var, ParamId)>,
    /// Train-mode batch-norm statistics, tagged by BN index.
    pub stats: Vec<(usize, BnStats)>,
    /// Query blocks stacked vertically through the pass (1 = unbatched).
    /// When > 1, encoder aggregation uses the block-diagonal SpMM so each
    /// stacked query propagates only over its own copy of the graph.
    pub blocks: usize,
}

impl<'a, R: Rng> ForwardCtx<'a, R> {
    pub fn new(
        tape: &'a mut Tape,
        store: &'a ParamStore,
        bns: &'a [BatchNorm1d],
        mode: Mode,
        dropout: Dropout,
        rng: &'a mut R,
    ) -> Self {
        ForwardCtx {
            tape,
            store,
            bns,
            mode,
            dropout,
            rng,
            leaves: Vec::new(),
            stats: Vec::new(),
            blocks: 1,
        }
    }

    /// An eval-mode context (dropout off, batch norm on running
    /// statistics) for a pass over `blocks` stacked queries.
    pub fn eval(
        tape: &'a mut Tape,
        store: &'a ParamStore,
        bns: &'a [BatchNorm1d],
        rng: &'a mut R,
        blocks: usize,
    ) -> Self {
        ForwardCtx { blocks, ..Self::new(tape, store, bns, Mode::Eval, Dropout::new(0.0), rng) }
    }

    /// Records a parameter as a tape leaf (and remembers the mapping).
    pub fn param(&mut self, id: ParamId) -> Var {
        let var = self.tape.leaf(Arc::clone(self.store.value(id)));
        self.leaves.push((var, id));
        var
    }
}

/// Feature input of a layer: either a dense tape variable or a constant
/// sparse matrix (first-layer attribute matrix / query one-hots are
/// cheapest as sparse operands on the left of the weight product).
#[derive(Clone, Copy)]
pub(crate) enum FeatureInput<'m> {
    /// Dense features already on the tape.
    Dense(Var),
    /// Constant sparse features `(M, Mᵀ)`; the layer computes `M · W`.
    Sparse(&'m Arc<Csr>, &'m Arc<Csr>),
}

/// Post-aggregation pipeline of Eq. 1 applied to a layer's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Post {
    /// BatchNorm → ReLU → Dropout (hidden layers; BN index given).
    Full(usize),
    /// ReLU only (attribute-side updates).
    Relu,
    /// Raw output (the model's final layer, §7.1.6).
    None,
}

/// One propagation layer:
/// `out = [self_in · W_self] + AGG( (agg_in · W_agg) + b )`,
/// where `AGG` left-multiplies by the constant aggregation matrix
/// (normalized adjacency `Â` or bipartite incidence `B`/`Bᵀ`), followed by
/// the configured post-processing.
///
/// `w_self = None` drops the self-feature term (Eq. 9's plain bipartite
/// propagation).
pub(crate) struct EncoderLayer {
    w_self: Option<ParamId>,
    w_agg: ParamId,
    b_agg: ParamId,
    post: Post,
}

impl EncoderLayer {
    /// Registers the layer's parameters.
    ///
    /// `self_in_dim = None` omits the self-feature term; `post` selects
    /// the Eq. 1 pipeline (a `Post::Full` BN must already exist in the
    /// model's BN table at the given index).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        self_in_dim: Option<usize>,
        agg_in_dim: usize,
        out_dim: usize,
        post: Post,
        rng: &mut impl Rng,
    ) -> Self {
        let w_self =
            self_in_dim.map(|d| store.xavier(format!("{name}.w_self"), d, out_dim, rng));
        let w_agg = store.xavier(format!("{name}.w_agg"), agg_in_dim, out_dim, rng);
        let b_agg = store.zeros(format!("{name}.b_agg"), 1, out_dim);
        EncoderLayer { w_self, w_agg, b_agg, post }
    }

    /// Records the layer on the tape.
    ///
    /// `agg_mat` is the constant aggregation matrix pair `(M, Mᵀ)` the
    /// transformed features are propagated through.
    pub fn forward<R: Rng>(
        &self,
        ctx: &mut ForwardCtx<'_, R>,
        self_in: FeatureInput<'_>,
        agg_in: FeatureInput<'_>,
        agg_mat: (&Arc<Csr>, &Arc<Csr>),
    ) -> Var {
        // (agg_in · W_agg) + b, then AGG.
        let w = ctx.param(self.w_agg);
        let transformed = match agg_in {
            FeatureInput::Dense(x) => ctx.tape.matmul(x, w),
            FeatureInput::Sparse(m, mt) => ctx.tape.spmm(m, mt, w),
        };
        let b = ctx.param(self.b_agg);
        let biased = ctx.tape.add_row(transformed, b);
        let aggregated = ctx.tape.spmm_blocked(agg_mat.0, agg_mat.1, biased, ctx.blocks);

        let mut out = match self.w_self {
            Some(ws) => {
                let ws = ctx.param(ws);
                let self_term = match self_in {
                    FeatureInput::Dense(x) => ctx.tape.matmul(x, ws),
                    FeatureInput::Sparse(m, mt) => ctx.tape.spmm(m, mt, ws),
                };
                ctx.tape.add(self_term, aggregated)
            }
            None => aggregated,
        };

        match self.post {
            Post::Full(bn_idx) => {
                let bn = &ctx.bns[bn_idx];
                let (y, bn_leaves, stats) = bn.forward(ctx.tape, ctx.store, out, ctx.mode);
                ctx.leaves.extend(bn_leaves);
                if let Some(s) = stats {
                    ctx.stats.push((bn_idx, s));
                }
                out = ctx.tape.relu(y);
                out = ctx.dropout.forward(ctx.tape, out, ctx.mode, ctx.rng);
            }
            Post::Relu => {
                out = ctx.tape.relu(out);
            }
            Post::None => {}
        }
        out
    }
}

/// The query-independent Graph Encoder (Eq. 5) of QD-GNN and AQD-GNN:
/// propagates the normalized attribute matrix over the structure graph
/// and never consumes query information, so its eval-mode output is
/// computed once per graph as a [`GraphCache`].
pub(crate) struct GraphEncoder {
    layers: Vec<EncoderLayer>,
}

impl GraphEncoder {
    /// Wraps the per-layer encoders (registered by the owning model, so
    /// its parameter order is unchanged).
    pub fn new(layers: Vec<EncoderLayer>) -> Self {
        GraphEncoder { layers }
    }

    /// Records every layer on the tape, returning each layer's output.
    pub fn forward<R: Rng>(&self, ctx: &mut ForwardCtx<'_, R>, inputs: &GraphTensors) -> Vec<Var> {
        let adj = (&inputs.adj, &inputs.adj_t);
        let feat = FeatureInput::Sparse(&inputs.feat, &inputs.feat_t);
        let mut out = Vec::with_capacity(self.layers.len());
        let mut g = self.layers[0].forward(ctx, feat, feat, adj);
        out.push(g);
        for layer in &self.layers[1..] {
            g = layer.forward(ctx, FeatureInput::Dense(g), FeatureInput::Dense(g), adj);
            out.push(g);
        }
        out
    }

    /// Runs the encoder in eval mode and keeps each layer's output.
    pub fn build_cache(
        &self,
        store: &ParamStore,
        bns: &[BatchNorm1d],
        inputs: &GraphTensors,
    ) -> GraphCache {
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = ForwardCtx::eval(&mut tape, store, bns, &mut rng, 1);
        let vars = self.forward(&mut ctx, inputs);
        GraphCache { layers: vars.iter().map(|&v| Arc::clone(ctx.tape.value(v))).collect() }
    }

    /// Puts the cached layers on `ctx`'s tape for its `ctx.blocks`
    /// stacked queries: shared as-is for one query, tiled K× otherwise
    /// so each query fuses against its own copy.
    pub fn cached<R: Rng>(&self, ctx: &mut ForwardCtx<'_, R>, cache: &GraphCache) -> Vec<Var> {
        assert_eq!(cache.layers.len(), self.layers.len(), "cache layer-count mismatch");
        let k = ctx.blocks;
        cache
            .layers
            .iter()
            .map(|l| match k {
                1 => ctx.tape.leaf(Arc::clone(l)),
                _ => ctx.tape.constant(l.tile_rows(k)),
            })
            .collect()
    }
}

/// The Feature Fusion operator (Eq. 6 / Eq. 11) with the configured
/// aggregation. [`crate::config::FusionAgg::Attention`] owns learnable
/// per-branch gate parameters; the paper's concatenation and sum are
/// parameter-free.
pub(crate) struct FusionOp {
    kind: crate::config::FusionAgg,
    /// Per-branch `(gate weight width×1, gate bias 1×1)` — attention only.
    gates: Vec<(ParamId, ParamId)>,
}

impl FusionOp {
    /// Registers gate parameters when the aggregation needs them.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        kind: crate::config::FusionAgg,
        branches: usize,
        width: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gates = if kind == crate::config::FusionAgg::Attention {
            (0..branches)
                .map(|b| {
                    (
                        store.xavier(format!("{name}.gate{b}.weight"), width, 1, rng),
                        store.zeros(format!("{name}.gate{b}.bias"), 1, 1),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        FusionOp { kind, gates }
    }

    /// Fuses the branch outputs on the tape.
    pub fn apply<R: Rng>(&self, ctx: &mut ForwardCtx<'_, R>, parts: &[Var]) -> Var {
        match self.kind {
            crate::config::FusionAgg::Concat => ctx.tape.concat_cols(parts),
            crate::config::FusionAgg::Sum => {
                let mut acc = parts[0];
                for &p in &parts[1..] {
                    acc = ctx.tape.add(acc, p);
                }
                acc
            }
            crate::config::FusionAgg::Attention => {
                debug_assert_eq!(parts.len(), self.gates.len(), "one gate per branch");
                let (w0, b0) = self.gates[0];
                let mut acc = self.gated(ctx, parts[0], w0, b0);
                for (&p, &(w, b)) in parts[1..].iter().zip(&self.gates[1..]) {
                    let g = self.gated(ctx, p, w, b);
                    acc = ctx.tape.add(acc, g);
                }
                acc
            }
        }
    }

    /// One attention branch: sigmoid-gated projection of `p`.
    fn gated<R: Rng>(&self, ctx: &mut ForwardCtx<'_, R>, p: Var, w: ParamId, b: ParamId) -> Var {
        let wv = ctx.param(w);
        let bv = ctx.param(b);
        let logits = ctx.tape.matmul(p, wv);
        let logits = ctx.tape.add_row(logits, bv);
        let gate = ctx.tape.sigmoid(logits);
        ctx.tape.mul_col(p, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_tensor::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_adj() -> (Arc<Csr>, Arc<Csr>) {
        // 3-path with self loops, unnormalized.
        let a = Csr::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 2, 1.0)],
        );
        let at = a.transpose();
        (Arc::new(a), Arc::new(at))
    }

    #[test]
    fn layer_output_shape_and_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = EncoderLayer::new(&mut store, "l", Some(2), 2, 4, Post::Relu, &mut rng);
        let (adj, adj_t) = tiny_adj();
        let mut tape = Tape::new();
        let x = tape.constant(Dense::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let mut ctx = ForwardCtx::new(
            &mut tape,
            &store,
            &[],
            Mode::Train,
            Dropout::new(0.0),
            &mut rng,
        );
        let y = layer.forward(
            &mut ctx,
            FeatureInput::Dense(x),
            FeatureInput::Dense(x),
            (&adj, &adj_t),
        );
        assert_eq!(ctx.tape.shape(y), (3, 4));
        // Three parameter leaves recorded: w_agg, b_agg, w_self.
        assert_eq!(ctx.leaves.len(), 3);
        let leaves = ctx.leaves.clone();
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        // Weight gradients flow (bias may be zero if everything ReLU-dies,
        // but with random init at least one leaf should have signal).
        assert!(leaves.iter().any(|(v, _)| grads
            .get(*v)
            .map(|g| g.max_abs() > 0.0)
            .unwrap_or(false)));
    }

    #[test]
    fn layer_without_self_term() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = EncoderLayer::new(&mut store, "l", None, 2, 3, Post::None, &mut rng);
        assert_eq!(store.len(), 2); // w_agg + b_agg only
        let (adj, adj_t) = tiny_adj();
        let mut tape = Tape::new();
        let x = tape.constant(Dense::zeros(3, 2));
        let mut ctx = ForwardCtx::new(
            &mut tape,
            &store,
            &[],
            Mode::Eval,
            Dropout::new(0.5),
            &mut rng,
        );
        let y = layer.forward(
            &mut ctx,
            FeatureInput::Dense(x),
            FeatureInput::Dense(x),
            (&adj, &adj_t),
        );
        assert_eq!(ctx.tape.shape(y), (3, 3));
    }
}
