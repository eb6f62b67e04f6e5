//! Shared building blocks for the three models — the self-feature +
//! neighborhood-aggregation layer (Eq. 4/5/8/9/10), the Graph Encoder
//! QD-GNN and AQD-GNN share, Feature Fusion and the output head — and
//! the two executors a model body runs on.
//!
//! Each model writes its forward pass once, generic over [`Exec`].
//! [`ForwardCtx`] records it on a tape (training, and the reference
//! `predict_scores`); [`EvalExec`] runs it on plain `Dense` buffers with
//! no tape (serving, and the graph cache). An eval layer is three kernel
//! calls, with bias, self term, eval batch norm and ReLU applied as
//! kernel epilogues, and a concatenated fused feature is never built:
//! products over it continue from the cached share of the Graph Encoder
//! output. Both are bit-identical to the tape ops they replace (see the
//! `qdgnn_tensor` kernel docs).

use std::borrow::Cow;
use std::rc::Rc;
use std::sync::Arc;

use rand::Rng;

use qdgnn_nn::{BatchNorm1d, BnStats, Dropout, Mode};
use qdgnn_tensor::{ops, BnAffine, Csr, Dense, Epilogue, ParamId, ParamStore, Tape, Var};

use super::GraphCache;
use crate::config::FusionAgg;
use crate::inputs::GraphTensors;

/// A constant aggregation matrix and its transpose, `(M, Mᵀ)`.
pub(crate) type AggMat<'m> = (&'m Arc<Csr>, &'m Arc<Csr>);

/// The operations a model body is written against.
pub(crate) trait Exec {
    /// A value flowing between operations.
    type V: Clone;

    /// One propagation layer.
    fn layer(
        &mut self,
        layer: &EncoderLayer,
        self_in: FeatureInput<'_, Self::V>,
        agg_in: FeatureInput<'_, Self::V>,
        agg: AggMat<'_>,
    ) -> Self::V;

    /// Feature Fusion of one layer's branch outputs (Graph Encoder first).
    fn fuse(&mut self, op: &FusionOp, parts: &[Self::V]) -> Self::V;

    /// The output head.
    fn head(&mut self, head: &OutputHead, x: &Self::V) -> Self::V;
}

/// Mutable state threaded through one forward pass on a tape.
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
        }
    }

    /// Records a parameter as a tape leaf (and remembers the mapping).
    pub fn param(&mut self, id: ParamId) -> Var {
        let var = self.tape.leaf(Arc::clone(self.store.value(id)));
        self.leaves.push((var, id));
        var
    }
}

impl<R: Rng> Exec for ForwardCtx<'_, R> {
    type V = Var;

    fn layer(
        &mut self,
        layer: &EncoderLayer,
        self_in: FeatureInput<'_, Var>,
        agg_in: FeatureInput<'_, Var>,
        agg: AggMat<'_>,
    ) -> Var {
        layer.record(self, self_in, agg_in, agg)
    }

    fn fuse(&mut self, op: &FusionOp, parts: &[Var]) -> Var {
        op.record(self, parts)
    }

    fn head(&mut self, head: &OutputHead, x: &Var) -> Var {
        let w = self.param(head.w);
        let b = self.param(head.b);
        let y = self.tape.matmul(*x, w);
        self.tape.add_row(y, b)
    }
}

/// Feature input of a layer: either a value of the executor or a
/// constant sparse matrix (first-layer attribute matrix inputs are
/// cheapest as sparse operands on the left of the weight product).
pub(crate) enum FeatureInput<'m, V> {
    /// Dense features.
    Dense(&'m V),
    /// Constant sparse features `(M, Mᵀ)`; the layer computes `M · W`.
    Sparse(&'m Arc<Csr>, &'m Arc<Csr>),
}

impl<V> Clone for FeatureInput<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for FeatureInput<'_, V> {}

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
    /// `eval <name>`: how sanitizer reports name the eval kernels.
    producer: String,
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
        EncoderLayer { w_self, w_agg, b_agg, post, producer: format!("eval {name}") }
    }

    /// The aggregation-input weight `W_agg`.
    pub fn w_agg(&self) -> ParamId {
        self.w_agg
    }

    /// Records the layer on the tape.
    fn record<R: Rng>(
        &self,
        ctx: &mut ForwardCtx<'_, R>,
        self_in: FeatureInput<'_, Var>,
        agg_in: FeatureInput<'_, Var>,
        agg: AggMat<'_>,
    ) -> Var {
        // (agg_in · W_agg) + b, then AGG.
        let w = ctx.param(self.w_agg);
        let transformed = match agg_in {
            FeatureInput::Dense(&x) => ctx.tape.matmul(x, w),
            FeatureInput::Sparse(m, mt) => ctx.tape.spmm(m, mt, w),
        };
        let b = ctx.param(self.b_agg);
        let biased = ctx.tape.add_row(transformed, b);
        let aggregated = ctx.tape.spmm(agg.0, agg.1, biased);

        let mut out = match self.w_self {
            Some(ws) => {
                let ws = ctx.param(ws);
                let self_term = match self_in {
                    FeatureInput::Dense(&x) => ctx.tape.matmul(x, ws),
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

    /// Runs every layer, returning each layer's output.
    pub fn forward<E: Exec>(&self, ex: &mut E, inputs: &GraphTensors) -> Vec<E::V> {
        let adj = (&inputs.adj, &inputs.adj_t);
        let feat = FeatureInput::Sparse(&inputs.feat, &inputs.feat_t);
        let mut out: Vec<E::V> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let g = match out.last() {
                None => ex.layer(layer, feat, feat, adj),
                Some(prev) => {
                    ex.layer(layer, FeatureInput::Dense(prev), FeatureInput::Dense(prev), adj)
                }
            };
            out.push(g);
        }
        out
    }

    /// Runs the encoder in eval mode and keeps each layer's output `g_l`,
    /// plus `g_l · W[..h]` for each `(l, W)` in `concat_consumers`: every
    /// weight that consumes layer `l`'s concatenated fused feature
    /// `[g_l | …]` (see [`EvalExec`]).
    pub fn build_cache(
        &self,
        store: &ParamStore,
        bns: &[BatchNorm1d],
        inputs: &GraphTensors,
        concat_consumers: &[(usize, ParamId)],
    ) -> GraphCache {
        let empty = GraphCache::default();
        let mut ex = EvalExec::new(store, bns, &empty, 1);
        let vals = self.forward(&mut ex, inputs);
        let layers: Vec<Dense> = vals.into_iter().map(|v| ex.take_rows(v)).collect();
        let partials = concat_consumers
            .iter()
            .filter_map(|&(l, w)| Some((w, prefix_product(layers.get(l)?, store.value(w)))))
            .collect();
        GraphCache { layers, partials }
    }
}

/// `g · W[..g.cols()]`: the share of a concatenated `[g | …] · W` that
/// `g` contributes, the first terms of every output element's sum.
fn prefix_product(g: &Dense, w: &Dense) -> Dense {
    let top = Dense::from_vec(g.cols(), w.cols(), w.as_slice()[..g.cols() * w.cols()].to_vec());
    let _t = qdgnn_obs::op_timer("tensor.matmul");
    g.matmul(&top)
}

/// The Feature Fusion operator (Eq. 6 / Eq. 11) with the configured
/// aggregation. [`FusionAgg::Attention`] owns learnable per-branch gate
/// parameters; the paper's concatenation and sum are parameter-free.
pub(crate) struct FusionOp {
    kind: FusionAgg,
    /// Per-branch `(gate weight width×1, gate bias 1×1)` — attention only.
    gates: Vec<(ParamId, ParamId)>,
    /// `eval <name>`: how sanitizer reports name the gate kernels.
    producer: String,
}

impl FusionOp {
    /// Registers gate parameters when the aggregation needs them.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        kind: FusionAgg,
        branches: usize,
        width: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let gates = if kind == FusionAgg::Attention {
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
        FusionOp { kind, gates, producer: format!("eval {name}") }
    }

    /// Fuses the branch outputs on the tape.
    fn record<R: Rng>(&self, ctx: &mut ForwardCtx<'_, R>, parts: &[Var]) -> Var {
        match self.kind {
            FusionAgg::Concat => ctx.tape.concat_cols(parts),
            FusionAgg::Sum => {
                let mut acc = parts[0];
                for &p in &parts[1..] {
                    acc = ctx.tape.add(acc, p);
                }
                acc
            }
            FusionAgg::Attention => {
                debug_assert_eq!(parts.len(), self.gates.len(), "one gate per branch");
                let (w0, b0) = self.gates[0];
                let mut acc = Self::gated(ctx, parts[0], w0, b0);
                for (&p, &(w, b)) in parts[1..].iter().zip(&self.gates[1..]) {
                    let g = Self::gated(ctx, p, w, b);
                    acc = ctx.tape.add(acc, g);
                }
                acc
            }
        }
    }

    /// One attention branch on the tape: sigmoid-gated projection of `p`.
    fn gated<R: Rng>(ctx: &mut ForwardCtx<'_, R>, p: Var, w: ParamId, b: ParamId) -> Var {
        let wv = ctx.param(w);
        let bv = ctx.param(b);
        let logits = ctx.tape.matmul(p, wv);
        let logits = ctx.tape.add_row(logits, bv);
        let gate = ctx.tape.sigmoid(logits);
        ctx.tape.mul_col(p, gate)
    }
}

/// The model's scalar output head (fused features → logits).
pub(crate) struct OutputHead {
    w: ParamId,
    b: ParamId,
    /// `eval <name>.out`: how sanitizer reports name the head kernel.
    producer: String,
}

impl OutputHead {
    /// Registers `<name>.out.weight` (in_dim × 1) and `<name>.out.bias`.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, rng: &mut impl Rng) -> Self {
        let w = store.xavier(format!("{name}.out.weight"), in_dim, 1, rng);
        let b = store.zeros(format!("{name}.out.bias"), 1, 1);
        OutputHead { w, b, producer: format!("eval {name}.out") }
    }

    /// The head weight.
    pub fn weight(&self) -> ParamId {
        self.w
    }
}

/// A value of the [`EvalExec`].
#[derive(Clone)]
pub(crate) enum Val<'a> {
    /// Activations of every stacked query block.
    Rows(Rc<Dense>),
    /// A caller's stacked input, borrowed.
    Input(&'a Dense),
    /// Cached Graph Encoder layer `l`: one block of rows, shared by
    /// every query block.
    Graph(usize),
    /// `[g_l | parts…]` under [`FusionAgg::Concat`], never materialised:
    /// a product over it starts each row from the cached `g_l · W[..h]`
    /// and continues over the parts.
    Concat(usize, Vec<Rc<Dense>>),
}

/// Runs a model body in eval mode (dropout off, batch norm on running
/// statistics) on plain `Dense` buffers over `blocks` stacked queries,
/// against a [`GraphCache`] built for the same graph and weights.
pub(crate) struct EvalExec<'a> {
    store: &'a ParamStore,
    bns: &'a [BatchNorm1d],
    cache: &'a GraphCache,
    blocks: usize,
}

impl<'a> EvalExec<'a> {
    pub fn new(
        store: &'a ParamStore,
        bns: &'a [BatchNorm1d],
        cache: &'a GraphCache,
        blocks: usize,
    ) -> Self {
        EvalExec { store, bns, cache, blocks }
    }

    /// The cached Graph Encoder layers, as values.
    pub fn graph(&self) -> Vec<Val<'a>> {
        (0..self.cache.layers.len()).map(Val::Graph).collect()
    }

    /// A value's stacked rows, owned (without a copy when it holds the
    /// only reference).
    pub fn take_rows(&self, v: Val<'a>) -> Dense {
        match v {
            Val::Rows(x) => Rc::try_unwrap(x).unwrap_or_else(|x| (*x).clone()),
            other => self.stacked(&other).into_owned(),
        }
    }

    /// A value's rows for every stacked block. The model bodies only ever
    /// pass `Rows` and `Input` here; a cached layer or a concatenation is
    /// materialised for completeness.
    fn stacked<'v>(&'v self, v: &'v Val<'a>) -> Cow<'v, Dense> {
        let tiled = |l: usize| {
            let g = &self.cache.layers[l];
            Dense::from_vec(g.rows() * self.blocks, g.cols(), g.as_slice().repeat(self.blocks))
        };
        match v {
            Val::Rows(x) => Cow::Borrowed(x),
            Val::Input(x) => Cow::Borrowed(*x),
            Val::Graph(l) => Cow::Owned(tiled(*l)),
            Val::Concat(l, parts) => {
                let g = tiled(*l);
                let all: Vec<&Dense> =
                    std::iter::once(&g).chain(parts.iter().map(|p| &**p)).collect();
                Cow::Owned(Dense::concat_cols(&all))
            }
        }
    }

    /// A value's stacked rows behind a shared handle.
    fn shared_rows(&self, v: &Val<'a>) -> Rc<Dense> {
        match v {
            Val::Rows(x) => Rc::clone(x),
            other => Rc::new(self.stacked(other).into_owned()),
        }
    }

    /// A value's rows, where a cached layer stays one shared block.
    fn shared_or_stacked<'v>(&'v self, v: &'v Val<'a>) -> Cow<'v, Dense> {
        match v {
            Val::Graph(l) => Cow::Borrowed(&self.cache.layers[*l]),
            other => self.stacked(other),
        }
    }

    /// `x · W`, then `epi`. Over a concatenation the product starts from
    /// the cached `g_l · W[..h]` (computed here if the cache lacks it).
    fn product(&self, x: FeatureInput<'_, Val<'a>>, w_id: ParamId, epi: &Epilogue<'_>) -> Dense {
        let w = self.store.value(w_id);
        let out = match x {
            FeatureInput::Sparse(m, _) => {
                let _t = qdgnn_obs::op_timer("tensor.spmm");
                m.spmm_fused(w, 1, epi)
            }
            FeatureInput::Dense(Val::Concat(l, parts)) => {
                let g = &self.cache.layers[*l];
                let prefix = match self.cache.partial(w_id) {
                    Some(p) if p.shape() == (g.rows(), w.cols()) => Cow::Borrowed(p),
                    _ => Cow::Owned(prefix_product(g, w)),
                };
                let parts: Vec<&Dense> = parts.iter().map(|p| &**p).collect();
                let _t = qdgnn_obs::op_timer("tensor.matmul");
                Dense::matmul_fused(Some(&prefix), &parts, w, epi)
            }
            FeatureInput::Dense(v) => {
                let x = self.stacked(v);
                let _t = qdgnn_obs::op_timer("tensor.matmul");
                Dense::matmul_fused(None, &[&x], w, epi)
            }
        };
        // Named like the tape's ops, so NaN/Inf reports point at a layer.
        qdgnn_tensor::sanitize::check_finite(epi.producer, &out);
        out
    }

    /// `parts[0] + parts[1] + …`, in that order. A part shorter than the
    /// output is one block that every query block repeats.
    fn sum(&self, parts: &[Cow<'_, Dense>]) -> Dense {
        let _t = qdgnn_obs::op_timer("tensor.add");
        let rows = parts.iter().map(|p| p.rows()).max().unwrap_or(0);
        let cols = parts.first().map_or(0, |p| p.cols());
        let mut out = Dense::zeros(rows, cols);
        for (i, p) in parts.iter().enumerate() {
            for chunk in out.as_mut_slice().chunks_mut(p.len().max(1)) {
                if i == 0 {
                    chunk.copy_from_slice(&p.as_slice()[..chunk.len()]);
                } else {
                    for (o, &v) in chunk.iter_mut().zip(p.as_slice()) {
                        *o += v;
                    }
                }
            }
        }
        out
    }

    /// One attention branch: `p ∘ σ(p · w + b)`, on a cached layer's one
    /// block when `p` is one.
    fn gated(&self, p: &Dense, (w, b): (ParamId, ParamId), producer: &str) -> Dense {
        let bias = self.store.value(b);
        let epi = Epilogue { bias: Some(bias), producer, ..Epilogue::default() };
        let logits = self.product(FeatureInput::Dense(&Val::Input(p)), w, &epi);
        let gate = {
            let _t = qdgnn_obs::op_timer("tensor.sigmoid");
            logits.map(ops::sigmoid)
        };
        let _t = qdgnn_obs::op_timer("tensor.mul_col");
        ops::mul_col_broadcast(p, &gate)
    }
}

impl<'a> Exec for EvalExec<'a> {
    type V = Val<'a>;

    /// Three kernels: `agg_in · W_agg` with the bias in its epilogue, the
    /// self-term product, and the block-diagonal aggregation SpMM, whose
    /// epilogue adds the self term and applies the eval batch norm and
    /// the ReLU.
    fn layer(
        &mut self,
        layer: &EncoderLayer,
        self_in: FeatureInput<'_, Val<'a>>,
        agg_in: FeatureInput<'_, Val<'a>>,
        agg: AggMat<'_>,
    ) -> Val<'a> {
        let producer = layer.producer.as_str();
        let bias = self.store.value(layer.b_agg);
        let epi = Epilogue { bias: Some(bias), producer, ..Epilogue::default() };
        let transformed = self.product(agg_in, layer.w_agg, &epi);
        let plain = Epilogue { producer, ..Epilogue::default() };
        let self_term = layer.w_self.map(|w| self.product(self_in, w, &plain));
        let bn = match layer.post {
            Post::Full(idx) => Some(&self.bns[idx]),
            Post::Relu | Post::None => None,
        };
        let shift_scale = bn.map(BatchNorm1d::eval_shift_scale);
        let affine = bn.zip(shift_scale.as_ref()).map(|(bn, (neg_mean, inv_std))| {
            let (gamma, beta) = bn.affine_params();
            BnAffine {
                neg_mean,
                inv_std,
                gamma: self.store.value(gamma),
                beta: self.store.value(beta),
            }
        });
        let epi = Epilogue {
            residual: self_term.as_ref(),
            bias: None,
            bn: affine,
            relu: layer.post != Post::None,
            producer,
        };
        let out = {
            let _t = qdgnn_obs::op_timer("tensor.spmm");
            agg.0.spmm_fused(&transformed, self.blocks, &epi)
        };
        qdgnn_tensor::sanitize::check_finite(producer, &out);
        Val::Rows(Rc::new(out))
    }

    fn fuse(&mut self, op: &FusionOp, parts: &[Val<'a>]) -> Val<'a> {
        let out = match op.kind {
            FusionAgg::Concat => match parts.split_first() {
                Some((Val::Graph(l), rest)) => {
                    return Val::Concat(*l, rest.iter().map(|p| self.shared_rows(p)).collect());
                }
                _ => {
                    let parts: Vec<Cow<'_, Dense>> =
                        parts.iter().map(|p| self.stacked(p)).collect();
                    let parts: Vec<&Dense> = parts.iter().map(|p| &**p).collect();
                    Dense::concat_cols(&parts)
                }
            },
            FusionAgg::Sum => {
                let parts: Vec<Cow<'_, Dense>> =
                    parts.iter().map(|p| self.shared_or_stacked(p)).collect();
                self.sum(&parts)
            }
            FusionAgg::Attention => {
                let gated: Vec<Cow<'_, Dense>> = parts
                    .iter()
                    .zip(&op.gates)
                    .map(|(p, &gate)| {
                        Cow::Owned(self.gated(&self.shared_or_stacked(p), gate, &op.producer))
                    })
                    .collect();
                self.sum(&gated)
            }
        };
        Val::Rows(Rc::new(out))
    }

    fn head(&mut self, head: &OutputHead, x: &Val<'a>) -> Val<'a> {
        let bias = self.store.value(head.b);
        let epi = Epilogue { bias: Some(bias), producer: &head.producer, ..Epilogue::default() };
        Val::Rows(Rc::new(self.product(FeatureInput::Dense(x), head.w, &epi)))
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
        let y = ctx.layer(&layer, FeatureInput::Dense(&x), FeatureInput::Dense(&x), (&adj, &adj_t));
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
        let y = ctx.layer(&layer, FeatureInput::Dense(&x), FeatureInput::Dense(&x), (&adj, &adj_t));
        assert_eq!(ctx.tape.shape(y), (3, 3));
    }
}
