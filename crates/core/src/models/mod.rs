//! The three community-search models and their common interface.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub(crate) mod blocks;
mod aqdgnn;
mod qdgnn;
mod simple;

pub use aqdgnn::AqdGnn;
pub use qdgnn::QdGnn;
pub use simple::SimpleQdGnn;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdgnn_nn::{BatchNorm1d, BnStats, Mode};
use qdgnn_tensor::{Dense, ParamId, ParamStore, Tape, Var};

use crate::config::ModelConfig;
use crate::inputs::{GraphTensors, QueryBatch, QueryVectors};

/// Query-independent Graph Encoder activations (`h_G^(1..k)` in eval
/// mode), computed once per graph and shared across online queries.
///
/// The Graph Encoder never consumes query information (Algorithm 2/3
/// keep it feeding on its own output), so at serving time its k forward
/// layers are identical for every query — caching them turns the online
/// stage into query-branch-only work. With [`crate::FusionAgg::Concat`]
/// the cache also holds, for every weight `W` that consumes the fused
/// feature `[g_l | q | n]`, the Graph Encoder's share `g_l · W[..h]` of
/// that product, so serving computes only the query-dependent rest. Build
/// with [`CsModel::build_graph_cache`]; every eval path
/// ([`predict_scores_batch`] and its batch-of-one
/// [`predict_scores_cached`]) reads it. Models without a graph branch
/// (Simple QD-GNN) serve from the empty (default) cache.
#[derive(Clone, Default)]
pub struct GraphCache {
    /// Post-processed Graph Encoder output per layer (n × hidden each).
    pub layers: Vec<Dense>,
    /// `(W, g_l · W[..hidden])` per weight consuming a concatenated fused
    /// feature.
    partials: Vec<(ParamId, Dense)>,
}

impl GraphCache {
    /// The cached Graph Encoder share of the product with `w`, if any.
    pub(crate) fn partial(&self, w: ParamId) -> Option<&Dense> {
        self.partials.iter().find(|(id, _)| *id == w).map(|(_, p)| p)
    }
}

/// Output of one model forward pass.
pub struct ForwardResult {
    /// Per-vertex logits (n×1); apply a sigmoid for the paper's `h_q`.
    pub logits: Var,
    /// Parameter leaves created on the tape, for gradient extraction.
    pub leaves: Vec<(Var, ParamId)>,
    /// Train-mode batch-norm statistics (BN index, stats).
    pub bn_stats: Vec<(usize, BnStats)>,
}

/// Snapshot of a model's trainable state (parameters plus batch-norm
/// running statistics), used to keep the best-on-validation weights.
#[derive(Clone)]
pub struct Checkpoint {
    params: Vec<Dense>,
    bn_running: Vec<(Dense, Dense)>,
}

impl Checkpoint {
    /// The snapshotted parameter matrices, in store order.
    pub fn params(&self) -> &[Dense] {
        &self.params
    }

    /// The snapshotted batch-norm `(running_mean, running_var)` pairs.
    pub fn bn_running(&self) -> &[(Dense, Dense)] {
        &self.bn_running
    }

    /// Rebuilds a checkpoint from its parts (checkpoint-file loading).
    pub fn from_parts(params: Vec<Dense>, bn_running: Vec<(Dense, Dense)>) -> Self {
        Checkpoint { params, bn_running }
    }
}

/// Common interface of [`SimpleQdGnn`], [`QdGnn`] and [`AqdGnn`].
///
/// Models are `Send + Sync`: forward passes borrow the model immutably,
/// so data-parallel workers can run queries concurrently against shared
/// parameters; only the optimizer step and
/// [`CsModel::apply_bn_stats`] mutate state (on the training thread).
pub trait CsModel: Send + Sync {
    /// Display name ("QD-GNN", …).
    fn name(&self) -> &'static str;

    /// The hyper-parameters the model was built with.
    fn config(&self) -> &ModelConfig;

    /// The trainable parameters.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the optimizer.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// The model's batch-norm layers (flat table).
    fn bns(&self) -> &[BatchNorm1d];

    /// Mutable batch-norm access.
    fn bns_mut(&mut self) -> &mut [BatchNorm1d];

    /// Records one query's forward pass on `tape`.
    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        query: &QueryVectors,
        mode: Mode,
        rng: &mut StdRng,
    ) -> ForwardResult;

    /// Whether the model consumes query attributes (AQD-GNN).
    fn uses_attributes(&self) -> bool {
        false
    }

    /// Precomputes the query-independent Graph Encoder activations for
    /// online serving (eval mode). Returns `None` for models without a
    /// graph branch (Simple QD-GNN).
    fn build_graph_cache(&self, _inputs: &GraphTensors) -> Option<GraphCache> {
        None
    }

    /// Runs one eval-mode forward pass over a whole [`QueryBatch`] —
    /// `K` queries stacked vertically so each kernel runs once per layer
    /// instead of once per query — on plain buffers with no tape, reusing
    /// `cache` (built by [`CsModel::build_graph_cache`] on the same graph
    /// and weights, or empty for a model without a graph branch). Returns
    /// the stacked `K·n × 1` logits, bit-identical per row block to `K`
    /// eval-mode [`CsModel::forward`] passes. This is the only serving
    /// inference path; a single query is a batch of one.
    fn forward_batched_eval(
        &self,
        inputs: &GraphTensors,
        cache: &GraphCache,
        batch: &QueryBatch,
    ) -> Dense;

    /// Folds a batch's BN statistics into the running estimates.
    fn apply_bn_stats(&mut self, stats: &[(usize, BnStats)]) {
        for (idx, s) in stats {
            self.bns_mut()[*idx].apply_stats(s);
        }
    }

    /// Deep-copies the trainable state.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            params: self.store().snapshot(),
            bn_running: self
                .bns()
                .iter()
                .map(|bn| (bn.running_mean().clone(), bn.running_var().clone()))
                .collect(),
        }
    }

    /// Restores a [`CsModel::checkpoint`].
    fn restore(&mut self, ckpt: &Checkpoint) {
        self.store_mut().restore(&ckpt.params);
        for (bn, (mean, var)) in self.bns_mut().iter_mut().zip(&ckpt.bn_running) {
            bn.set_running(mean.clone(), var.clone());
        }
    }
}

impl CsModel for Box<dyn CsModel> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn config(&self) -> &ModelConfig {
        (**self).config()
    }

    fn store(&self) -> &ParamStore {
        (**self).store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        (**self).store_mut()
    }

    fn bns(&self) -> &[BatchNorm1d] {
        (**self).bns()
    }

    fn bns_mut(&mut self) -> &mut [BatchNorm1d] {
        (**self).bns_mut()
    }

    fn forward(
        &self,
        tape: &mut Tape,
        inputs: &GraphTensors,
        query: &QueryVectors,
        mode: Mode,
        rng: &mut StdRng,
    ) -> ForwardResult {
        (**self).forward(tape, inputs, query, mode, rng)
    }

    fn uses_attributes(&self) -> bool {
        (**self).uses_attributes()
    }

    fn build_graph_cache(&self, inputs: &GraphTensors) -> Option<GraphCache> {
        (**self).build_graph_cache(inputs)
    }

    fn forward_batched_eval(
        &self,
        inputs: &GraphTensors,
        cache: &GraphCache,
        batch: &QueryBatch,
    ) -> Dense {
        (**self).forward_batched_eval(inputs, cache, batch)
    }
}

/// Runs an inference (eval-mode) forward pass and returns per-vertex
/// community scores `h_q ∈ [0,1]^n` (the online query stage's model
/// invocation, §4.3).
pub fn predict_scores(model: &dyn CsModel, inputs: &GraphTensors, query: &QueryVectors) -> Vec<f32> {
    let mut tape = Tape::new();
    // Eval mode: dropout off, BN uses running stats — rng is never used,
    // any fixed seed keeps the signature honest.
    let mut rng = StdRng::seed_from_u64(0);
    let result = model.forward(&mut tape, inputs, query, Mode::Eval, &mut rng);
    let scores = tape.sigmoid(result.logits);
    tape.value(scores).as_slice().to_vec()
}

/// Scores one query against a precomputed [`GraphCache`]: a batch of
/// one through [`predict_scores_batch`].
pub fn predict_scores_cached(
    model: &dyn CsModel,
    inputs: &GraphTensors,
    cache: &GraphCache,
    query: &QueryVectors,
) -> Vec<f32> {
    predict_scores_batch(model, inputs, Some(cache), &QueryBatch::from(query))
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Batched inference, the serving path: scores `K` stacked queries in
/// one eval-mode forward pass and splits the result back into per-query
/// score vectors (batch order), bit-identical to calling
/// [`predict_scores`] per query. Without a `cache` it builds one first,
/// so the graph branch still runs only once per call.
pub fn predict_scores_batch(
    model: &dyn CsModel,
    inputs: &GraphTensors,
    cache: Option<&GraphCache>,
    batch: &QueryBatch,
) -> Vec<Vec<f32>> {
    // Batched buffers are K× the single-query sizes; with default malloc
    // tunables they round-trip through the kernel every batch (mmap/trim)
    // and the page faults dominate. Idempotent, one-time tuning.
    qdgnn_tensor::tune_for_batch_serving();
    let built;
    let cache = match cache {
        Some(c) => c,
        None => {
            built = model.build_graph_cache(inputs).unwrap_or_default();
            &built
        }
    };
    let logits = model.forward_batched_eval(inputs, cache, batch);
    let _t = qdgnn_obs::op_timer("tensor.sigmoid");
    logits
        .as_slice()
        .chunks(batch.n().max(1))
        .map(|block| block.iter().map(|&x| qdgnn_tensor::ops::sigmoid(x)).collect())
        .collect()
}
