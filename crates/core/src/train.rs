//! The offline model-training stage (§4.2) and the tape reference of the
//! online query stage.
//!
//! Training minimizes the BCE loss (Eq. 3) over the training queries with
//! Adam; gradients for the queries of a mini-batch are computed on
//! crossbeam worker threads against shared `Arc` parameters and reduced
//! in a fixed order, so runs are deterministic for a given seed and
//! thread-independent. Periodically the trainer scores the validation
//! queries through the serving executor, sweeps the threshold γ, and
//! keeps the best-performing weights/γ (the paper selects both on
//! validation).

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use qdgnn_data::Query;
use qdgnn_graph::graph::Subgraph;
use qdgnn_graph::{CommunityMetrics, VertexId};
use qdgnn_nn::{positive_class_weights, Mode};
use qdgnn_tensor::{Adam, AdamConfig, Dense, GradStore, Tape};

use crate::inputs::{GraphTensors, QueryBatch, QueryVectors};
use crate::models::{predict_scores, predict_scores_batch, CsModel};
use crate::serve::{identify_query, try_encode_query, OnlineStage};

/// Training-stage hyper-parameters (§7.1.6 defaults).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Training epochs (paper: 300).
    pub epochs: usize,
    /// Queries per optimizer step (paper: batch size 4).
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
    /// Worker threads for per-query gradients (0 = available parallelism).
    pub threads: usize,
    /// Validate (and possibly checkpoint) every this many epochs.
    pub validate_every: usize,
    /// Threshold grid swept on validation (paper §7.5.2: 0.05–0.95).
    pub gamma_grid: Vec<f32>,
    /// Global-norm gradient clip (`None` disables).
    pub clip: Option<f32>,
    /// Early stopping: abort when this many consecutive validations fail
    /// to improve the best F1 (`None` runs all epochs, as the paper does).
    pub patience: Option<usize>,
    /// Shuffling / dropout seed.
    pub seed: u64,
    /// Loss-divergence trigger: an epoch whose mean loss is non-finite or
    /// exceeds this factor times the best epoch loss so far rolls training
    /// back to the last good state and halves the learning rate.
    pub divergence_factor: f32,
    /// Rollback budget: once exhausted, training stops early with the best
    /// weights found so far and [`TrainReport::diverged`] set.
    pub max_recoveries: usize,
    /// Crash-resume checkpoint file, written atomically during training
    /// (`None` disables; see [`Trainer::resume_from`]).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Write the crash-resume checkpoint every this many epochs.
    pub checkpoint_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 300,
            batch_size: 4,
            lr: 1e-3,
            threads: 0,
            validate_every: 10,
            gamma_grid: default_gamma_grid(),
            clip: Some(5.0),
            patience: None,
            seed: 0xABCD,
            divergence_factor: 4.0,
            max_recoveries: 3,
            checkpoint_path: None,
            checkpoint_every: 10,
        }
    }
}

/// The γ grid of §7.5.2: 0.05, 0.10, …, 0.95.
pub fn default_gamma_grid() -> Vec<f32> {
    (1..=19).map(|i| i as f32 * 0.05).collect()
}

impl TrainConfig {
    /// A fast profile for tests/examples: fewer epochs, coarse γ grid.
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 40,
            validate_every: 8,
            gamma_grid: vec![0.3, 0.5, 0.7],
            ..Default::default()
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Best validation micro-F1 observed.
    pub best_val_f1: f64,
    /// The γ achieving it (carried into the online query stage).
    pub best_gamma: f32,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f32>,
    /// `(epoch, validation F1)` at each validation point — the data behind
    /// the paper's epoch-sweep ablation (Figure 10a).
    pub val_history: Vec<(usize, f64)>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Optimizer steps skipped because the batch loss or gradients were
    /// non-finite (each skip protects the Adam moments from poisoning).
    pub skipped_steps: usize,
    /// Divergence rollbacks performed (each halves the learning rate).
    pub recoveries: usize,
    /// Checkpoint writes that failed (training continues in memory; each
    /// failure is also counted on the `train.checkpoint_write_failures`
    /// metric). Not carried across resume — counts this run only.
    pub checkpoint_write_failures: usize,
    /// Whether training stopped early because the rollback budget
    /// ([`TrainConfig::max_recoveries`]) was exhausted. The returned
    /// weights are still the best observed on validation.
    pub diverged: bool,
}

/// A trained model bundled with its selected threshold.
pub struct TrainedModel<M> {
    /// The model, restored to its best-on-validation weights.
    pub model: M,
    /// The selected threshold γ.
    pub gamma: f32,
    /// The training report.
    pub report: TrainReport,
}

/// Per-query result of a gradient worker.
struct WorkerResult {
    loss: f32,
    grads: GradStore,
    bn_stats: Vec<(usize, qdgnn_nn::BnStats)>,
}

/// One prepared training example: its graph context (the whole graph for
/// ordinary training, a per-query candidate subgraph for §7.4's
/// large-graph mechanism), the vectorized query, and the target.
pub(crate) struct TrainItem {
    pub tensors: GraphTensors,
    pub qv: QueryVectors,
    pub target: Arc<Dense>,
    pub weights: Option<Arc<Dense>>,
}

impl TrainItem {
    /// Prepares a query against a graph context.
    pub(crate) fn prepare(model: &dyn CsModel, tensors: &GraphTensors, q: &Query) -> Self {
        let qv = encode_query(model, tensors, q);
        let target = target_vector(tensors.n, &q.truth);
        let weights = positive_class_weights(&target, model.config().class_balance);
        TrainItem { tensors: tensors.clone(), qv, target: Arc::new(target), weights }
    }
}

/// Mutable training state that survives a crash: everything
/// [`run_training`] needs to continue a run exactly where a checkpoint
/// left it (see [`crate::persist::save_train_checkpoint`]).
pub(crate) struct ResumeState {
    /// Epochs already completed (the next epoch to run).
    pub epochs_done: usize,
    /// Learning rate at checkpoint time (may have been halved by
    /// divergence recovery).
    pub lr: f32,
    /// Optimizer moments and step counter.
    pub adam: qdgnn_tensor::AdamState,
    /// Divergence rollbacks performed so far.
    pub recoveries: usize,
    /// Non-finite steps skipped so far.
    pub skipped_steps: usize,
    /// Consecutive stale validations (early-stopping state).
    pub stale_validations: usize,
    /// Mean loss per completed epoch.
    pub loss_history: Vec<f32>,
    /// `(epoch, F1)` per completed validation.
    pub val_history: Vec<(usize, f64)>,
    /// Best `(F1, γ, weights)` observed on validation.
    pub best: (f64, f32, Option<crate::models::Checkpoint>),
}

/// Deterministic per-epoch batch order. Reseeding from
/// `(seed, epoch, recoveries)` instead of threading one RNG through the
/// whole run makes the order reproducible from a checkpoint: a resumed
/// run visits the remaining epochs in exactly the order the uninterrupted
/// run would have.
fn epoch_order(len: usize, seed: u64, epoch: usize, recoveries: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(
        seed ^ (epoch as u64 ^ ((recoveries as u64) << 48)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    order.shuffle(&mut rng);
    order
}

/// The generic training loop shared by [`Trainer`] and the subgraph
/// trainer: mini-batch Adam over `items`, sweeping γ on `val`
/// periodically to pick the checkpoint to keep.
///
/// Fault tolerance (all bounded, all reported in [`TrainReport`]):
/// * a batch whose loss or reduced gradients are non-finite is skipped,
///   protecting the parameters and Adam moments;
/// * an epoch whose mean loss is non-finite or explodes past
///   [`TrainConfig::divergence_factor`] × the best epoch loss rolls the
///   model and optimizer back to the last good epoch and halves the
///   learning rate, up to [`TrainConfig::max_recoveries`] times;
/// * when [`TrainConfig::checkpoint_path`] is set, the full training
///   state is written (atomically) every
///   [`TrainConfig::checkpoint_every`] epochs for crash-resume.
pub(crate) fn run_training<M: CsModel>(
    mut model: M,
    items: &[TrainItem],
    cfg: &TrainConfig,
    val: &Validation<'_>,
    resume: Option<ResumeState>,
) -> TrainedModel<M> {
    assert!(!items.is_empty(), "training set must be non-empty");
    // Wall-clock reporting goes through the injectable obs clock (QD007)
    // so fake-clock tests cover `train_seconds` too.
    let start_us = qdgnn_obs::clock::wall_micros();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        cfg.threads
    };

    let mut opt = Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() }, model.store());
    let start_epoch;
    let mut loss_history;
    let mut val_history: Vec<(usize, f64)>;
    let mut best: (f64, f32, Option<crate::models::Checkpoint>);
    let mut stale_validations;
    let mut recoveries;
    let mut skipped_steps;
    match resume {
        Some(state) => {
            start_epoch = state.epochs_done;
            opt.restore_state(state.adam);
            opt.set_lr(state.lr);
            loss_history = state.loss_history;
            val_history = state.val_history;
            best = state.best;
            stale_validations = state.stale_validations;
            recoveries = state.recoveries;
            skipped_steps = state.skipped_steps;
        }
        None => {
            start_epoch = 0;
            loss_history = Vec::with_capacity(cfg.epochs);
            val_history = Vec::new();
            best = (-1.0, 0.5, None);
            stale_validations = 0;
            recoveries = 0;
            skipped_steps = 0;
        }
    }
    let mut epochs_run = start_epoch;
    let mut diverged = false;
    let mut checkpoint_write_failures = 0usize;
    // Last known-good state for divergence rollback; starts at the
    // initial (or resumed) state so even an epoch-0 explosion recovers.
    let mut good = (model.checkpoint(), opt.state());
    // Monotonic optimizer-step-attempt counter (never rewinds on
    // rollback) — the fault-injection harness keys on it.
    #[cfg(feature = "chaos")]
    let mut step_attempts: u64 = 0;

    for epoch in start_epoch..cfg.epochs {
        let _epoch_span = qdgnn_obs::span!("train.epoch_time");
        epochs_run = epoch + 1;
        let order = epoch_order(items.len(), cfg.seed, epoch, recoveries);
        let mut epoch_loss = 0.0f64;
        let mut counted = 0usize;
        for (batch_no, batch) in order.chunks(cfg.batch_size).enumerate() {
            let results: Mutex<Vec<(usize, WorkerResult)>> =
                Mutex::new(Vec::with_capacity(batch.len()));
            let model_ref = &model;
            crossbeam::thread::scope(|scope| {
                for chunk in batch.chunks(batch.len().div_ceil(threads).max(1)) {
                    let results = &results;
                    scope.spawn(move |_| {
                        for &qidx in chunk {
                            let item = &items[qidx];
                            let wr = query_gradients(
                                model_ref,
                                item,
                                cfg.seed
                                    ^ ((epoch as u64) << 32)
                                    ^ ((batch_no as u64) << 16)
                                    ^ qidx as u64,
                            );
                            results.lock().push((qidx, wr));
                        }
                    });
                }
            })
            .expect("gradient worker panicked");
            let mut results = results.into_inner();
            // Fixed reduction order for determinism.
            results.sort_by_key(|(key, _)| *key);

            let mut grads = GradStore::for_store(model.store());
            let mut all_stats = Vec::new();
            let mut batch_loss = 0.0f64;
            for (_, wr) in results {
                batch_loss += wr.loss as f64;
                grads.merge(wr.grads);
                all_stats.extend(wr.bn_stats);
            }
            grads.scale(1.0 / batch.len() as f32);
            #[cfg(feature = "chaos")]
            {
                step_attempts += 1;
                crate::faultless::mutate_gradients(step_attempts, &mut grads);
            }
            // NaN/Inf guard: one poisoned step would corrupt the Adam
            // moments for good, so drop it instead of applying it.
            if !batch_loss.is_finite() || !grads.all_finite() {
                skipped_steps += 1;
                qdgnn_obs::event(
                    "train.step_skipped",
                    &[("epoch", epoch as f64), ("batch", batch_no as f64)],
                );
                continue;
            }
            // Gradient norm is computed only to feed the metric; the
            // `const` guard folds the whole block away in plain builds.
            if qdgnn_obs::enabled() {
                qdgnn_obs::observe("train.grad_norm", grads.global_norm() as f64);
            }
            if let Some(max_norm) = cfg.clip {
                grads.clip_global_norm(max_norm);
            }
            opt.step(model.store_mut(), &grads);
            model.apply_bn_stats(&all_stats);
            #[cfg(feature = "sanitize")]
            sanitize_check_params(model.store());
            epoch_loss += batch_loss;
            counted += batch.len();
        }
        let reference = loss_history.iter().copied().filter(|l| l.is_finite()).reduce(f32::min);
        let mean =
            if counted > 0 { (epoch_loss / counted as f64) as f32 } else { f32::NAN };
        loss_history.push(mean);
        qdgnn_obs::event(
            "train.epoch",
            &[("epoch", epoch as f64), ("loss", mean as f64), ("lr", opt.lr() as f64)],
        );
        qdgnn_obs::gauge("train.loss").set(mean as f64);
        qdgnn_obs::gauge("train.lr").set(opt.lr() as f64);

        // Divergence detection: roll back to the last good epoch with a
        // halved learning rate rather than letting a blown-up run burn
        // the remaining epochs.
        let exploded = !mean.is_finite()
            || reference.is_some_and(|r| mean > cfg.divergence_factor * r.max(0.1));
        if exploded {
            recoveries += 1;
            if recoveries > cfg.max_recoveries {
                diverged = true;
                break;
            }
            model.restore(&good.0);
            opt.restore_state(good.1.clone());
            opt.set_lr(opt.lr() * 0.5);
            qdgnn_obs::event(
                "train.divergence_rollback",
                &[
                    ("epoch", epoch as f64),
                    ("recoveries", recoveries as f64),
                    ("lr", opt.lr() as f64),
                ],
            );
            continue;
        }
        good = (model.checkpoint(), opt.state());

        let is_last = epoch + 1 == cfg.epochs;
        if is_last || (epoch + 1) % cfg.validate_every == 0 {
            if let Some((gamma, f1)) = val.select_gamma(&model, &cfg.gamma_grid) {
                val_history.push((epoch + 1, f1));
                qdgnn_obs::event(
                    "train.validate",
                    &[("epoch", (epoch + 1) as f64), ("f1", f1), ("gamma", gamma as f64)],
                );
                if f1 > best.0 {
                    best = (f1, gamma, Some(model.checkpoint()));
                    stale_validations = 0;
                } else {
                    stale_validations += 1;
                    if cfg.patience.is_some_and(|p| stale_validations >= p) {
                        break;
                    }
                }
            }
        }

        if let Some(path) = &cfg.checkpoint_path {
            if cfg.checkpoint_every > 0 && (epoch + 1) % cfg.checkpoint_every == 0 {
                let state = ResumeState {
                    epochs_done: epoch + 1,
                    lr: opt.lr(),
                    adam: opt.state(),
                    recoveries,
                    skipped_steps,
                    stale_validations,
                    loss_history: loss_history.clone(),
                    val_history: val_history.clone(),
                    best: (best.0, best.1, best.2.clone()),
                };
                // A failed checkpoint write must not kill training — the
                // run is still making progress in memory. The failure is
                // counted (metric + report) rather than printed so library
                // code stays quiet on stderr (QD006); harnesses surface the
                // count in their end-of-run summary.
                match crate::persist::save_train_checkpoint(path, &model, &state) {
                    Ok(()) => {
                        qdgnn_obs::event("train.checkpoint_write", &[("epoch", (epoch + 1) as f64)]);
                    }
                    Err(_) => {
                        checkpoint_write_failures += 1;
                        qdgnn_obs::counter("train.checkpoint_write_failures").inc();
                        qdgnn_obs::event(
                            "train.checkpoint_write_failed",
                            &[("epoch", (epoch + 1) as f64)],
                        );
                    }
                }
            }
        }
    }

    if let Some(ckpt) = &best.2 {
        model.restore(ckpt);
    }
    let report = TrainReport {
        epochs_run,
        best_val_f1: best.0.max(0.0),
        best_gamma: best.1,
        loss_history,
        val_history,
        train_seconds: qdgnn_obs::clock::wall_micros().saturating_sub(start_us) as f64 / 1e6,
        skipped_steps,
        recoveries,
        checkpoint_write_failures,
        diverged,
    };
    // Mirror the report's terminal fields as gauges so a scrape after
    // training sees the same numbers the report prints (the serving
    // engine does the same with its `EngineStats`).
    qdgnn_obs::gauge("train.report.epochs_run").set(report.epochs_run as f64);
    qdgnn_obs::gauge("train.report.best_val_f1").set(report.best_val_f1);
    qdgnn_obs::gauge("train.report.best_gamma").set(report.best_gamma as f64);
    qdgnn_obs::gauge("train.report.train_seconds").set(report.train_seconds);
    qdgnn_obs::gauge("train.report.skipped_steps").set(report.skipped_steps as f64);
    qdgnn_obs::gauge("train.report.recoveries").set(report.recoveries as f64);
    qdgnn_obs::gauge("train.report.checkpoint_write_failures")
        .set(report.checkpoint_write_failures as f64);
    qdgnn_obs::gauge("train.report.diverged").set(f64::from(u8::from(report.diverged)));
    TrainedModel { model, gamma: best.1, report }
}

/// The offline trainer of §4.2.
#[derive(Clone, Debug, Default)]
pub struct Trainer {
    /// Training hyper-parameters.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains `model` on `train` queries, selecting weights and γ on
    /// `val`; consumes and returns the model with its threshold.
    ///
    /// # Panics
    /// Panics if `train` is empty.
    pub fn train<M: CsModel>(
        &self,
        model: M,
        tensors: &GraphTensors,
        train: &[Query],
        val: &[Query],
    ) -> TrainedModel<M> {
        let items: Vec<TrainItem> =
            train.iter().map(|q| TrainItem::prepare(&model, tensors, q)).collect();
        run_training(model, &items, &self.config, &Validation::whole_graph(tensors, val), None)
    }

    /// Continues a crashed or killed training run from the checkpoint a
    /// previous run wrote via [`TrainConfig::checkpoint_path`]. `model`
    /// must be freshly constructed with the same configuration and graph
    /// dimensions; its weights are replaced by the checkpoint's in-flight
    /// weights before the remaining epochs run.
    ///
    /// Batch order and dropout streams are derived statelessly from
    /// `(seed, epoch)`, and the checkpoint carries the optimizer moments,
    /// histories and best-on-validation snapshot — so a resumed run
    /// replays the remaining epochs exactly as the uninterrupted run
    /// would have, ending in the same final weight/γ selection.
    ///
    /// # Errors
    /// Returns [`crate::error::QdgnnError::InvalidData`] if the
    /// checkpoint is corrupt, truncated, or does not match `model`.
    pub fn resume_from<M: CsModel>(
        &self,
        path: impl AsRef<std::path::Path>,
        mut model: M,
        tensors: &GraphTensors,
        train: &[Query],
        val: &[Query],
    ) -> crate::error::Result<TrainedModel<M>> {
        let state = crate::persist::load_train_checkpoint(path, &mut model)?;
        let items: Vec<TrainItem> =
            train.iter().map(|q| TrainItem::prepare(&model, tensors, q)).collect();
        let val = Validation::whole_graph(tensors, val);
        Ok(run_training(model, &items, &self.config, &val, Some(state)))
    }

    /// The model-update mechanism sketched in the paper's conclusion: as
    /// the deployed system collects more historical queries, fold them in
    /// as additional training data, **warm-starting** from the already
    /// trained weights instead of retraining from scratch.
    ///
    /// The previous weights are kept as the validation baseline: if the
    /// update never beats them on `val`, the original weights and γ are
    /// restored, so an update cannot make the deployed model worse on the
    /// validation distribution.
    pub fn update<M: CsModel>(
        &self,
        trained: TrainedModel<M>,
        tensors: &GraphTensors,
        original_queries: &[Query],
        new_queries: &[Query],
        val: &[Query],
    ) -> TrainedModel<M> {
        let TrainedModel { model, gamma: old_gamma, report: old_report } = trained;
        let baseline_ckpt = model.checkpoint();
        let validation = Validation::whole_graph(tensors, val);
        // The baseline is the old weights' F1 at the old γ: a sweep over
        // that one threshold.
        let baseline_f1 = validation.select_gamma(&model, &[old_gamma]).map_or(0.0, |(_, f1)| f1);
        let all: Vec<Query> =
            original_queries.iter().chain(new_queries).cloned().collect();
        let items: Vec<TrainItem> =
            all.iter().map(|q| TrainItem::prepare(&model, tensors, q)).collect();
        let mut updated = run_training(model, &items, &self.config, &validation, None);
        if !val.is_empty() && updated.report.best_val_f1 < baseline_f1 {
            // The update regressed: keep serving the original model.
            updated.model.restore(&baseline_ckpt);
            updated.gamma = old_gamma;
            updated.report.best_val_f1 = baseline_f1;
            updated.report.best_gamma = old_gamma;
            updated.report.train_seconds += old_report.train_seconds;
        }
        updated
    }
}

/// Computes one query's loss, parameter gradients and BN statistics.
fn query_gradients<M: CsModel>(model: &M, item: &TrainItem, rng_seed: u64) -> WorkerResult {
    let mut tape = Tape::new();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let out = model.forward(&mut tape, &item.tensors, &item.qv, Mode::Train, &mut rng);
    let loss =
        qdgnn_nn::bce_loss(&mut tape, out.logits, Arc::clone(&item.target), item.weights.clone());
    let loss_value = tape.value(loss).get(0, 0);
    let mut grads = tape.backward(loss);
    let mut store_grads = GradStore::for_store(model.store());
    for (var, pid) in out.leaves {
        if let Some(g) = grads.take(var) {
            #[cfg(feature = "sanitize")]
            if qdgnn_tensor::sanitize::enabled()
                && g.as_slice().iter().any(|v| !v.is_finite())
            {
                panic!(
                    "sanitize: gradient for parameter `{}` is non-finite",
                    model.store().name(pid)
                );
            }
            store_grads.accumulate(pid, g);
        }
    }
    WorkerResult { loss: loss_value, grads: store_grads, bn_stats: out.bn_stats }
}

/// Post-step sanitizer: every parameter must remain finite after an
/// optimizer update, so Adam-moment corruption is caught at the step
/// that caused it (with the parameter's name) rather than epochs later.
#[cfg(feature = "sanitize")]
fn sanitize_check_params(store: &qdgnn_tensor::ParamStore) {
    if !qdgnn_tensor::sanitize::enabled() {
        return;
    }
    for (_, name, value) in store.iter() {
        if let Some(v) = value.as_slice().iter().find(|v| !v.is_finite()) {
            panic!("sanitize: parameter `{name}` became non-finite ({v}) after an optimizer step");
        }
    }
}

/// Encodes a trusted query for `model` (training and validation data,
/// whose ids were produced against this graph) through the serving
/// encoder, which drops attributes for models that cannot consume them,
/// as QD-GNN handles EmA queries.
///
/// # Panics
/// Panics if the query is empty or an id is out of range.
pub fn encode_query(model: &dyn CsModel, tensors: &GraphTensors, q: &Query) -> QueryVectors {
    match try_encode_query(model, tensors, q) {
        Ok(qv) => qv,
        Err(e) => panic!("invalid training query: {e}"),
    }
}

/// One-hot ground-truth community vector `y_q` (n×1).
pub fn target_vector(n: usize, truth: &[VertexId]) -> Dense {
    let mut y = Dense::zeros(n, 1);
    for &v in truth {
        y.set(v as usize, 0, 1.0);
    }
    y
}

/// The reference answer for one query: the eval-mode tape forward
/// ([`predict_scores`]) followed by the constrained BFS. Nothing serves
/// through it; [`OnlineStage`] must agree with it bit for bit, and tests
/// and the benchmark's answer check use it as the oracle.
pub fn predict_community(
    model: &dyn CsModel,
    tensors: &GraphTensors,
    q: &Query,
    gamma: f32,
) -> Vec<VertexId> {
    let scores = predict_scores(model, tensors, &encode_query(model, tensors, q));
    identify_query(model, tensors, q, &scores, gamma)
}

/// A validation set in the graph contexts its queries are answered in:
/// the whole graph for ordinary training, or one §7.4 candidate subgraph
/// per query. Each context holds its queries in its own vertex ids and,
/// for a candidate, the map back to global ids; the truth is global.
pub(crate) struct Validation<'a> {
    contexts: Vec<(&'a GraphTensors, &'a [Query], Option<&'a Subgraph>)>,
    truth: Vec<Vec<VertexId>>,
}

impl<'a> Validation<'a> {
    /// Validation on the whole graph.
    pub(crate) fn whole_graph(tensors: &'a GraphTensors, val: &'a [Query]) -> Self {
        Validation {
            contexts: vec![(tensors, val, None)],
            truth: val.iter().map(|q| q.truth.clone()).collect(),
        }
    }

    /// Validation on per-query contexts, each one query in local ids with
    /// its map to global ids; `global` holds the same queries in global
    /// ids, for the truth.
    pub(crate) fn per_query(
        contexts: impl IntoIterator<Item = (&'a GraphTensors, &'a Query, &'a Subgraph)>,
        global: &[Query],
    ) -> Self {
        Validation {
            contexts: contexts
                .into_iter()
                .map(|(t, q, map)| (t, std::slice::from_ref(q), Some(map)))
                .collect(),
            truth: global.iter().map(|q| q.truth.clone()).collect(),
        }
    }

    /// Scores every query once through the serving executor (one Graph
    /// Encoder cache per context, stacked chunks of
    /// [`OnlineStage::EVAL_CHUNK`]), then sweeps `grid`: returns the first
    /// γ with the best micro-F1 against the global truth, and that F1.
    /// `None` for an empty set.
    pub(crate) fn select_gamma(&self, model: &dyn CsModel, grid: &[f32]) -> Option<(f32, f64)> {
        if self.truth.is_empty() {
            return None;
        }
        let mut scored = Vec::with_capacity(self.truth.len());
        for &(t, queries, map) in &self.contexts {
            let cache = model.build_graph_cache(t).unwrap_or_default();
            for chunk in queries.chunks(OnlineStage::EVAL_CHUNK) {
                let vectors: Vec<QueryVectors> =
                    chunk.iter().map(|q| encode_query(model, t, q)).collect();
                let batch = QueryBatch::try_stack(&vectors)
                    .expect("queries encoded against one graph stack");
                let scores = predict_scores_batch(model, t, Some(&cache), &batch);
                scored.extend(chunk.iter().zip(scores).map(|(q, s)| (t, q, map, s)));
            }
        }
        let mut best = (grid.first().copied().unwrap_or(0.5), -1.0f64);
        for &gamma in grid {
            let predicted: Vec<Vec<VertexId>> = scored
                .iter()
                .map(|&(t, q, map, ref scores)| {
                    let local = identify_query(model, t, q, scores, gamma);
                    let Some(map) = map else { return local };
                    let mut global = map.to_global(&local);
                    global.sort_unstable();
                    global
                })
                .collect();
            let f1 = CommunityMetrics::micro(&predicted, &self.truth).f1;
            if f1 > best.1 {
                best = (gamma, f1);
            }
        }
        Some((best.0, best.1.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::models::{AqdGnn, QdGnn, SimpleQdGnn};
    use qdgnn_data::{presets, queries as qgen, AttrMode};
    use qdgnn_graph::attributed::AdjNorm;

    fn toy_setup(mode: AttrMode) -> (GraphTensors, Vec<Query>, Vec<Query>, Vec<Query>) {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let all = qgen::generate(&data, 60, 1, 2, mode, 11);
        let split = qdgnn_data::QuerySplit::new(all, 30, 15, 15);
        (t, split.train, split.val, split.test)
    }

    #[test]
    fn training_reduces_loss_and_learns_toy_communities() {
        let (t, train, val, test) = toy_setup(AttrMode::Empty);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            validate_every: 10,
            ..TrainConfig::fast()
        });
        let trained = trainer.train(model, &t, &train, &val);
        let first = trained.report.loss_history[0];
        let last = *trained.report.loss_history.last().unwrap();
        assert!(last < first, "loss should decrease: {first} → {last}");
        let metrics = OnlineStage::new(&trained.model, &t, trained.gamma).evaluate(&test);
        assert!(
            metrics.f1 > 0.5,
            "QD-GNN should learn toy communities, got F1={:.3}",
            metrics.f1
        );
    }

    #[test]
    fn aqdgnn_trains_on_attributed_queries() {
        let (t, train, val, test) = toy_setup(AttrMode::FromCommunity);
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let trainer = Trainer::new(TrainConfig { epochs: 30, ..TrainConfig::fast() });
        let trained = trainer.train(model, &t, &train, &val);
        let metrics = OnlineStage::new(&trained.model, &t, trained.gamma).evaluate(&test);
        assert!(
            metrics.f1 > 0.5,
            "AQD-GNN should learn toy communities, got F1={:.3}",
            metrics.f1
        );
    }

    #[test]
    fn simple_model_also_trains() {
        let (t, train, val, _) = toy_setup(AttrMode::Empty);
        let model = SimpleQdGnn::new(ModelConfig::fast());
        let trainer = Trainer::new(TrainConfig { epochs: 15, ..TrainConfig::fast() });
        let trained = trainer.train(model, &t, &train, &val);
        assert!(trained.report.best_val_f1 > 0.0);
        assert!(trained.report.loss_history.len() == 15);
    }

    #[test]
    fn training_is_deterministic() {
        let (t, train, val, _) = toy_setup(AttrMode::Empty);
        let cfg = TrainConfig { epochs: 5, ..TrainConfig::fast() };
        let run = |threads: usize| {
            let model = QdGnn::new(ModelConfig::fast(), t.d);
            let trainer = Trainer::new(TrainConfig { threads, ..cfg.clone() });
            let trained = trainer.train(model, &t, &train, &val);
            trained.report.loss_history.clone()
        };
        assert_eq!(run(1), run(1), "same-thread runs must be identical");
    }

    #[test]
    fn early_stopping_halts_stale_training() {
        let (t, train, val, _) = toy_setup(AttrMode::Empty);
        let cfg = TrainConfig {
            epochs: 60,
            validate_every: 2,
            patience: Some(3),
            ..TrainConfig::fast()
        };
        let trained = Trainer::new(cfg).train(
            QdGnn::new(ModelConfig::fast(), t.d),
            &t,
            &train,
            &val,
        );
        assert!(
            trained.report.epochs_run < 60,
            "toy data saturates quickly; patience should cut training short"
        );
        assert!(trained.report.best_val_f1 > 0.4);
    }

    #[test]
    fn model_update_with_new_queries_does_not_regress() {
        let (t, train, val, test) = toy_setup(AttrMode::FromCommunity);
        let trainer = Trainer::new(TrainConfig { epochs: 15, ..TrainConfig::fast() });
        let initial = trainer.train(
            AqdGnn::new(ModelConfig::fast(), t.d),
            &t,
            &train[..10],
            &val,
        );
        let f1_initial = OnlineStage::new(&initial.model, &t, initial.gamma).evaluate(&test).f1;
        // New "historical" queries arrive; warm-start update.
        let updated = trainer.update(initial, &t, &train[..10], &train[10..], &val);
        let f1_updated = OnlineStage::new(&updated.model, &t, updated.gamma).evaluate(&test).f1;
        // The guard guarantees no regression on validation; on test we
        // allow slack but expect the update to roughly hold or improve.
        assert!(
            f1_updated >= f1_initial - 0.1,
            "update regressed: {f1_initial:.3} → {f1_updated:.3}"
        );
        assert!(updated.report.best_val_f1 > 0.0);
    }

    #[test]
    fn regressing_update_restores_original_weights() {
        let (t, train, val, _) = toy_setup(AttrMode::Empty);
        let trainer = Trainer::new(TrainConfig { epochs: 20, ..TrainConfig::fast() });
        let initial = trainer.train(
            QdGnn::new(ModelConfig::fast(), t.d),
            &t,
            &train,
            &val,
        );
        let before = initial.model.store().snapshot();
        let before_gamma = initial.gamma;
        let baseline_f1 = OnlineStage::new(&initial.model, &t, initial.gamma).evaluate(&val).f1;
        // Destructive update: degenerate ground truth plus a huge learning
        // rate wreck the weights, so the update's validation F1 drops
        // below the baseline and the guard must restore the original.
        let poison: Vec<Query> = train
            .iter()
            .take(8)
            .map(|q| Query { truth: q.vertices.clone(), ..q.clone() })
            .collect();
        let bad_trainer =
            Trainer::new(TrainConfig { epochs: 6, lr: 0.8, ..TrainConfig::fast() });
        let updated = bad_trainer.update(initial, &t, &[], &poison, &val);
        let after_f1 = OnlineStage::new(&updated.model, &t, updated.gamma).evaluate(&val).f1;
        assert!(after_f1 + 1e-9 >= baseline_f1, "guard must prevent regression");
        assert_eq!(
            updated.report.best_val_f1, baseline_f1,
            "expected the poisoned update to trigger the restore path"
        );
        assert_eq!(updated.gamma, before_gamma);
        let after = updated.model.store().snapshot();
        for (a, b) in before.iter().zip(&after) {
            assert!(a.approx_eq(b, 0.0), "weights must be restored exactly");
        }
    }

    #[test]
    fn target_vector_marks_members() {
        let y = target_vector(4, &[1, 3]);
        assert_eq!(y.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn select_gamma_returns_grid_member() {
        let (t, train, ..) = toy_setup(AttrMode::Empty);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let grid = [0.25, 0.5, 0.75];
        let (gamma, f1) =
            Validation::whole_graph(&t, &train[..5]).select_gamma(&model, &grid).unwrap();
        assert!(grid.contains(&gamma));
        assert!((0.0..=1.0).contains(&f1));
    }
}
