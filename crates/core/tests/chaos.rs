//! Chaos suite: drives the fault-injection harness (`faultless`) against
//! the training loop, persistence and serving, proving the system
//! degrades gracefully — poisoned steps are skipped, NaN epochs roll
//! back, damaged files are rejected with `InvalidData`, malformed
//! queries return typed errors, and nothing ever panics.
//!
//! Compiled only with `--features chaos`.
#![cfg(feature = "chaos")]

use std::sync::{Mutex, MutexGuard, OnceLock};

use qdgnn_core::config::ModelConfig;
use qdgnn_core::faultless::{self, GradFault};
use qdgnn_core::inputs::GraphTensors;
use qdgnn_core::models::QdGnn;
use qdgnn_core::persist::{load_model, save_model};
use qdgnn_core::serve::OnlineStage;
use qdgnn_core::train::{TrainConfig, Trainer};
use qdgnn_core::QdgnnError;
use qdgnn_data::{presets, queries as qgen, AttrMode, Query, QuerySplit};
use qdgnn_graph::attributed::AdjNorm;

/// The fault registry is process-global, so tests that train must not
/// interleave: each takes this lock and starts from a clean registry.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    faultless::clear();
    guard
}

fn setup() -> (GraphTensors, Vec<Query>, Vec<Query>, Vec<Query>) {
    let data = presets::toy();
    let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
    let all = qgen::generate(&data, 40, 1, 2, AttrMode::Empty, 11);
    let split = QuerySplit::new(all, 20, 10, 10);
    (t, split.train, split.val, split.test)
}

/// 20 training queries at batch size 4 → 5 optimizer step attempts per
/// epoch; 0-based epoch `e` covers attempts `e*5+1 ..= e*5+5`.
const STEPS_PER_EPOCH: u64 = 5;

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        validate_every: 4,
        threads: 1,
        gamma_grid: vec![0.3, 0.5, 0.7],
        ..TrainConfig::default()
    }
}

#[test]
fn isolated_nan_steps_are_skipped_and_f1_stays_within_noise() {
    let _guard = chaos_lock();
    let (t, train, val, test) = setup();

    let clean =
        Trainer::new(cfg(16)).train(QdGnn::new(ModelConfig::fast(), t.d), &t, &train, &val);
    assert_eq!(clean.report.skipped_steps, 0);
    assert_eq!(clean.report.recoveries, 0);
    let f1_clean = OnlineStage::new(&clean.model, &t, clean.gamma).evaluate(&test).f1;

    // Poison two isolated mid-training steps (epochs 4 and 6).
    faultless::inject_at_step(4 * STEPS_PER_EPOCH + 3, GradFault::NanGrads);
    faultless::inject_at_step(6 * STEPS_PER_EPOCH + 2, GradFault::NanGrads);
    let faulty =
        Trainer::new(cfg(16)).train(QdGnn::new(ModelConfig::fast(), t.d), &t, &train, &val);
    assert_eq!(faultless::pending(), 0, "both faults must have fired");
    assert_eq!(faulty.report.skipped_steps, 2, "each NaN step must be skipped, not applied");
    assert!(!faulty.report.diverged);
    assert_eq!(faulty.report.epochs_run, 16, "training must complete");
    let f1_faulty = OnlineStage::new(&faulty.model, &t, faulty.gamma).evaluate(&test).f1;
    assert!(
        (f1_clean - f1_faulty).abs() <= 0.2,
        "skipping two steps must stay within noise: clean {f1_clean:.3} vs faulty {f1_faulty:.3}"
    );
}

#[test]
fn fully_poisoned_epoch_rolls_back_and_training_completes() {
    let _guard = chaos_lock();
    let (t, train, val, test) = setup();

    // Every step of 0-based epoch 6 produces NaN gradients: all five are
    // skipped, the epoch's mean loss is NaN, and divergence recovery must
    // roll back to the end of epoch 5 and halve the learning rate.
    faultless::inject_at_steps(
        6 * STEPS_PER_EPOCH + 1..=7 * STEPS_PER_EPOCH,
        GradFault::NanGrads,
    );
    let report = {
        let trained =
            Trainer::new(cfg(16)).train(QdGnn::new(ModelConfig::fast(), t.d), &t, &train, &val);
        let f1 = OnlineStage::new(&trained.model, &t, trained.gamma).evaluate(&test).f1;
        assert!(f1 > 0.4, "recovered run should still learn toy communities, got {f1:.3}");
        trained.report
    };
    assert_eq!(report.skipped_steps, STEPS_PER_EPOCH as usize);
    assert!(report.recoveries >= 1, "NaN epoch must trigger a rollback");
    assert!(!report.diverged, "one rollback is within budget");
    assert_eq!(report.epochs_run, 16, "training must run to completion despite the fault");
}

#[test]
fn exhausted_recovery_budget_stops_early_with_best_weights() {
    let _guard = chaos_lock();
    let (t, train, val, _) = setup();

    // Epochs 4 and 5 fully poisoned with a budget of one recovery: the
    // second NaN epoch exhausts it and training must stop early, keeping
    // the best weights from the epoch-4 validation.
    faultless::inject_at_steps(
        4 * STEPS_PER_EPOCH + 1..=6 * STEPS_PER_EPOCH,
        GradFault::NanGrads,
    );
    let config = TrainConfig { max_recoveries: 1, ..cfg(12) };
    let trained =
        Trainer::new(config).train(QdGnn::new(ModelConfig::fast(), t.d), &t, &train, &val);
    assert!(trained.report.diverged, "budget exhaustion must be reported");
    assert!(trained.report.epochs_run < 12, "diverged training must stop early");
    assert!(
        trained.report.best_val_f1 > 0.0,
        "best weights from before the faults must be returned"
    );
    faultless::clear();
}

#[test]
fn exploded_gradients_are_neutralized_by_clipping() {
    let _guard = chaos_lock();
    let (t, train, val, _) = setup();

    faultless::inject_at_step(3 * STEPS_PER_EPOCH + 1, GradFault::ExplodeGrads(1e6));
    let trained =
        Trainer::new(cfg(8)).train(QdGnn::new(ModelConfig::fast(), t.d), &t, &train, &val);
    assert_eq!(faultless::pending(), 0);
    // The global-norm clip caps the blown-up step, so no skip and no
    // rollback are needed.
    assert_eq!(trained.report.skipped_steps, 0);
    assert_eq!(trained.report.recoveries, 0);
    assert!(!trained.report.diverged);
}

#[test]
fn damaged_model_files_are_rejected_with_invalid_data() {
    let (t, ..) = setup();
    let model = QdGnn::new(ModelConfig::fast(), t.d);
    let dir = std::env::temp_dir().join("qdgnn_chaos_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.model");
    save_model(&path, &model, 0.5).unwrap();
    let total_lines = std::fs::read_to_string(&path).unwrap().lines().count();

    faultless::corrupt_file_line(&path, total_lines / 2).unwrap();
    let mut fresh = QdGnn::new(ModelConfig::fast(), t.d);
    assert!(matches!(load_model(&path, &mut fresh), Err(QdgnnError::InvalidData(_))));

    save_model(&path, &model, 0.5).unwrap();
    faultless::truncate_file_at_line(&path, total_lines - 3).unwrap();
    assert!(matches!(load_model(&path, &mut fresh), Err(QdgnnError::InvalidData(_))));

    // The rejected loads must not have committed anything: the pristine
    // file still round-trips into the untouched model.
    save_model(&path, &model, 0.5).unwrap();
    assert!(load_model(&path, &mut fresh).is_ok());
}

#[test]
fn out_of_range_queries_get_typed_errors_not_panics() {
    let (t, ..) = setup();
    let model = QdGnn::new(ModelConfig::fast(), t.d);
    let stage = OnlineStage::new(&model, &t, 0.5);
    let bad = faultless::out_of_range_query(t.n, t.d);
    match stage.try_query(&bad) {
        Err(e) => assert!(e.is_bad_input(), "expected a bad-input error, got {e}"),
        Ok(_) => panic!("out-of-range query must be rejected"),
    }
}
