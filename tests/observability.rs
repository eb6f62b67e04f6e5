//! Observability integration: the obs layer must record the documented
//! spans/metrics during serving, survive JSONL round-trips, and — the
//! hard requirement — leave crash-resume bit-identity untouched while
//! fully instrumented.
//!
//! These tests adapt to the build: with the `obs` feature off (plain
//! `cargo test -p qdgnn`) the recording assertions are skipped and only
//! the determinism/no-op contracts are checked.

use std::sync::{Mutex, MutexGuard};

use qdgnn::prelude::*;

/// The obs registry is process-global; tests touching it serialize here.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn toy_split() -> (GraphTensors, QuerySplit) {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors =
        GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let queries = qdgnn::data::queries::generate(&data, 40, 1, 2, AttrMode::FromCommunity, 17);
    (tensors, QuerySplit::new(queries, 20, 10, 10))
}

/// Crash-resume must stay bit-identical with the full instrumentation
/// stack live (spans, event buffering, per-op tape timers): the metrics
/// layer observes time but the computation must never depend on it.
#[test]
fn instrumented_resume_is_bit_identical() {
    let _l = obs_lock();
    qdgnn_obs::reset();
    qdgnn_obs::record_events(true);

    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors =
        GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let queries = qdgnn::data::queries::generate(&data, 40, 1, 2, AttrMode::Empty, 13);
    let split = QuerySplit::new(queries, 20, 10, 10);

    let dir = std::env::temp_dir().join("qdgnn_obs_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    let base = TrainConfig {
        epochs: 8,
        validate_every: 4,
        threads: 1,
        gamma_grid: vec![0.3, 0.5, 0.7],
        ..TrainConfig::default()
    };
    let full = Trainer::new(base.clone()).train(
        QdGnn::new(config.clone(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    Trainer::new(TrainConfig {
        epochs: 4,
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 4,
        ..base.clone()
    })
    .train(QdGnn::new(config.clone(), tensors.d), &tensors, &split.train, &split.val);
    let resumed = Trainer::new(base)
        .resume_from(&ckpt, QdGnn::new(config, tensors.d), &tensors, &split.train, &split.val)
        .expect("valid checkpoint must resume");

    assert_eq!(resumed.report.loss_history, full.report.loss_history);
    assert_eq!(resumed.report.val_history, full.report.val_history);
    assert_eq!(resumed.gamma, full.gamma);
    let full_weights = full.model.store().snapshot();
    let resumed_weights = resumed.model.store().snapshot();
    for (a, b) in full_weights.iter().zip(&resumed_weights) {
        assert!(a.approx_eq(b, 0.0), "instrumented resume must stay bit-identical");
    }
    assert_eq!(full.report.checkpoint_write_failures, 0);

    if qdgnn_obs::enabled() {
        // Training under `--metrics-out`-style recording produced the
        // documented event stream.
        let events = qdgnn_obs::take_events();
        assert!(
            events.iter().any(|e| e.name() == "train.epoch"),
            "per-epoch events must be recorded"
        );
        let snap = qdgnn_obs::snapshot();
        assert!(snap.hist("train.epoch_time").is_some_and(|h| h.count > 0));
        assert!(snap.hist("train.grad_norm").is_some_and(|h| h.count > 0));
        assert!(snap.hist("tensor.matmul").is_some_and(|h| h.count > 0));
        assert!(snap.counter("train.checkpoint_write").unwrap_or(0) > 0);
    }
    qdgnn_obs::reset();
}

/// `TrainReport::train_seconds` reads the injectable obs wall clock, so
/// a frozen [`FakeClock`] pins it to exactly zero — in plain builds too
/// (the wall clock is compiled unconditionally, unlike the registry).
#[test]
fn train_seconds_follows_injected_wall_clock() {
    use qdgnn_obs::clock::{self, FakeClock, MonotonicClock};
    use std::sync::Arc;

    let _l = obs_lock();
    clock::set_wall(Arc::new(FakeClock::new()));
    let (tensors, split) = toy_split();
    let trained = Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::fast() }).train(
        AqdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    // `reset()` does not restore the clock in plain builds; do it by hand.
    clock::set_wall(Arc::new(MonotonicClock::new()));
    qdgnn_obs::reset();
    assert_eq!(
        trained.report.train_seconds, 0.0,
        "frozen fake clock must yield zero train_seconds"
    );
}

/// The terminal `TrainReport` fields are mirrored as `train.report.*`
/// gauges at report time, so a metrics scrape (or `--metrics-out` file)
/// carries the run outcome without parsing stdout.
#[test]
fn train_report_fields_are_mirrored_as_gauges() {
    if !qdgnn_obs::enabled() {
        return; // plain build: nothing is recorded, by design
    }
    let _l = obs_lock();
    qdgnn_obs::reset();
    let (tensors, split) = toy_split();
    let trained = Trainer::new(TrainConfig { epochs: 3, ..TrainConfig::fast() }).train(
        AqdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    let snap = qdgnn_obs::snapshot();
    let gauge =
        |n: &str| snap.gauge(n).unwrap_or_else(|| panic!("gauge {n} must be recorded"));
    let r = &trained.report;
    assert_eq!(gauge("train.report.epochs_run"), r.epochs_run as f64);
    assert_eq!(gauge("train.report.best_val_f1"), r.best_val_f1);
    assert_eq!(gauge("train.report.best_gamma"), f64::from(r.best_gamma));
    assert_eq!(gauge("train.report.train_seconds"), r.train_seconds);
    assert_eq!(gauge("train.report.skipped_steps"), r.skipped_steps as f64);
    assert_eq!(gauge("train.report.recoveries"), r.recoveries as f64);
    assert_eq!(
        gauge("train.report.checkpoint_write_failures"),
        r.checkpoint_write_failures as f64
    );
    assert_eq!(gauge("train.report.diverged"), f64::from(u8::from(r.diverged)));
    qdgnn_obs::reset();
}

/// Serving one query must produce the serve.encode / serve.forward /
/// serve.bfs breakdown nested under serve.query, plus the counters and
/// size histograms the docs promise — and the stream must survive a
/// JSONL write / validate round-trip.
#[test]
fn serving_records_stage_breakdown() {
    if !qdgnn_obs::enabled() {
        return; // plain build: nothing is recorded, by design
    }
    let _l = obs_lock();
    let (tensors, split) = toy_split();
    let trained = Trainer::new(TrainConfig { epochs: 6, ..TrainConfig::fast() }).train(
        AqdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    qdgnn_obs::reset();
    qdgnn_obs::record_events(true);

    let stage = OnlineStage::new(&trained.model, &tensors, trained.gamma);
    for q in &split.test {
        stage.try_query(q).expect("test query must serve");
    }
    let served = split.test.len() as u64;

    let events = qdgnn_obs::take_events();
    for name in ["serve.encode", "serve.forward", "serve.bfs"] {
        let spans: Vec<_> = events.iter().filter(|e| e.name() == name).collect();
        assert_eq!(spans.len() as u64, served, "one `{name}` span per query");
    }
    let parents: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            qdgnn_obs::events::Event::Span { name, parent, .. } if name == "serve.bfs" => {
                Some(parent.clone())
            }
            _ => None,
        })
        .collect();
    assert!(
        parents.iter().all(|p| p.as_deref() == Some("serve.query")),
        "stage spans must nest under serve.query: {parents:?}"
    );

    let snap = qdgnn_obs::snapshot();
    assert_eq!(snap.counter("serve.queries"), Some(served));
    assert_eq!(snap.hist("serve.query").map(|h| h.count), Some(served));
    assert_eq!(snap.hist("serve.community_size").map(|h| h.count), Some(served));
    assert!(snap.hist("identify.candidates").is_some_and(|h| h.count >= served));
    // AFC queries carry attributes, so each BFS walks the fusion graph
    // and records the attribute member lists it scanned.
    assert!(split.test.iter().all(|q| !q.attrs.is_empty()));
    assert_eq!(snap.hist("identify.attr_lists").map(|h| h.count), Some(served));

    // JSONL round-trip: the final snapshot line parses back identically.
    let line = snap.to_json();
    let back = qdgnn_obs::metrics::MetricsSnapshot::from_json(&line).unwrap();
    assert_eq!(back.to_json(), line);
    qdgnn_obs::reset();
}
