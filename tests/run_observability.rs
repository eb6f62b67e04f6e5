//! Run-registry integration: the step-indexed series journal written
//! through the process-global sink must be resume-continuous — a
//! checkpointed run killed part-way and resumed with
//! `Trainer::resume_from` must leave a `series.ndjson` byte-identical
//! to the journal of an uninterrupted run, with the resumed run's
//! manifest recording its parent in `resumed_from`.

use std::path::PathBuf;
use std::sync::Arc;

use qdgnn::obs::runs::{self, RunRecorder};
use qdgnn::obs::series::SeriesStore;
use qdgnn::prelude::*;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdgnn-runobs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp run root");
    dir
}

#[test]
fn resumed_run_journal_is_byte_identical_to_uninterrupted_run() {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors =
        GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let queries = qdgnn::data::queries::generate(&data, 40, 1, 2, AttrMode::Empty, 13);
    let split = QuerySplit::new(queries, 20, 10, 10);

    let base = TrainConfig {
        epochs: 10,
        validate_every: 5,
        threads: 1,
        gamma_grid: vec![0.3, 0.5, 0.7],
        ..TrainConfig::default()
    };

    // Reference: one uninterrupted 10-epoch run journaled under root A.
    let root_a = tmp_root("full");
    let rec = Arc::new(RunRecorder::create(&root_a, 13, "toy", "cfg").unwrap());
    let full_id = rec.id().to_string();
    runs::install(rec);
    Trainer::new(base.clone()).train(
        QdGnn::new(config.clone(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    runs::uninstall();
    let full_journal =
        std::fs::read_to_string(root_a.join(&full_id).join("series.ndjson")).unwrap();
    assert!(!full_journal.is_empty(), "the trainer must journal through the sink");
    let full_store = SeriesStore::from_ndjson(&full_journal).expect("journal validator-clean");
    assert!(full_store.names().contains(&"train.loss"));
    assert!(
        full_store.names().contains(&"train.val_f1"),
        "validate_every=5 over 10 epochs must journal validation series: {:?}",
        full_store.names()
    );

    // "Killed" run under root B: dies after the epoch-5 checkpoint; all
    // that survives is the checkpoint and the journal written so far.
    let root_b = tmp_root("killed");
    let ckpt = root_b.join("run.ckpt");
    let killed_cfg = TrainConfig {
        epochs: 5,
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 5,
        ..base.clone()
    };
    let rec = Arc::new(RunRecorder::create(&root_b, 13, "toy", "cfg").unwrap());
    let parent_id = rec.id().to_string();
    runs::install(rec);
    Trainer::new(killed_cfg).train(
        QdGnn::new(config.clone(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    runs::uninstall();
    assert!(ckpt.exists(), "checkpoint must have been written at epoch 5");

    // Resume: a new run id whose journal starts as a copy of the
    // parent's; the trainer truncates it at the resume epoch and
    // replays the remaining epochs.
    let rec = Arc::new(RunRecorder::resume(&root_b, &parent_id).unwrap());
    let child_id = rec.id().to_string();
    assert_ne!(child_id, parent_id, "a resumed run gets a fresh id");
    assert_eq!(rec.manifest().resumed_from.as_deref(), Some(parent_id.as_str()));
    runs::install(rec);
    Trainer::new(base)
        .resume_from(
            &ckpt,
            QdGnn::new(config, tensors.d),
            &tensors,
            &split.train,
            &split.val,
        )
        .expect("valid checkpoint must resume");
    runs::uninstall();

    let child_journal =
        std::fs::read_to_string(root_b.join(&child_id).join("series.ndjson")).unwrap();
    // The resume contract: prefix + replay reproduces the uninterrupted
    // journal byte for byte, and the result has no duplicate or
    // regressed steps (from_ndjson rejects both).
    assert_eq!(
        child_journal, full_journal,
        "resumed journal must be byte-identical to the uninterrupted run's"
    );
    SeriesStore::from_ndjson(&child_journal).expect("resumed journal validator-clean");

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}
