//! Cross-surface outcome accounting: every terminal disposition the
//! engine can reach — answered, rejected (queue full, shutting down),
//! shed at admission, shed at deadline — must appear with **identical
//! counts** in the engine's stats, the exemplar traces, the
//! labeled metric series, the buffered trace events, and the Prometheus
//! exposition. (The worker-panicked outcome needs fault injection and is
//! covered by the chaos suite.)
//!
//! This file is deliberately its own integration-test binary: the obs
//! registry is process-global, and the count assertions here must not
//! see series bumped by unrelated tests.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use qdgnn_core::{AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage};
use qdgnn_data::{presets, queries as qgen, AttrMode, Query};
use qdgnn_graph::attributed::AdjNorm;
use qdgnn_obs::clock::{Clock, FakeClock};
use qdgnn_serve::{ServeConfig, ServeEngine, ServeError};

fn stage_and_queries() -> (OnlineStage<'static>, Vec<Query>) {
    let data = presets::toy();
    let t = Arc::new(GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100));
    let queries = qgen::generate(&data, 8, 1, 2, AttrMode::FromCommunity, 7);
    let model: Arc<dyn CsModel> = Arc::new(AqdGnn::new(ModelConfig::fast(), t.d));
    (OnlineStage::new_shared(model, t, 0.5), queries)
}

#[test]
fn every_outcome_agrees_across_exemplars_labels_events_and_exposition() {
    qdgnn_obs::record_events(true);
    let (stage, queries) = stage_and_queries();
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::with_clock(
        stage,
        ServeConfig {
            max_batch: 8,
            max_wait_us: 500,
            // Below max_batch, so a full queue never flushes on size.
            queue_capacity: 4,
            workers: 1,
            exemplar_k: 16,
            ..ServeConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    )
    .expect("engine must start");

    // answered ×2 (tenant "acme"): one batch released by max_wait.
    let a = engine
        .submit_labeled(queries[0].clone(), Some("acme"), None)
        .expect("queue has room");
    let b = engine
        .submit_labeled(queries[1].clone(), Some("acme"), None)
        .expect("queue has room");
    clock.advance_micros(600);
    assert!(a.wait_timeout(Duration::from_secs(60)).expect("flush").is_ok());
    assert!(b.wait_timeout(Duration::from_secs(60)).expect("flush").is_ok());

    // shed_deadline ×1: a 300µs budget expires in the queue before the
    // 500µs batch deadline can release it.
    let shed = engine
        .submit_with_deadline(queries[2].clone(), Some(Duration::from_micros(300)))
        .expect("queue has room");
    clock.advance_micros(400);
    match shed.wait_timeout(Duration::from_secs(60)).expect("shed reply") {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected a dequeue-tier shed, got {other:?}"),
    }

    // answered ×1 (tenant "beta") — and teach the wait estimator that
    // queue waits run ~100ms, so the next admission check can shed.
    let slow = engine
        .submit_labeled(queries[3].clone(), Some("beta"), None)
        .expect("queue has room");
    clock.advance_micros(100_000);
    assert!(slow.wait_timeout(Duration::from_secs(60)).expect("flush").is_ok());

    // shed_admission ×1: with a request parked in the queue and the
    // estimator poisoned, a 1ms budget is rejected at the door.
    let parked = engine.submit(queries[4].clone()).expect("queue has room");
    match engine.submit_with_deadline(queries[5].clone(), Some(Duration::from_micros(1_000))) {
        Err(ServeError::DeadlineExceeded { waited_us: 0, .. }) => {}
        Err(other) => panic!("expected an admission-tier shed, got {other:?}"),
        Ok(_) => panic!("expected an admission-tier shed, got an admission"),
    }

    // rejected ×1 (queue full): three more requests fill the queue
    // behind the parked one; the frozen clock keeps them all queued.
    let mut queued = vec![parked];
    for q in &queries[..3] {
        queued.push(engine.submit(q.clone()).expect("queue has room"));
    }
    match engine.submit(queries[6].clone()) {
        Err(ServeError::QueueFull { capacity: 4 }) => {}
        Err(other) => panic!("expected QueueFull, got {other:?}"),
        Ok(_) => panic!("expected QueueFull, got an admission"),
    }

    // answered ×4 (no tenant): the queued requests drain at shutdown.
    engine.shutdown();
    for p in queued {
        assert!(p.wait().is_ok(), "accepted request must drain at shutdown");
    }

    // rejected ×1 (shutting down): no admissions after shutdown.
    match engine.submit(queries[7].clone()) {
        Err(ServeError::ShuttingDown) => {}
        Err(other) => panic!("expected ShuttingDown, got {other:?}"),
        Ok(_) => panic!("expected ShuttingDown, got an admission"),
    }

    let want: BTreeMap<&str, u64> =
        [("answered", 7), ("rejected", 2), ("shed_admission", 1), ("shed_deadline", 1)]
            .into_iter()
            .collect();

    // Surface 0 — the engine's own stats (every build).
    let stats = engine.stats();
    assert_eq!(
        (stats.rejected, stats.shed_admission, stats.shed_deadline),
        (want["rejected"], want["shed_admission"], want["shed_deadline"]),
        "EngineStats disagrees with the expected outcome counts"
    );

    // Surface 1 — exemplar traces (every build). Shed traces can appear
    // in both the slowest and the recently-shed category, so count
    // distinct request ids per outcome.
    let mut seen = BTreeSet::new();
    let mut by_outcome: BTreeMap<&str, u64> = BTreeMap::new();
    for t in engine.exemplars() {
        assert_eq!(
            t.queue_wait_us + t.batch_share_us + t.bfs_us + t.overhead_us,
            t.span_us,
            "every exemplar must satisfy the phase identity: {t:?}"
        );
        if seen.insert(t.request_id) {
            *by_outcome.entry(t.outcome.as_str()).or_insert(0) += 1;
        }
    }
    assert_eq!(by_outcome, want, "exemplar traces disagree with the expected outcome counts");

    if !qdgnn_obs::enabled() {
        return; // the remaining surfaces only exist with the obs feature
    }

    // Surface 2 — labeled counters (bumped by every finished trace).
    let snap = qdgnn_obs::snapshot();
    for (outcome, n) in &want {
        let key = format!("serve.request{{outcome=\"{outcome}\"}}");
        assert_eq!(
            snap.counter(&key),
            Some(*n),
            "labeled counter {key} disagrees with the exemplar count"
        );
    }
    let tenant_counts = [
        ("serve.tenant_request{outcome=\"answered\",tenant=\"acme\"}", 2),
        ("serve.tenant_request{outcome=\"answered\",tenant=\"beta\"}", 1),
    ];
    for (key, n) in tenant_counts {
        assert_eq!(snap.counter(key), Some(n), "per-tenant series {key} has the wrong count");
    }
    // The span histogram sees exactly one observation per finished trace.
    for (outcome, n) in &want {
        let key = format!("serve.request_span{{outcome=\"{outcome}\"}}");
        let h = snap.hist(&key).unwrap_or_else(|| panic!("missing span histogram {key}"));
        assert_eq!(h.count, *n, "span histogram {key} has the wrong sample count");
    }

    // Surface 3 — buffered trace events, one per finished trace, each
    // carrying the full phase breakdown.
    let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
    for e in qdgnn_obs::take_events() {
        if let qdgnn_obs::events::Event::Trace { name, labels, fields, .. } = e {
            if name != "serve.request" {
                continue;
            }
            let outcome = labels
                .iter()
                .find(|(k, _)| k == "outcome")
                .map(|(_, v)| v.clone())
                .expect("trace event must carry an outcome label");
            *event_counts.entry(outcome).or_insert(0) += 1;
            for field in ["request_id", "queue_wait_us", "batch_share_us", "bfs_us", "span_us"] {
                assert!(
                    fields.iter().any(|(k, _)| k == field),
                    "trace event missing field {field}"
                );
            }
        }
    }
    for (outcome, n) in &want {
        assert_eq!(
            event_counts.get(*outcome).copied(),
            Some(*n),
            "trace-event count for outcome {outcome} disagrees"
        );
    }

    // Surface 4 — the Prometheus exposition renders the same series with
    // the same values.
    let prom = snap.to_prometheus();
    for (outcome, n) in &want {
        let line = format!("qdgnn_serve_request{{outcome=\"{outcome}\"}} {n}");
        assert!(prom.contains(&line), "exposition missing `{line}`:\n{prom}");
    }
    assert!(
        prom.contains("qdgnn_serve_tenant_request{outcome=\"answered\",tenant=\"acme\"} 2"),
        "exposition missing the per-tenant series:\n{prom}"
    );
}
