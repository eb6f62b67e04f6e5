//! Chaos suite for the serving engine (requires `--features chaos`).
//!
//! Every test here proves the same invariant from a different failure
//! angle: **no accepted request ever loses its reply**. Worker panics,
//! stalls, allocation failures, expired deadlines, and shutdown races
//! all resolve each `Pending` handle with either a result or a typed
//! error, and the engine's failure accounting matches the injected
//! fault count exactly.
//!
//! The fault registry in `qdgnn_core::faultless` is process-global, so
//! the tests serialize on [`chaos_lock`] and reset the registry at the
//! start of each test.

#![cfg(feature = "chaos")]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use qdgnn_core::faultless::{self, ServeFault};
use qdgnn_core::{AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage};
use qdgnn_data::{presets, queries as qgen, AttrMode, Query};
use qdgnn_graph::attributed::AdjNorm;
use qdgnn_obs::clock::{Clock, FakeClock};
use qdgnn_serve::{Pending, ServeConfig, ServeEngine, ServeError};

/// Serializes chaos tests: the fault registry is process-global.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn stage_and_queries() -> (OnlineStage<'static>, Vec<Query>) {
    let data = presets::toy();
    let t = Arc::new(GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100));
    let queries = qgen::generate(&data, 24, 1, 2, AttrMode::FromCommunity, 7);
    let model: Arc<dyn CsModel> = Arc::new(AqdGnn::new(ModelConfig::fast(), t.d));
    (OnlineStage::new_shared(model, t, 0.5), queries)
}

fn engine_with_fake_clock(cfg: ServeConfig) -> (ServeEngine, Arc<FakeClock>) {
    let (stage, _) = stage_and_queries();
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::with_clock(stage, cfg, Arc::clone(&clock) as Arc<dyn Clock>)
        .expect("engine must start");
    (engine, clock)
}

fn wait_all(pending: Vec<Pending>) -> Vec<Result<Vec<u32>, ServeError>> {
    pending
        .into_iter()
        .map(|p| p.wait_timeout(Duration::from_secs(60)).expect("no reply may be lost"))
        .collect()
}

/// The acceptance-criteria test: a panic mid-batch loses zero replies,
/// the pool returns to full strength, and the panic/shed counters match
/// the injected fault count exactly.
#[test]
fn panic_mid_batch_answers_every_cobatched_request_and_pool_recovers() {
    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    let (stage, queries) = stage_and_queries();
    let clock = Arc::new(FakeClock::new());
    let engine = ServeEngine::with_clock(
        stage,
        ServeConfig {
            max_batch: 4,
            max_wait_us: 100,
            queue_capacity: 64,
            workers: 1,
            // Threshold above the injected count: this test wants the
            // panic absorbed without tripping the breaker.
            panic_threshold: 5,
            ..ServeConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    )
    .expect("engine must start");

    // First batched forward dies; everything after succeeds.
    faultless::inject_serve_fault_at_call(1, ServeFault::PanicInForward);

    // Batch 1: four co-batched requests, all doomed together.
    let doomed: Vec<Pending> = queries
        .iter()
        .take(4)
        .map(|q| engine.submit(q.clone()).expect("queue has room"))
        .collect();
    clock.advance_micros(200); // cross max_wait: flush the batch of 4
    for reply in wait_all(doomed) {
        assert!(
            matches!(reply, Err(ServeError::WorkerPanicked)),
            "every co-batched request of a dying batch gets the typed panic reply"
        );
    }

    // Pool back to full strength: the respawned worker serves new work.
    let revived: Vec<Pending> = queries
        .iter()
        .skip(4)
        .take(4)
        .map(|q| engine.submit(q.clone()).expect("engine accepts work after the panic"))
        .collect();
    clock.advance_micros(200);
    for reply in wait_all(revived) {
        assert!(reply.is_ok(), "respawned worker must serve normally");
    }

    let stats = engine.stats();
    assert_eq!(stats.worker_panics, 1, "exactly the injected fault count");
    assert_eq!(stats.shed_deadline + stats.shed_admission, 0, "nothing was shed");
    assert_eq!(stats.breaker_trips, 0, "one panic stays below the threshold");
    assert!(!stats.degraded);
    assert_eq!(faultless::pending_serve(), 0, "the armed fault fired");
    engine.shutdown();
}

/// An allocation-failure panic is supervised identically to any other
/// panic: typed replies, restarted worker, exact accounting.
#[test]
fn alloc_failure_is_absorbed_like_any_panic() {
    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    let (engine, clock) = engine_with_fake_clock(ServeConfig {
        max_batch: 2,
        max_wait_us: 100,
        queue_capacity: 16,
        workers: 1,
        panic_threshold: 5,
        ..ServeConfig::default()
    });
    let (_, queries) = stage_and_queries();
    faultless::inject_serve_fault_at_call(1, ServeFault::AllocFailure);
    let doomed: Vec<Pending> = queries
        .iter()
        .take(2)
        .map(|q| engine.submit(q.clone()).expect("queue has room"))
        .collect();
    clock.advance_micros(200);
    for reply in wait_all(doomed) {
        assert!(matches!(reply, Err(ServeError::WorkerPanicked)));
    }
    let ok = engine.submit(queries[2].clone()).expect("engine alive");
    clock.advance_micros(200);
    assert!(ok.wait_timeout(Duration::from_secs(60)).expect("no reply lost").is_ok());
    assert_eq!(engine.stats().worker_panics, 1);
    engine.shutdown();
}

/// A stalled forward pass makes requests queued behind it miss their
/// deadlines; they are shed with typed errors, not served late.
#[test]
fn stall_in_forward_sheds_queued_requests_past_their_deadline() {
    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    let (engine, clock) = engine_with_fake_clock(ServeConfig {
        max_batch: 1,
        max_wait_us: 0, // flush immediately: one request per forward
        queue_capacity: 16,
        workers: 1,
        ..ServeConfig::default()
    });
    let (_, queries) = stage_and_queries();
    // The first forward stalls 50ms of real time. While the worker is
    // stuck inside it, advance the fake clock past the deadlines of the
    // requests queued behind it.
    faultless::inject_serve_fault_at_call(1, ServeFault::StallForwardMicros(50_000));
    let stalled = engine.submit(queries[0].clone()).expect("queue has room");
    let behind: Vec<Pending> = queries
        .iter()
        .skip(1)
        .take(3)
        .map(|q| {
            engine
                .submit_with_deadline(q.clone(), Some(Duration::from_micros(500)))
                .expect("queue has room")
        })
        .collect();
    clock.advance_micros(1_000); // expire the 500µs budgets behind the stall
    assert!(
        stalled.wait_timeout(Duration::from_secs(60)).expect("no reply lost").is_ok(),
        "the stalled request itself still completes"
    );
    for reply in wait_all(behind) {
        assert!(
            matches!(reply, Err(ServeError::DeadlineExceeded { .. })),
            "requests stuck behind the stall are shed, not served late"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.shed_deadline, 3, "exactly the three expired requests");
    assert_eq!(stats.worker_panics, 0, "a stall is not a panic");
    engine.shutdown();
}

/// Repeated panics trip the breaker into degraded single-query mode;
/// a poisoned query then takes out only itself, and a quiet cooldown
/// restores batching.
#[test]
fn breaker_trips_into_degraded_mode_and_recovers_after_cooldown() {
    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    let (engine, clock) = engine_with_fake_clock(ServeConfig {
        max_batch: 2,
        max_wait_us: 100,
        queue_capacity: 64,
        workers: 1,
        panic_threshold: 2,
        panic_window_us: 10_000_000,
        breaker_cooldown_us: 1_000_000,
        ..ServeConfig::default()
    });
    let (_, queries) = stage_and_queries();

    // Two panicking batches in quick succession trip the breaker.
    faultless::inject_serve_fault_at_call(1, ServeFault::PanicInForward);
    faultless::inject_serve_fault_at_call(2, ServeFault::PanicInForward);
    for round in 0..2 {
        let doomed: Vec<Pending> = queries
            .iter()
            .skip(round * 2)
            .take(2)
            .map(|q| engine.submit(q.clone()).expect("queue has room"))
            .collect();
        clock.advance_micros(200);
        for reply in wait_all(doomed) {
            assert!(matches!(reply, Err(ServeError::WorkerPanicked)));
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.worker_panics, 2);
    assert_eq!(stats.breaker_trips, 1, "threshold 2 trips on the second panic");
    assert!(stats.degraded, "breaker holds the engine in degraded mode");
    assert!(engine.is_degraded());

    // Degraded mode: the third injected panic hits a single-query batch,
    // so exactly one request dies while its would-be neighbor survives.
    faultless::inject_serve_fault_at_call(3, ServeFault::PanicInForward);
    let a = engine.submit(queries[4].clone()).expect("degraded engine still accepts");
    let b = engine.submit(queries[5].clone()).expect("degraded engine still accepts");
    let ra = a.wait_timeout(Duration::from_secs(60)).expect("no reply lost");
    let rb = b.wait_timeout(Duration::from_secs(60)).expect("no reply lost");
    assert!(
        matches!(ra, Err(ServeError::WorkerPanicked)),
        "the poisoned single-query batch dies alone"
    );
    assert!(rb.is_ok(), "degraded mode isolates the blast radius to one request");
    assert_eq!(engine.stats().worker_panics, 3);

    // A quiet cooldown (measured on the engine clock from the last
    // panic) closes the breaker and batching resumes.
    clock.advance_micros(1_000_001);
    assert!(!engine.is_degraded(), "cooldown elapsed: breaker closes");
    let healed: Vec<Pending> = queries
        .iter()
        .skip(6)
        .take(2)
        .map(|q| engine.submit(q.clone()).expect("queue has room"))
        .collect();
    clock.advance_micros(200);
    for reply in wait_all(healed) {
        assert!(reply.is_ok());
    }
    engine.shutdown();
}

/// Regression for the PR-6 reply-loss bug: shutdown right after a
/// mid-batch panic must still answer every submitter (the in-flight
/// batch is drained by supervision, the queue by the workers, and the
/// final assert-drain proves nothing leaked).
#[test]
fn shutdown_after_mid_batch_panic_loses_no_submitter() {
    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    let (engine, clock) = engine_with_fake_clock(ServeConfig {
        max_batch: 4,
        max_wait_us: 100,
        queue_capacity: 64,
        workers: 1,
        panic_threshold: 5,
        ..ServeConfig::default()
    });
    let (_, queries) = stage_and_queries();
    faultless::inject_serve_fault_at_call(1, ServeFault::PanicInForward);
    // Eight submitters: the first four die with the panicking batch,
    // the rest ride the shutdown drain through the respawned worker.
    let pending: Vec<Pending> = queries
        .iter()
        .take(8)
        .map(|q| engine.submit(q.clone()).expect("queue has room"))
        .collect();
    clock.advance_micros(200);
    engine.shutdown();
    let mut panicked = 0;
    let mut served = 0;
    for reply in wait_all(pending) {
        match reply {
            Err(ServeError::WorkerPanicked) => panicked += 1,
            Ok(_) => served += 1,
            other => panic!("unexpected reply after shutdown: {other:?}"),
        }
    }
    assert_eq!(panicked, 4, "exactly the co-batched four die with the panic");
    assert_eq!(served, 4, "the drain serves everyone else");
    assert_eq!(engine.stats().worker_panics, 1);
}

/// Deadline accounting under chaos is exact: the labeled outcome
/// counter (when the metrics feature rides along) agrees with the
/// engine's own stats.
#[test]
fn shed_accounting_matches_obs_counters_when_enabled() {
    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    let (engine, clock) = engine_with_fake_clock(ServeConfig {
        max_batch: 8,
        max_wait_us: 10_000,
        queue_capacity: 16,
        workers: 1,
        ..ServeConfig::default()
    });
    let (_, queries) = stage_and_queries();
    const SHED_DEADLINE: &str = "serve.request{outcome=\"shed_deadline\"}";
    let before_shed = qdgnn_obs::snapshot().counter(SHED_DEADLINE).unwrap_or(0);
    let doomed: Vec<Pending> = queries
        .iter()
        .take(3)
        .map(|q| {
            engine
                .submit_with_deadline(q.clone(), Some(Duration::from_micros(100)))
                .expect("queue has room")
        })
        .collect();
    clock.advance_micros(5_000); // past the budgets, before the batch wait
    for reply in wait_all(doomed) {
        assert!(matches!(reply, Err(ServeError::DeadlineExceeded { .. })));
    }
    let stats = engine.stats();
    assert_eq!(stats.shed_deadline, 3);
    if qdgnn_obs::enabled() {
        assert_eq!(qdgnn_obs::snapshot().counter(SHED_DEADLINE).unwrap_or(0) - before_shed, 3);
    }
    engine.shutdown();
}

/// A request whose batch dies mid-forward still gets a **complete**
/// request trace: outcome `worker_panicked`, the queue wait it actually
/// paid (stamped at flush, before the panic), its batch size and
/// position, and the phase identity intact — plus the labeled metric
/// mirror when obs rides along.
#[test]
fn worker_panic_yields_complete_traces_with_panicked_outcome() {
    use qdgnn_serve::TraceOutcome;

    let _guard = chaos_lock();
    faultless::reset_serve_calls();
    // max_batch above the submitted pair: the flush is released by the
    // max_wait crossing, so the stamped queue wait is exactly the fake
    // clock advance.
    let (engine, clock) = engine_with_fake_clock(ServeConfig {
        max_batch: 4,
        max_wait_us: 100,
        queue_capacity: 16,
        workers: 1,
        panic_threshold: 5,
        ..ServeConfig::default()
    });
    let (_, queries) = stage_and_queries();
    let before_panicked = qdgnn_obs::snapshot()
        .counter("serve.request{outcome=\"worker_panicked\"}")
        .unwrap_or(0);
    faultless::inject_serve_fault_at_call(1, ServeFault::PanicInForward);
    let doomed: Vec<Pending> = queries
        .iter()
        .take(2)
        .map(|q| {
            engine
                .submit_labeled(q.clone(), Some("acme"), None)
                .expect("queue has room")
        })
        .collect();
    clock.advance_micros(200); // cross max_wait: flush the doomed pair
    for reply in wait_all(doomed) {
        assert!(matches!(reply, Err(ServeError::WorkerPanicked)));
    }
    // Replies are sent after the traces are recorded, so the exemplars
    // are already complete here.
    let mut seen = std::collections::BTreeSet::new();
    let panicked: Vec<_> = engine
        .exemplars()
        .into_iter()
        .filter(|t| t.outcome == TraceOutcome::WorkerPanicked && seen.insert(t.request_id))
        .collect();
    assert_eq!(panicked.len(), 2, "both co-batched requests must leave panicked traces");
    let mut positions: Vec<u64> = panicked.iter().map(|t| t.batch_position).collect();
    positions.sort_unstable();
    assert_eq!(positions, vec![0, 1]);
    for t in &panicked {
        assert_eq!(t.batch_size, 2, "the dying batch's size must be attributed");
        assert_eq!(t.queue_wait_us, 200, "queue wait was stamped at flush, before the panic");
        assert_eq!(t.batch_share_us, 0, "a dead forward pass is unattributable");
        assert_eq!(t.bfs_us, 0);
        assert_eq!(t.span_us, 200);
        assert_eq!(
            t.queue_wait_us + t.batch_share_us + t.bfs_us + t.overhead_us,
            t.span_us,
            "the phase identity must survive a panic: {t:?}"
        );
        assert_eq!(t.tenant.as_deref(), Some("acme"));
    }
    if qdgnn_obs::enabled() {
        let after = qdgnn_obs::snapshot();
        assert_eq!(
            after.counter("serve.request{outcome=\"worker_panicked\"}").unwrap_or(0)
                - before_panicked,
            2,
            "the labeled outcome counter must agree with the exemplar traces"
        );
    }
    assert_eq!(engine.stats().worker_panics, 1);
    engine.shutdown();
}
