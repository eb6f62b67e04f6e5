//! The batching serving engine: a bounded submission queue drained by a
//! supervised worker pool into stacked forward passes.
//!
//! Life of a request: [`ServeEngine::submit`] stamps it with the engine
//! clock and enqueues it (rejecting with [`ServeError::QueueFull`] or
//! [`ServeError::ShuttingDown`] instead of ever blocking the caller); a
//! worker wakes, asks the [`BatchPolicy`] whether to flush, drains up to
//! `max_batch` requests FIFO, runs one
//! [`OnlineStage::try_query_batch`] outside the queue lock, and answers
//! each request on its private reply channel. Per-query error isolation
//! comes from the stage: one malformed query in a batch fails alone.
//!
//! Three production failure modes are handled explicitly:
//!
//! * **Overload** — requests may carry a deadline
//!   ([`ServeEngine::submit_with_deadline`], or the config-wide
//!   [`ServeConfig::deadline_us`]). Expired requests are shed at
//!   dequeue time with a typed [`ServeError::DeadlineExceeded`] instead
//!   of wasting a batch slot (tier 1), and admission rejects outright
//!   once the engine's queue-wait estimate — an EWMA of the same waits
//!   the `serve.queue_wait` histogram records — already exceeds the
//!   request's budget (tier 2).
//! * **Worker death** — each worker runs under `catch_unwind`
//!   supervision: a panicking batch answers every in-flight reply with
//!   [`ServeError::WorkerPanicked`] (never dropping a `Pending`
//!   handle), then the worker loop restarts, so the pool never loses
//!   strength.
//! * **Poisoned queries** — [`ServeConfig::panic_threshold`] panics
//!   within [`ServeConfig::panic_window_us`] trip a circuit breaker
//!   into degraded single-query (batch = 1) mode for
//!   [`ServeConfig::breaker_cooldown_us`], so one poisoned query stops
//!   taking out co-batched neighbors; a quiet cooldown restores
//!   batching.
//!
//! Shutdown is graceful by construction: [`ServeEngine::shutdown`] (or
//! `Drop`) flips the shutdown flag — which atomically stops admissions —
//! then workers keep flushing until the queue is empty and exit; a
//! final assert-drain answers anything a dying worker could have left
//! behind, so every accepted request gets exactly one response.
//!
//! Every request — refused at submit, shed, answered, failed or drained —
//! ends through one function, `finish`, which counts its
//! [`TraceOutcome`], records its [`RequestTrace`] and only then hands
//! the reply back for delivery.
//!
//! Time flows through an injected [`Clock`], never a direct wall-clock
//! read: workers bound their real condvar waits to a short poll tick and
//! re-consult the injected clock for every deadline decision, so a
//! [`FakeClock`](qdgnn_obs::clock::FakeClock) test can freeze or advance
//! batching time deterministically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use qdgnn_core::OnlineStage;
use qdgnn_data::Query;
use qdgnn_graph::VertexId;
use qdgnn_obs::clock::{Clock, MonotonicClock};

use crate::batcher::{BatchDecision, BatchPolicy};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::trace::{ExemplarRing, RequestTrace, TraceOutcome};

/// Upper bound on one real condvar wait (µs). Workers sleep at most this
/// long before re-reading the injected clock, which keeps deadline
/// decisions responsive to a hand-advanced fake clock while costing an
/// idle engine about one wake-up per millisecond.
const POLL_TICK_US: u64 = 1_000;

/// Smoothing shift of the queue-wait EWMA: each observed wait
/// contributes 1/2^`EWMA_SHIFT` of itself (α = 1/8).
const EWMA_SHIFT: u64 = 3;

/// Sentinel deadline for requests without one.
const NO_DEADLINE: u64 = u64::MAX;

type Reply = Result<Vec<VertexId>, ServeError>;

/// One queued request: the query, its trace identity (engine-unique id
/// and optional tenant label), its admission timestamp and absolute
/// deadline (engine clock; [`NO_DEADLINE`] when none), and the channel
/// its answer travels back on. `wait_us` is stamped at flush time so a
/// panicking batch can still attribute queue wait in its traces.
struct Request {
    query: Query,
    id: u64,
    tenant: Option<Arc<str>>,
    enqueue_us: u64,
    deadline_us: u64,
    wait_us: u64,
    reply: mpsc::Sender<Reply>,
}

impl Request {
    /// The deadline budget this request carried (0 when none).
    fn budget_us(&self) -> u64 {
        if self.deadline_us == NO_DEADLINE {
            0
        } else {
            self.deadline_us.saturating_sub(self.enqueue_us)
        }
    }
}

/// Queue state guarded by the engine mutex.
struct QueueState {
    requests: VecDeque<Request>,
    shutting_down: bool,
}

/// Circuit-breaker state guarded by its own mutex: recent panic
/// timestamps (engine clock) and, when tripped, the trip time the
/// cooldown is measured from.
struct BreakerState {
    panic_times_us: VecDeque<u64>,
    tripped_at_us: Option<u64>,
}

/// Engine-local accounting, available in every build (tests assert
/// exact counts without the obs feature): requests per terminal outcome,
/// indexed by `outcome as usize`, plus the panic and breaker events.
#[derive(Default)]
struct EngineCounters {
    outcomes: [AtomicU64; TraceOutcome::ALL.len()],
    worker_panics: AtomicU64,
    breaker_trips: AtomicU64,
}

/// Where a request's batch left it, for its trace: the batch size, the
/// request's position in it, its share of the forward pass, its own BFS
/// time, and whether the batch ran degraded.
#[derive(Clone, Copy)]
struct BatchPhases {
    size: u64,
    position: u64,
    share_us: u64,
    bfs_us: u64,
    degraded: bool,
}

/// The phases of a request that never reached a batch.
const UNBATCHED: BatchPhases =
    BatchPhases { size: 0, position: 0, share_us: 0, bfs_us: 0, degraded: false };

/// A point-in-time snapshot of the engine's failure accounting,
/// returned by [`ServeEngine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests refused at submit because the queue was full
    /// ([`ServeError::QueueFull`]) or the engine was shutting down
    /// ([`ServeError::ShuttingDown`]).
    pub rejected: u64,
    /// Requests rejected at admission because the estimated queue wait
    /// already exceeded their deadline budget (tier-2 shedding).
    pub shed_admission: u64,
    /// Requests shed at dequeue time after their deadline expired in
    /// the queue (tier-1 shedding).
    pub shed_deadline: u64,
    /// Worker panics absorbed by supervision (each one answered its
    /// whole in-flight batch with [`ServeError::WorkerPanicked`]).
    pub worker_panics: u64,
    /// Times the circuit breaker tripped into degraded mode.
    pub breaker_trips: u64,
    /// Whether the engine is currently in degraded single-query mode.
    pub degraded: bool,
}

/// State shared between the engine handle and its workers.
struct Shared {
    stage: OnlineStage<'static>,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    policy: BatchPolicy,
    capacity: usize,
    clock: Arc<dyn Clock>,
    default_deadline_us: u64,
    panic_threshold: u32,
    panic_window_us: u64,
    breaker_cooldown_us: u64,
    /// EWMA (µs) of queue waits observed at dequeue — the admission
    /// shedding estimator. Mirrors the `serve.queue_wait` histogram's
    /// observations, but lives here so shedding works in every build.
    wait_ewma_us: AtomicU64,
    breaker: Mutex<BreakerState>,
    counters: EngineCounters,
    /// Monotonic request-id source; ids are minted at submit and ride
    /// the request through its trace.
    next_request_id: AtomicU64,
    /// Tail exemplars (K slowest + K recently shed per window) for the
    /// `/traces` endpoint. Recorded in every build, like the counters.
    exemplars: Mutex<ExemplarRing>,
    /// One in-flight slot per worker: the batch currently executing is
    /// parked here so the supervisor can answer it after a panic.
    in_flight: Vec<Mutex<Vec<Request>>>,
}

/// An in-flight request handle returned by [`ServeEngine::submit`].
///
/// Dropping it without waiting is allowed: the worker's answer is then
/// discarded (the query still runs — admission is a commitment).
pub struct Pending {
    rx: mpsc::Receiver<Reply>,
    deadline: Option<Duration>,
}

impl Pending {
    /// Blocks until the engine answers this request.
    ///
    /// When the request carries a deadline, the block is bounded: after
    /// the full deadline budget elapses in *caller* (real) time without
    /// an answer, this gives up with [`ServeError::DeadlineExceeded`].
    /// That is a backstop for a stalled engine — in healthy operation
    /// the engine sheds the request first and the typed reply arrives
    /// through the channel. Without a deadline this blocks until the
    /// engine replies, indefinitely if it never does.
    ///
    /// A closed channel means the serving worker died before responding,
    /// surfaced as [`ServeError::WorkerLost`] — it cannot happen during
    /// an orderly shutdown, which drains every accepted request first.
    pub fn wait(self) -> Reply {
        match self.deadline {
            Some(limit) => match self.rx.recv_timeout(limit) {
                Ok(reply) => reply,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let us = u64::try_from(limit.as_micros()).unwrap_or(NO_DEADLINE);
                    Err(ServeError::DeadlineExceeded { waited_us: us, deadline_us: us })
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::WorkerLost),
            },
            // qdgnn-analyze: allow(QD008, reason = "documented contract: without a deadline, wait() blocks until the engine replies; deadline-carrying requests take the bounded recv_timeout branch above")
            None => self.rx.recv().unwrap_or(Err(ServeError::WorkerLost)),
        }
    }

    /// Non-blocking probe: `Some(reply)` once the engine has answered,
    /// `None` while the request is still queued or executing. Never
    /// blocks, so the request deadline plays no role here.
    pub fn try_wait(&self) -> Option<Reply> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }

    /// Blocks up to `timeout` for the answer; `None` on timeout. The
    /// caller-chosen bound is used as given — it is not clamped to the
    /// request deadline, so a generous timeout can out-wait a deadline
    /// and still observe the engine's typed shed reply.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Reply> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Some(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// The serving engine: owns an [`OnlineStage`] and a pool of supervised
/// worker threads batching queued queries through it.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServeEngine {
    /// Starts an engine over `stage` with a production monotonic clock.
    pub fn new(stage: OnlineStage<'static>, cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::with_clock(stage, cfg, Arc::new(MonotonicClock::new()))
    }

    /// Starts an engine with an injected [`Clock`] — batching deadlines,
    /// request deadlines and the breaker cooldown are all measured
    /// against this clock, which is how tests pin overload and failure
    /// behaviour with a fake clock.
    pub fn with_clock(
        stage: OnlineStage<'static>,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            stage,
            queue: Mutex::new(QueueState { requests: VecDeque::new(), shutting_down: false }),
            work_ready: Condvar::new(),
            policy: BatchPolicy { max_batch: cfg.max_batch, max_wait_us: cfg.max_wait_us },
            capacity: cfg.queue_capacity,
            clock,
            default_deadline_us: cfg.deadline_us,
            panic_threshold: cfg.panic_threshold,
            panic_window_us: cfg.panic_window_us,
            breaker_cooldown_us: cfg.breaker_cooldown_us,
            wait_ewma_us: AtomicU64::new(0),
            breaker: Mutex::new(BreakerState {
                panic_times_us: VecDeque::new(),
                tripped_at_us: None,
            }),
            counters: EngineCounters::default(),
            next_request_id: AtomicU64::new(0),
            exemplars: Mutex::new(ExemplarRing::new(cfg.exemplar_k, cfg.exemplar_window_us)),
            in_flight: (0..cfg.workers).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qdgnn-serve-{i}"))
                    .spawn(move || supervise_worker(&shared, i))
                    .map_err(|e| ServeError::InvalidConfig(format!("failed to spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServeEngine { shared, workers: Mutex::new(workers) })
    }

    /// Enqueues a query for batched execution with the config-default
    /// deadline ([`ServeConfig::deadline_us`]; `0` means none). Never
    /// blocks: a full queue rejects with [`ServeError::QueueFull`]
    /// (backpressure), a draining engine with
    /// [`ServeError::ShuttingDown`], and — when a deadline applies — an
    /// estimated queue wait already past the budget with
    /// [`ServeError::DeadlineExceeded`] (admission-tier shedding). On
    /// `Ok`, the request is committed — exactly one reply will reach the
    /// returned [`Pending`] handle.
    pub fn submit(&self, query: Query) -> Result<Pending, ServeError> {
        let d = self.shared.default_deadline_us;
        self.submit_with_deadline(query, (d > 0).then(|| Duration::from_micros(d)))
    }

    /// [`ServeEngine::submit`] with an explicit per-request deadline
    /// budget (`None` disables the deadline for this request regardless
    /// of the config default). The budget is measured on the engine
    /// clock from admission; a request still queued when it expires is
    /// shed at dequeue time with [`ServeError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<Pending, ServeError> {
        self.submit_labeled(query, None, deadline)
    }

    /// [`ServeEngine::submit_with_deadline`] plus a tenant label: the
    /// label rides the request's trace and keys the per-tenant labeled
    /// metric series (`serve.tenant_request`). Tenant values should be
    /// low-cardinality identifiers — the metric layer collapses excess
    /// label sets into an overflow series rather than growing without
    /// bound.
    pub fn submit_labeled(
        &self,
        query: Query,
        tenant: Option<&str>,
        deadline: Option<Duration>,
    ) -> Result<Pending, ServeError> {
        let (tx, rx) = mpsc::channel();
        let budget_us = deadline.map(|d| u64::try_from(d.as_micros()).unwrap_or(NO_DEADLINE));
        let mut req = Request {
            query,
            id: self.shared.next_request_id.fetch_add(1, Ordering::Relaxed),
            tenant: tenant.map(Arc::from),
            enqueue_us: 0,
            deadline_us: NO_DEADLINE,
            wait_us: 0,
            reply: tx,
        };
        // Admission runs under the queue lock; a refusal is finished
        // after the guard drops (the exemplar ring has its own lock and
        // must stay leaf-ordered after the queue).
        let refused = {
            let mut q = self.shared.queue.lock();
            // Tier-2 shedding: reject on admission when the queue is
            // backed up and recent queue waits already exceed this
            // request's whole budget — it would only be shed later
            // anyway, after clogging the queue. An empty queue skips the
            // estimate: the next flush is bounded by max_wait.
            let estimate = self.shared.wait_ewma_us.load(Ordering::Relaxed);
            let over_budget = budget_us.is_some_and(|b| !q.requests.is_empty() && estimate > b);
            if q.shutting_down {
                Some((req, TraceOutcome::Rejected, ServeError::ShuttingDown))
            } else if q.requests.len() >= self.shared.capacity {
                let full = ServeError::QueueFull { capacity: self.shared.capacity };
                Some((req, TraceOutcome::Rejected, full))
            } else if over_budget {
                let deadline_us = budget_us.unwrap_or(0);
                let shed = ServeError::DeadlineExceeded { waited_us: 0, deadline_us };
                Some((req, TraceOutcome::ShedAdmission, shed))
            } else {
                req.enqueue_us = self.shared.clock.now_micros();
                req.deadline_us =
                    budget_us.map_or(NO_DEADLINE, |b| req.enqueue_us.saturating_add(b));
                q.requests.push_back(req);
                qdgnn_obs::observe("serve.queue_depth", q.requests.len() as f64);
                None
            }
        };
        let Some((mut req, outcome, err)) = refused else {
            self.shared.work_ready.notify_one();
            return Ok(Pending { rx, deadline: budget_us.map(Duration::from_micros) });
        };
        // A refused request ends the instant it arrives: its span is zero.
        req.enqueue_us = self.shared.clock.now_micros();
        finish(&self.shared, &req, outcome, UNBATCHED, req.enqueue_us, Err(err))
    }

    /// Convenience: [`ServeEngine::submit`] plus [`Pending::wait`].
    pub fn query_blocking(&self, query: Query) -> Result<Vec<VertexId>, ServeError> {
        // qdgnn-analyze: allow(QD008, reason = "wait() is deadline-bounded whenever the engine has a default deadline; the unbounded no-deadline case is this API's documented contract")
        self.submit(query)?.wait()
    }

    /// Requests currently queued (excludes batches already executing).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().requests.len()
    }

    /// Snapshot of the engine's failure accounting: rejections, shed
    /// counts per tier, absorbed worker panics, breaker trips, and
    /// whether the engine is currently degraded. Exact in every build
    /// (independent of the obs feature).
    ///
    /// As a side effect, every snapshot is mirrored into obs gauges
    /// (`serve.stats.*`, `serve.degraded_mode`, `serve.stats.queue_depth`),
    /// so a Prometheus scrape that calls `stats()` first can never
    /// disagree with the engine's own atomics.
    pub fn stats(&self) -> EngineStats {
        let now = self.shared.clock.now_micros();
        let counters = &self.shared.counters;
        let requests = |o: TraceOutcome| {
            counters.outcomes.get(o as usize).map_or(0, |c| c.load(Ordering::Relaxed))
        };
        let stats = EngineStats {
            rejected: requests(TraceOutcome::Rejected),
            shed_admission: requests(TraceOutcome::ShedAdmission),
            shed_deadline: requests(TraceOutcome::ShedDeadline),
            worker_panics: counters.worker_panics.load(Ordering::Relaxed),
            breaker_trips: counters.breaker_trips.load(Ordering::Relaxed),
            degraded: degraded_now(&self.shared, now),
        };
        qdgnn_obs::gauge("serve.stats.shed_admission").set(stats.shed_admission as f64);
        qdgnn_obs::gauge("serve.stats.shed_deadline").set(stats.shed_deadline as f64);
        qdgnn_obs::gauge("serve.stats.worker_panics").set(stats.worker_panics as f64);
        qdgnn_obs::gauge("serve.stats.breaker_trips").set(stats.breaker_trips as f64);
        qdgnn_obs::gauge("serve.degraded_mode").set(if stats.degraded { 1.0 } else { 0.0 });
        qdgnn_obs::gauge("serve.stats.queue_depth").set(self.queue_depth() as f64);
        stats
    }

    /// Current tail exemplars: the K slowest and K most recently shed
    /// request traces of the active window (see
    /// [`ServeConfig::exemplar_k`]). Backs the `/traces` endpoint.
    pub fn exemplars(&self) -> Vec<RequestTrace> {
        self.shared.exemplars.lock().snapshot()
    }

    /// Whether the circuit breaker currently holds the engine in
    /// degraded single-query (batch = 1) mode.
    pub fn is_degraded(&self) -> bool {
        degraded_now(&self.shared, self.shared.clock.now_micros())
    }

    /// Stops admissions, drains every queued request through the workers,
    /// and joins them. Idempotent (later calls are no-ops); also runs on
    /// `Drop`. After this returns, [`ServeEngine::submit`] answers
    /// [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock();
            workers.drain(..).collect()
        };
        for handle in handles {
            // Supervision means workers only exit through the orderly
            // drain; a join error would be a double panic inside the
            // supervisor itself, with nothing left to salvage there.
            let _ = handle.join();
        }
        // Assert-drain: after an orderly join, no queue entry or
        // in-flight slot may still hold a reply channel. Anything found
        // here is a supervision bug — finish it as `worker_panicked`
        // rather than dropping the Pending handle, and fail loudly in
        // debug builds.
        let queued = std::mem::take(&mut self.shared.queue.lock().requests);
        let mut leaked = queued.len();
        let now = self.shared.clock.now_micros();
        for req in queued {
            let reply = Err(ServeError::WorkerPanicked);
            let reply =
                finish(&self.shared, &req, TraceOutcome::WorkerPanicked, UNBATCHED, now, reply);
            let _ = req.reply.send(reply);
        }
        for slot in &self.shared.in_flight {
            let parked = std::mem::take(&mut *slot.lock());
            leaked += parked.len();
            fail_batch(&self.shared, parked);
        }
        debug_assert_eq!(
            leaked, 0,
            "shutdown had to answer {leaked} replies the supervised workers should have drained"
        );
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one terminal path of every request. It counts the request under
/// `outcome` and builds its trace, whose overhead is the part of the
/// admission→`end_us` span that queue wait, batch share and BFS leave,
/// so the phases sum to the span by construction. It records the trace
/// in the exemplar ring (every build, exact) and the labeled obs series
/// `serve.request{outcome}` (counter plus trace event),
/// `serve.request_span{outcome}` and, for a tenant,
/// `serve.tenant_request{tenant,outcome}`. It hands `reply` back last,
/// so a submitter that sees a reply can already see its trace.
///
/// May run under the queue lock (dequeue-tier sheds); the exemplar lock
/// is a leaf — nothing is acquired while holding it.
fn finish<T>(
    shared: &Shared,
    req: &Request,
    outcome: TraceOutcome,
    batch: BatchPhases,
    end_us: u64,
    reply: Result<T, ServeError>,
) -> Result<T, ServeError> {
    if let Some(count) = shared.counters.outcomes.get(outcome as usize) {
        count.fetch_add(1, Ordering::Relaxed);
    }
    let span_us = end_us.saturating_sub(req.enqueue_us);
    let trace = RequestTrace {
        request_id: req.id,
        tenant: req.tenant.clone(),
        admitted_us: req.enqueue_us,
        queue_wait_us: req.wait_us,
        batch_size: batch.size,
        batch_position: batch.position,
        batch_share_us: batch.share_us,
        bfs_us: batch.bfs_us,
        span_us,
        overhead_us: span_us.saturating_sub(req.wait_us + batch.share_us + batch.bfs_us),
        outcome,
        degraded: batch.degraded,
    };
    let outcome = outcome.as_str();
    if let Some(tenant) = trace.tenant.as_deref() {
        qdgnn_obs::counter_with("serve.tenant_request", &[("tenant", tenant), ("outcome", outcome)])
            .inc();
    }
    qdgnn_obs::observe_with("serve.request_span", &[("outcome", outcome)], trace.span_us as f64);
    qdgnn_obs::trace(
        "serve.request",
        &[("outcome", outcome)],
        &[
            ("request_id", trace.request_id as f64),
            ("admitted_us", trace.admitted_us as f64),
            ("queue_wait_us", trace.queue_wait_us as f64),
            ("batch_size", trace.batch_size as f64),
            ("batch_position", trace.batch_position as f64),
            ("batch_share_us", trace.batch_share_us as f64),
            ("bfs_us", trace.bfs_us as f64),
            ("span_us", trace.span_us as f64),
            ("overhead_us", trace.overhead_us as f64),
            ("degraded", if trace.degraded { 1.0 } else { 0.0 }),
        ],
    );
    shared.exemplars.lock().record(end_us, trace);
    reply
}

/// Whether the breaker currently holds the engine degraded at `now`.
/// Recovery happens here: a cooldown that has fully elapsed closes the
/// breaker (clearing the panic history) and restores batching.
fn degraded_now(shared: &Shared, now: u64) -> bool {
    let mut b = shared.breaker.lock();
    match b.tripped_at_us {
        None => false,
        Some(tripped) => {
            if now.saturating_sub(tripped) >= shared.breaker_cooldown_us {
                b.tripped_at_us = None;
                b.panic_times_us.clear();
                qdgnn_obs::gauge("serve.degraded_mode").set(0.0);
                false
            } else {
                true
            }
        }
    }
}

/// Breaker accounting for one absorbed worker panic: count it, age out
/// panics older than the window, and trip (or re-arm) degraded mode.
fn record_panic(shared: &Shared) {
    let now = shared.clock.now_micros();
    shared.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
    qdgnn_obs::counter("serve.worker_panics").inc();
    let mut b = shared.breaker.lock();
    b.panic_times_us.push_back(now);
    let cutoff = now.saturating_sub(shared.panic_window_us);
    while b.panic_times_us.front().is_some_and(|&t| t < cutoff) {
        b.panic_times_us.pop_front();
    }
    if b.tripped_at_us.is_some() {
        // A panic during the cooldown restarts it.
        b.tripped_at_us = Some(now);
    } else if b.panic_times_us.len() as u32 >= shared.panic_threshold {
        b.tripped_at_us = Some(now);
        shared.counters.breaker_trips.fetch_add(1, Ordering::Relaxed);
        qdgnn_obs::counter("serve.breaker_trips").inc();
        qdgnn_obs::gauge("serve.degraded_mode").set(1.0);
    }
}

/// Tier-1 shedding: answers every queued request whose deadline has
/// passed with a typed [`ServeError::DeadlineExceeded`], removing it
/// from the queue so it never occupies a batch slot. Runs under the
/// queue lock; the channel send never blocks.
fn shed_expired(shared: &Shared, q: &mut QueueState, now: u64) {
    let mut i = 0;
    while i < q.requests.len() {
        let expired = q.requests.get(i).is_some_and(|r| r.deadline_us <= now);
        if !expired {
            i += 1;
            continue;
        }
        let Some(mut req) = q.requests.remove(i) else { break };
        // Its whole span was queue wait.
        req.wait_us = now.saturating_sub(req.enqueue_us);
        let shed =
            ServeError::DeadlineExceeded { waited_us: req.wait_us, deadline_us: req.budget_us() };
        let reply = finish(shared, &req, TraceOutcome::ShedDeadline, UNBATCHED, now, Err(shed));
        let _ = req.reply.send(reply);
    }
}

/// Folds one observed queue wait into the admission estimator. Races
/// between workers can drop an update; the estimator only needs to
/// track the trend, not count exactly.
fn observe_wait_ewma(shared: &Shared, wait_us: u64) {
    let e = shared.wait_ewma_us.load(Ordering::Relaxed);
    let updated = e - (e >> EWMA_SHIFT) + (wait_us >> EWMA_SHIFT);
    shared.wait_ewma_us.store(updated, Ordering::Relaxed);
}

/// Blocks until the policy says flush (or shutdown drains), then drains
/// up to `max_batch` requests FIFO (1 in degraded mode). Expired
/// requests are shed before every flush decision. `None` means shutdown
/// with an empty queue: the worker should exit. The returned flag says
/// whether the batch was taken under the degraded regime, so request
/// traces can record it.
fn next_batch(shared: &Shared) -> Option<(Vec<Request>, bool)> {
    let mut q = shared.queue.lock();
    loop {
        let now = shared.clock.now_micros();
        shed_expired(shared, &mut q, now);
        if q.shutting_down {
            if q.requests.is_empty() {
                return None;
            }
            // Drain mode: flush whatever is queued, deadline irrelevant.
            break;
        }
        // Degraded mode suspends batching entirely: flush single
        // requests as soon as they arrive, so a poisoned query can only
        // take itself down.
        if !q.requests.is_empty() && degraded_now(shared, now) {
            break;
        }
        let oldest = q.requests.front().map(|r| r.enqueue_us).unwrap_or(now);
        match shared.policy.decide(q.requests.len(), oldest, now) {
            BatchDecision::Flush => break,
            BatchDecision::WaitAtMost(us) => {
                // Cap the real sleep at one poll tick so the next
                // deadline decision re-reads the injected clock: under a
                // fake clock, `us` says "forever" until the test advances
                // time, and the condvar wait must not believe it.
                let tick = us.min(POLL_TICK_US);
                shared
                    .work_ready
                    // qdgnn-analyze: allow(QD011, reason = "condvar wait atomically releases the queue guard while blocked and reacquires it on wake")
                    .wait_for(&mut q, Duration::from_micros(tick));
            }
        }
    }
    let now = shared.clock.now_micros();
    let degraded = degraded_now(shared, now);
    let limit = if degraded { 1 } else { shared.policy.max_batch };
    let take = q.requests.len().min(limit);
    Some((q.requests.drain(..take).collect(), degraded))
}

/// Worker body: flush batches until shutdown empties the queue. The
/// in-flight `slot` parks each batch across the fallible forward pass
/// so the supervisor can answer it after a panic.
fn worker_loop(shared: &Shared, slot: &Mutex<Vec<Request>>) {
    loop {
        let Some((mut batch, degraded)) = next_batch(shared) else {
            return;
        };
        if batch.is_empty() {
            continue;
        }
        let _flush_span = qdgnn_obs::span!("serve.flush");
        let now = shared.clock.now_micros();
        for req in &mut batch {
            // Stamp the queue wait on the request itself: if the batch
            // panics mid-forward, its traces still attribute the wait.
            req.wait_us = now.saturating_sub(req.enqueue_us);
            qdgnn_obs::observe("serve.queue_wait", req.wait_us as f64);
            observe_wait_ewma(shared, req.wait_us);
        }
        let queries: Vec<Query> = batch.iter().map(|r| r.query.clone()).collect();
        // Park the batch before the forward pass: if the stage panics,
        // nothing below runs, and the supervisor drains the slot.
        *slot.lock() = batch;
        let (results, timing) = shared.stage.try_query_batch(&queries, shared.clock.as_ref());
        let end_us = shared.clock.now_micros();
        let batch = std::mem::take(&mut *slot.lock());
        let size = batch.len() as u64;
        // Amortize the batch forward pass across its requests so the
        // shares sum exactly to the measured forward time: everyone gets
        // the integer share, the first `forward % size` positions absorb
        // the remainder microseconds.
        let (share, remainder) =
            (timing.forward_us / size.max(1), timing.forward_us % size.max(1));
        for (pos, (req, res)) in batch.into_iter().zip(results).enumerate() {
            let phases = BatchPhases {
                size,
                position: pos as u64,
                share_us: share + u64::from((pos as u64) < remainder),
                bfs_us: timing.bfs_us.get(pos).copied().unwrap_or(0),
                degraded,
            };
            let outcome =
                if res.is_ok() { TraceOutcome::Answered } else { TraceOutcome::QueryError };
            let reply = res.map_err(ServeError::Query);
            let reply = finish(shared, &req, outcome, phases, end_us, reply);
            // A submitter that dropped its Pending no longer cares.
            let _ = req.reply.send(reply);
        }
    }
}

/// Finishes a batch whose forward pass died mid-flight with
/// [`ServeError::WorkerPanicked`]; with share and BFS unattributable,
/// everything after the stamped queue wait lands in overhead.
fn fail_batch(shared: &Shared, batch: Vec<Request>) {
    let now = shared.clock.now_micros();
    let size = batch.len() as u64;
    for (pos, req) in batch.into_iter().enumerate() {
        let phases = BatchPhases { size, position: pos as u64, ..UNBATCHED };
        let reply = Err(ServeError::WorkerPanicked);
        let reply = finish(shared, &req, TraceOutcome::WorkerPanicked, phases, now, reply);
        let _ = req.reply.send(reply);
    }
}

/// Worker supervisor: runs the worker loop under `catch_unwind`. A
/// panic answers the parked batch with [`ServeError::WorkerPanicked`]
/// (zero lost replies), records the panic for the breaker, and restarts
/// the loop — the pool returns to full strength immediately. An `Ok`
/// return is the orderly shutdown drain finishing.
fn supervise_worker(shared: &Shared, idx: usize) {
    let Some(slot) = shared.in_flight.get(idx) else {
        return;
    };
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(shared, slot)
        }));
        match outcome {
            Ok(()) => return,
            Err(_) => {
                let dying = std::mem::take(&mut *slot.lock());
                fail_batch(shared, dying);
                record_panic(shared);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_core::{AqdGnn, CsModel, GraphTensors, ModelConfig};
    use qdgnn_data::{presets, queries as qgen, AttrMode};
    use qdgnn_graph::attributed::AdjNorm;
    use qdgnn_obs::clock::FakeClock;

    /// Two stages over the *same* model and tensors (shared `Arc`s): one
    /// for the engine, one kept as the sequential reference.
    fn twin_stages() -> (OnlineStage<'static>, OnlineStage<'static>, Vec<Query>) {
        let data = presets::toy();
        let t = Arc::new(GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100));
        let queries = qgen::generate(&data, 24, 1, 2, AttrMode::FromCommunity, 7);
        let model: Arc<dyn CsModel> = Arc::new(AqdGnn::new(ModelConfig::fast(), t.d));
        let engine_stage = OnlineStage::new_shared(Arc::clone(&model), Arc::clone(&t), 0.5);
        let reference = OnlineStage::new_shared(model, t, 0.5);
        (engine_stage, reference, queries)
    }

    #[test]
    fn engine_answers_match_direct_stage_calls() {
        let (stage, reference, queries) = twin_stages();
        let engine = ServeEngine::new(
            stage,
            ServeConfig {
                max_batch: 8,
                max_wait_us: 200,
                queue_capacity: 64,
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .expect("engine must start");
        let pending: Vec<Pending> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).expect("queue has room"))
            .collect();
        for (q, p) in queries.iter().zip(pending) {
            let got = p.wait().expect("valid query must be served");
            let want = reference.try_query(q).expect("reference agrees the query is valid");
            assert_eq!(got, want, "engine answer must match the direct stage call");
        }
        assert_eq!(engine.stats(), EngineStats::default(), "clean run records no failures");
        engine.shutdown();
    }

    #[test]
    fn full_queue_rejects_and_shutdown_still_drains_accepted_work() {
        let (stage, _reference, queries) = twin_stages();
        // Frozen clock + oversized batch: workers can never flush, so the
        // queue fills deterministically.
        let clock = Arc::new(FakeClock::new());
        let engine = ServeEngine::with_clock(
            stage,
            ServeConfig {
                max_batch: 64,
                max_wait_us: 10_000,
                queue_capacity: 4,
                workers: 1,
                ..ServeConfig::default()
            },
            clock,
        )
        .expect("engine must start");
        let accepted: Vec<Pending> = queries
            .iter()
            .take(4)
            .map(|q| engine.submit(q.clone()).expect("queue has room"))
            .collect();
        assert_eq!(engine.queue_depth(), 4);
        match engine.submit(queries[4].clone()) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 4),
            Err(other) => panic!("expected QueueFull, got {other:?}"),
            Ok(_) => panic!("expected QueueFull, got an accepted submission"),
        }
        assert_eq!(engine.stats().rejected, 1, "a full queue counts as a rejection");
        // Graceful shutdown must answer every accepted request even with
        // the batching clock frozen.
        engine.shutdown();
        for p in accepted {
            assert!(p.wait().is_ok(), "accepted request lost in shutdown");
        }
        assert!(matches!(engine.submit(queries[0].clone()), Err(ServeError::ShuttingDown)));
        let stats = engine.stats();
        assert_eq!(stats.rejected, 2, "a submit after shutdown counts as a rejection");
        assert_eq!(stats.shed_admission + stats.shed_deadline, 0, "rejections are not sheds");
    }

    #[test]
    fn shutdown_drains_multiple_batches_and_isolates_bad_queries() {
        let (stage, _reference, mut queries) = twin_stages();
        let n = stage.tensors().n as u32;
        queries.truncate(9);
        // Plant one malformed query mid-queue: it must fail alone.
        queries[4] = Query { vertices: vec![n + 3], attrs: vec![], truth: vec![] };
        let clock = Arc::new(FakeClock::new());
        let engine = ServeEngine::with_clock(
            stage,
            // max_batch 3 < 9 queued: the drain needs several flushes.
            ServeConfig {
                max_batch: 3,
                max_wait_us: 60_000_000,
                queue_capacity: 32,
                workers: 1,
                ..ServeConfig::default()
            },
            clock,
        )
        .expect("engine must start");
        let pending: Vec<Pending> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).expect("queue has room"))
            .collect();
        engine.shutdown();
        for (i, p) in pending.into_iter().enumerate() {
            let reply = p.wait();
            if i == 4 {
                assert!(
                    matches!(reply, Err(ServeError::Query(_))),
                    "malformed query must fail with a typed query error"
                );
            } else {
                assert!(reply.is_ok(), "well-formed query {i} lost in shutdown drain");
            }
        }
    }

    #[test]
    fn fake_clock_pins_the_max_wait_deadline() {
        let (stage, _reference, queries) = twin_stages();
        let clock = Arc::new(FakeClock::new());
        let engine = ServeEngine::with_clock(
            stage,
            ServeConfig {
                max_batch: 8,
                max_wait_us: 500,
                queue_capacity: 16,
                workers: 1,
                ..ServeConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .expect("engine must start");
        let a = engine.submit(queries[0].clone()).expect("queue has room");
        let b = engine.submit(queries[1].clone()).expect("queue has room");
        // Real time passes, fake time does not: the partial batch must
        // not flush no matter how long we wait.
        std::thread::sleep(Duration::from_millis(30));
        assert!(a.try_wait().is_none(), "flushed before the injected-clock deadline");
        assert!(b.try_wait().is_none(), "flushed before the injected-clock deadline");
        // One tick short of the deadline: still queued.
        clock.advance_micros(499);
        std::thread::sleep(Duration::from_millis(30));
        assert!(a.try_wait().is_none(), "flushed one microsecond early");
        // Crossing the deadline releases the batch promptly.
        clock.advance_micros(1);
        let ra = a.wait_timeout(Duration::from_secs(30)).expect("deadline crossed, must flush");
        let rb = b.wait_timeout(Duration::from_secs(30)).expect("deadline crossed, must flush");
        assert!(ra.is_ok() && rb.is_ok());
        engine.shutdown();
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue_with_exact_accounting() {
        let (stage, _reference, queries) = twin_stages();
        let clock = Arc::new(FakeClock::new());
        let engine = ServeEngine::with_clock(
            stage,
            ServeConfig {
                max_batch: 8,
                max_wait_us: 1_000,
                queue_capacity: 16,
                workers: 1,
                ..ServeConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .expect("engine must start");
        // Two requests with a 500µs budget, one without. Clock frozen:
        // nothing flushes, nothing sheds.
        let a = engine
            .submit_with_deadline(queries[0].clone(), Some(Duration::from_micros(500)))
            .expect("queue has room");
        let b = engine
            .submit_with_deadline(queries[1].clone(), Some(Duration::from_micros(500)))
            .expect("queue has room");
        let c = engine.submit(queries[2].clone()).expect("queue has room");
        std::thread::sleep(Duration::from_millis(10));
        assert!(a.try_wait().is_none() && b.try_wait().is_none() && c.try_wait().is_none());
        // Crossing the 500µs budgets (but not the 1000µs batch wait):
        // the worker sheds exactly the deadline'd pair at dequeue time.
        clock.advance_micros(600);
        let ra = a.wait_timeout(Duration::from_secs(30)).expect("shed reply must arrive");
        let rb = b.wait_timeout(Duration::from_secs(30)).expect("shed reply must arrive");
        for r in [ra, rb] {
            match r {
                Err(ServeError::DeadlineExceeded { waited_us, deadline_us }) => {
                    assert_eq!(deadline_us, 500);
                    assert_eq!(waited_us, 600, "shed wait is measured on the engine clock");
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        // The no-deadline request is untouched and still flushes on the
        // batch deadline.
        assert!(c.try_wait().is_none(), "no-deadline request must not be shed");
        clock.advance_micros(400);
        assert!(c.wait_timeout(Duration::from_secs(30)).expect("batch deadline flush").is_ok());
        let stats = engine.stats();
        assert_eq!(stats.shed_deadline, 2, "exactly the two expired requests are shed");
        assert_eq!(stats.shed_admission, 0);
        assert_eq!(stats.worker_panics, 0);
        engine.shutdown();
    }

    #[test]
    fn admission_sheds_when_estimated_wait_exceeds_budget() {
        let (stage, _reference, queries) = twin_stages();
        let clock = Arc::new(FakeClock::new());
        let engine = ServeEngine::with_clock(
            stage,
            ServeConfig {
                max_batch: 64,
                max_wait_us: 50_000,
                queue_capacity: 16,
                workers: 1,
                ..ServeConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .expect("engine must start");
        // Teach the estimator that queue waits are huge: four requests
        // that sit 100ms (fake) before their batch flushes.
        let slow: Vec<Pending> = queries
            .iter()
            .take(4)
            .map(|q| engine.submit(q.clone()).expect("queue has room"))
            .collect();
        clock.advance_micros(100_000);
        for p in slow {
            assert!(p.wait_timeout(Duration::from_secs(30)).expect("flush").is_ok());
        }
        // Keep the queue non-empty (admission shedding is moot on an
        // empty queue), then offer a request whose 1ms budget the
        // estimator already knows cannot be met.
        let parked = engine.submit(queries[4].clone()).expect("queue has room");
        match engine.submit_with_deadline(queries[5].clone(), Some(Duration::from_micros(1_000))) {
            Err(ServeError::DeadlineExceeded { waited_us, deadline_us }) => {
                assert_eq!(waited_us, 0, "admission-tier sheds never entered the queue");
                assert_eq!(deadline_us, 1_000);
            }
            Err(other) => panic!("expected admission-tier DeadlineExceeded, got {other:?}"),
            Ok(_) => panic!("expected admission-tier DeadlineExceeded, got an admission"),
        }
        let stats = engine.stats();
        assert_eq!(stats.shed_admission, 1);
        assert_eq!(stats.shed_deadline, 0);
        // A deadline the estimator can meet is still admitted.
        let ok = engine
            .submit_with_deadline(queries[6].clone(), Some(Duration::from_secs(600)))
            .expect("generous deadline must be admitted");
        engine.shutdown();
        assert!(parked.wait().is_ok());
        assert!(ok.wait().is_ok());
    }

    #[test]
    fn pending_wait_is_bounded_by_the_request_deadline() {
        let (stage, _reference, queries) = twin_stages();
        // Frozen clock, oversized batch: the engine is effectively
        // stalled. The caller-side backstop must still return.
        let clock = Arc::new(FakeClock::new());
        let engine = ServeEngine::with_clock(
            stage,
            ServeConfig {
                max_batch: 64,
                max_wait_us: 60_000_000,
                queue_capacity: 16,
                workers: 1,
                ..ServeConfig::default()
            },
            clock,
        )
        .expect("engine must start");
        let p = engine
            .submit_with_deadline(queries[0].clone(), Some(Duration::from_millis(50)))
            .expect("queue has room");
        let t0 = std::time::Instant::now();
        match p.wait() {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("stalled engine must surface DeadlineExceeded, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "wait() must not block far past the deadline budget"
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_is_safe_after_it() {
        let (stage, _reference, queries) = twin_stages();
        let engine = ServeEngine::new(stage, ServeConfig::default()).expect("engine must start");
        let reply = engine.query_blocking(queries[0].clone());
        assert!(reply.is_ok());
        engine.shutdown();
        engine.shutdown();
        // Drop runs shutdown a third time.
    }
}
