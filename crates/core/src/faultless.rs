//! Fault-injection harness for chaos testing (compiled only with the
//! `chaos` feature; never enable it in production builds).
//!
//! The harness drives three failure classes the robustness layer must
//! absorb:
//!
//! * **poisoned optimizer steps** — [`inject_at_step`] arms a
//!   [`GradFault`] that the training loop applies to the reduced gradient
//!   batch at a chosen step attempt, exercising the NaN/Inf skip guard
//!   and the divergence-rollback path in `run_training`;
//! * **damaged model/checkpoint files** — [`corrupt_file_line`] and
//!   [`truncate_file_at_line`] mangle persisted artifacts at any line,
//!   exercising the `InvalidData` rejection paths of `load_model` and
//!   `Trainer::resume_from`;
//! * **malformed queries** — [`out_of_range_query`] builds queries whose
//!   ids cannot belong to the served graph, exercising
//!   `OnlineStage::try_query` validation;
//! * **serve-path faults** — [`inject_serve_fault_at_call`] arms a
//!   [`ServeFault`] (panic, stall, simulated allocation failure) that
//!   fires inside `OnlineStage::try_scores_batch` at a chosen forward
//!   call, exercising the serving engine's worker supervision, deadline
//!   shedding, and circuit breaker. Every online-stage forward pass goes
//!   through it, single queries (`try_query`, a batch of one) included.
//!
//! Step attempts are counted monotonically across divergence rollbacks
//! (the counter never rewinds), so a fault armed for step `s` fires at
//! most once. Faults are one-shot: firing removes them from the registry.
//!
//! The registries are process-global; chaos tests that train or serve
//! concurrently must serialize on their own lock.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use qdgnn_data::Query;
use qdgnn_tensor::GradStore;

/// A gradient fault to apply to one optimizer step attempt.
#[derive(Clone, Copy, Debug)]
pub enum GradFault {
    /// Replaces every accumulated gradient value with NaN — must be
    /// caught by the per-step finite guard (the step is skipped).
    NanGrads,
    /// Scales gradients by a huge factor — with clipping disabled this
    /// wrecks the weights and must trigger divergence rollback.
    ExplodeGrads(f32),
}

fn registry() -> &'static Mutex<HashMap<u64, GradFault>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, GradFault>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `fault` to fire at optimizer step attempt `step` (1-based).
pub fn inject_at_step(step: u64, fault: GradFault) {
    registry().lock().unwrap().insert(step, fault);
}

/// Arms `fault` for every step attempt in `steps`.
pub fn inject_at_steps(steps: impl IntoIterator<Item = u64>, fault: GradFault) {
    let mut reg = registry().lock().unwrap();
    for s in steps {
        reg.insert(s, fault);
    }
}

/// Disarms every pending fault.
pub fn clear() {
    registry().lock().unwrap().clear();
}

/// Number of faults still armed (fired faults are removed).
pub fn pending() -> usize {
    registry().lock().unwrap().len()
}

/// Training-loop hook: applies (and consumes) the fault armed for `step`,
/// if any.
pub(crate) fn mutate_gradients(step: u64, grads: &mut GradStore) {
    let fault = registry().lock().unwrap().remove(&step);
    match fault {
        None => {}
        Some(GradFault::NanGrads) => grads.scale(f32::NAN),
        Some(GradFault::ExplodeGrads(k)) => grads.scale(k),
    }
}

/// A fault to fire inside one online-stage forward pass.
#[derive(Clone, Copy, Debug)]
pub enum ServeFault {
    /// Panics mid-forward — the whole batch dies. Exercises worker
    /// supervision: every co-batched request must still get a typed
    /// `WorkerPanicked` reply and the worker must respawn.
    PanicInForward,
    /// Sleeps this many microseconds of *real* time before the forward
    /// pass — a slow/stuck model. Exercises deadline shedding of
    /// requests queued behind the stall.
    StallForwardMicros(u64),
    /// Simulates a failed working-buffer allocation by panicking with a
    /// capacity-overflow message, the shape a real OOM abort-avoiding
    /// allocator hook would produce. Supervision must treat it exactly
    /// like any other panic.
    AllocFailure,
}

fn serve_registry() -> &'static Mutex<HashMap<u64, ServeFault>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, ServeFault>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn serve_call_counter() -> &'static Mutex<u64> {
    static COUNTER: OnceLock<Mutex<u64>> = OnceLock::new();
    COUNTER.get_or_init(|| Mutex::new(0))
}

/// Arms `fault` to fire at the `call`-th (1-based) online-stage forward
/// pass counted from the last [`reset_serve_calls`]. One-shot:
/// firing removes the fault.
pub fn inject_serve_fault_at_call(call: u64, fault: ServeFault) {
    serve_registry().lock().unwrap().insert(call, fault);
}

/// Disarms every pending serve fault and rewinds the call counter, so a
/// test starts from a clean slate regardless of what ran before it.
pub fn reset_serve_calls() {
    serve_registry().lock().unwrap().clear();
    *serve_call_counter().lock().unwrap() = 0;
}

/// Number of serve faults still armed (fired faults are removed).
pub fn pending_serve() -> usize {
    serve_registry().lock().unwrap().len()
}

/// Serving-path hook: counts one online-stage forward call (any batch
/// size, single queries included) and fires (and consumes) the fault
/// armed for it, if any. Panicking faults unwind out of the stage into
/// the engine's worker supervision.
pub(crate) fn serve_forward_hook() {
    let call = {
        // qdgnn-analyze: allow(QD009, reason = "chaos-only counter mutex; poisoned only if this hook already panicked, i.e. the injected fault fired")
        let mut c = serve_call_counter().lock().unwrap();
        *c += 1;
        *c
    };
    // qdgnn-analyze: allow(QD009, reason = "chaos-only registry mutex; poisoned only if this hook already panicked, i.e. the injected fault fired")
    let fault = serve_registry().lock().unwrap().remove(&call);
    match fault {
        None => {}
        Some(ServeFault::PanicInForward) => {
            // qdgnn-analyze: allow(QD009, reason = "injected chaos fault: panicking here is the contract; worker supervision contains the unwind")
            panic!("chaos: injected panic in batched serving forward (call {call})")
        }
        Some(ServeFault::StallForwardMicros(us)) => {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        Some(ServeFault::AllocFailure) => {
            // qdgnn-analyze: allow(QD009, reason = "injected chaos fault: panicking here is the contract; worker supervision contains the unwind")
            panic!("chaos: capacity overflow allocating serving working buffers (call {call})")
        }
    }
}

/// Overwrites 0-based `line_no` of a text file with non-parsable garbage.
pub fn corrupt_file_line(path: impl AsRef<Path>, line_no: usize) -> io::Result<()> {
    let content = std::fs::read_to_string(&path)?;
    let mangled: String = content
        .lines()
        .enumerate()
        .map(|(i, l)| if i == line_no { "@@ chaos @@\n".to_string() } else { format!("{l}\n") })
        .collect();
    std::fs::write(&path, mangled)
}

/// Truncates a text file to its first `keep_lines` lines.
pub fn truncate_file_at_line(path: impl AsRef<Path>, keep_lines: usize) -> io::Result<()> {
    let content = std::fs::read_to_string(&path)?;
    let truncated: String =
        content.lines().take(keep_lines).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, truncated)
}

/// A query whose vertex and attribute ids are guaranteed out of range for
/// a graph with `n` vertices and `d` attributes.
pub fn out_of_range_query(n: usize, d: usize) -> Query {
    Query { vertices: vec![n as u32 + 1], attrs: vec![d as u32 + 1], truth: vec![] }
}
