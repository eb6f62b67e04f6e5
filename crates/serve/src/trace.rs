//! Request-scoped telemetry: the outcome taxonomy, the per-request
//! trace record the engine writes when a request ends, and the
//! tail-exemplar ring that retains the most interesting traces for the
//! `/traces` endpoint.
//!
//! Every request the engine sees, refused ones included, ends in exactly
//! one [`TraceOutcome`] through the engine's single terminal path, the
//! only code that builds a [`RequestTrace`]. It derives `span_us` and
//! `overhead_us` itself, so `queue_wait + batch_share + bfs + overhead ==
//! span` holds by construction.
//!
//! Traces are recorded in **every** build (like the engine's counters):
//! the exemplar ring and the phase arithmetic never depend on the obs
//! feature, only the labeled-metric and trace-event mirrors do. All
//! timings are on the engine's injected clock.

use std::collections::VecDeque;
use std::sync::Arc;

use qdgnn_obs::json;

/// Terminal disposition of one request (the `outcome` metric label).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered with a community.
    Answered,
    /// Answered with a typed per-query error (malformed query).
    QueryError,
    /// Refused at submit: the queue was full (`QueueFull`) or the engine
    /// was shutting down (`ShuttingDown`), so it never entered the queue.
    Rejected,
    /// Shed at admission: the queue-wait estimate already exceeded the
    /// request's deadline budget, so it never entered the queue.
    ShedAdmission,
    /// Shed at dequeue: the deadline expired while queued.
    ShedDeadline,
    /// The worker executing this request's batch panicked; supervision
    /// answered the whole batch with `WorkerPanicked`.
    WorkerPanicked,
}

impl TraceOutcome {
    /// Every outcome, in declaration order: `outcome as usize` indexes
    /// this array (and the engine's per-outcome counter table).
    pub const ALL: [TraceOutcome; 6] = [
        TraceOutcome::Answered,
        TraceOutcome::QueryError,
        TraceOutcome::Rejected,
        TraceOutcome::ShedAdmission,
        TraceOutcome::ShedDeadline,
        TraceOutcome::WorkerPanicked,
    ];

    /// Stable label value used for the `outcome` metric label and the
    /// trace JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Answered => "answered",
            TraceOutcome::QueryError => "query_error",
            TraceOutcome::Rejected => "rejected",
            TraceOutcome::ShedAdmission => "shed_admission",
            TraceOutcome::ShedDeadline => "shed_deadline",
            TraceOutcome::WorkerPanicked => "worker_panicked",
        }
    }

    /// Whether this disposition counts as shed/failed for the exemplar
    /// ring's recently-shed window.
    pub fn is_shed(self) -> bool {
        !matches!(self, TraceOutcome::Answered | TraceOutcome::QueryError)
    }
}

/// Exact phase attribution for one request, engine-clock microseconds.
///
/// The phases partition the request's end-to-end span:
/// `queue_wait_us + batch_share_us + bfs_us + overhead_us == span_us`,
/// exactly, in every build. Requests that never reached a batch have the
/// batch phases zeroed (`span_us` is how long they waited before being
/// shed; zero for rejections and admission-tier sheds, which never
/// entered the queue).
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Engine-unique request id, minted at submit.
    pub request_id: u64,
    /// Caller-supplied tenant label, if any (bounded cardinality is the
    /// caller's contract; the metric layer caps label sets regardless).
    pub tenant: Option<Arc<str>>,
    /// Admission timestamp (engine clock).
    pub admitted_us: u64,
    /// Time spent queued before its batch was drained.
    pub queue_wait_us: u64,
    /// Size of the batch this request executed in (0 if none).
    pub batch_size: u64,
    /// Position of this request within its batch (0-based).
    pub batch_position: u64,
    /// This request's amortized share of the batch forward pass. Shares
    /// across a batch sum exactly to the measured forward time.
    pub batch_share_us: u64,
    /// This request's own constrained-BFS + extraction time.
    pub bfs_us: u64,
    /// End-to-end span from admission to the terminal disposition.
    pub span_us: u64,
    /// `span_us` minus the attributed phases: reply-channel and
    /// bookkeeping time.
    pub overhead_us: u64,
    /// Terminal disposition.
    pub outcome: TraceOutcome,
    /// Whether the batch executed under the degraded (batch = 1)
    /// circuit-breaker regime; `false` unless its forward pass completed.
    pub degraded: bool,
}

impl RequestTrace {
    /// One JSONL line for the `/traces` endpoint and trace dumps.
    pub fn to_json(&self) -> String {
        let tenant = match &self.tenant {
            Some(t) => json::escape(t),
            None => "null".to_string(),
        };
        format!(
            "{{\"type\":\"request_trace\",\"request_id\":{},\"tenant\":{tenant},\
             \"outcome\":\"{}\",\"admitted_us\":{},\"queue_wait_us\":{},\
             \"batch_size\":{},\"batch_position\":{},\"batch_share_us\":{},\
             \"bfs_us\":{},\"span_us\":{},\"overhead_us\":{},\"degraded\":{}}}",
            self.request_id,
            self.outcome.as_str(),
            self.admitted_us,
            self.queue_wait_us,
            self.batch_size,
            self.batch_position,
            self.batch_share_us,
            self.bfs_us,
            self.span_us,
            self.overhead_us,
            self.degraded,
        )
    }
}

/// Tail-exemplar retention: within a rolling window, keeps the K
/// slowest traces (any outcome) and the K most recently shed ones, so
/// `/traces` can answer "what did the worst requests look like" without
/// retaining every trace.
pub struct ExemplarRing {
    k: usize,
    window_us: u64,
    window_start_us: u64,
    slowest: Vec<RequestTrace>,
    shed: VecDeque<RequestTrace>,
}

impl ExemplarRing {
    /// A ring keeping `k` exemplars per category over `window_us` wide
    /// windows (engine clock).
    pub fn new(k: usize, window_us: u64) -> Self {
        ExemplarRing { k, window_us, window_start_us: 0, slowest: Vec::new(), shed: VecDeque::new() }
    }

    /// Offers one finished trace at engine time `now_us`. Crossing a
    /// window boundary clears both categories first, so exemplars never
    /// describe load older than one window.
    pub fn record(&mut self, now_us: u64, trace: RequestTrace) {
        if now_us.saturating_sub(self.window_start_us) >= self.window_us {
            self.slowest.clear();
            self.shed.clear();
            self.window_start_us = now_us;
        }
        if trace.outcome.is_shed() {
            if self.shed.len() == self.k {
                self.shed.pop_front();
            }
            self.shed.push_back(trace.clone());
        }
        if self.slowest.len() < self.k {
            self.slowest.push(trace);
        } else if let Some((at, min)) = self
            .slowest
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.span_us)
            .map(|(i, t)| (i, t.span_us))
        {
            if trace.span_us > min {
                if let Some(slot) = self.slowest.get_mut(at) {
                    *slot = trace;
                }
            }
        }
    }

    /// Current exemplars: the slowest set (descending by span), then the
    /// shed set (oldest first).
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        let mut out: Vec<RequestTrace> = self.slowest.clone();
        out.sort_by_key(|t| std::cmp::Reverse(t.span_us));
        out.extend(self.shed.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, span_us: u64, outcome: TraceOutcome) -> RequestTrace {
        RequestTrace {
            request_id: id,
            tenant: None,
            admitted_us: 0,
            queue_wait_us: span_us,
            batch_size: 0,
            batch_position: 0,
            batch_share_us: 0,
            bfs_us: 0,
            span_us,
            overhead_us: 0,
            outcome,
            degraded: false,
        }
    }

    #[test]
    fn json_line_has_the_schema_fields() {
        let mut t = trace(7, 120, TraceOutcome::Answered);
        t.tenant = Some(Arc::from("acme"));
        let j = t.to_json();
        for needle in [
            "\"type\":\"request_trace\"",
            "\"request_id\":7",
            "\"tenant\":\"acme\"",
            "\"outcome\":\"answered\"",
            "\"span_us\":120",
            "\"degraded\":false",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        assert!(trace(1, 0, TraceOutcome::ShedDeadline).to_json().contains("\"tenant\":null"));
    }

    #[test]
    fn all_lists_every_outcome_in_declaration_order() {
        for (i, o) in TraceOutcome::ALL.into_iter().enumerate() {
            assert_eq!(o as usize, i, "{o:?} is out of place in ALL");
        }
        let shed: Vec<&str> =
            TraceOutcome::ALL.into_iter().filter(|o| o.is_shed()).map(|o| o.as_str()).collect();
        assert_eq!(shed, ["rejected", "shed_admission", "shed_deadline", "worker_panicked"]);
    }

    #[test]
    fn slowest_keeps_the_k_largest_spans() {
        let mut ring = ExemplarRing::new(2, 1_000_000);
        for (id, span) in [(1, 10), (2, 50), (3, 30), (4, 5), (5, 40)] {
            ring.record(100, trace(id, span, TraceOutcome::Answered));
        }
        let snap = ring.snapshot();
        let ids: Vec<u64> = snap.iter().map(|t| t.request_id).collect();
        assert_eq!(ids, vec![2, 5], "slowest exemplars in descending span order");
    }

    #[test]
    fn shed_keeps_the_k_most_recent_in_order() {
        let mut ring = ExemplarRing::new(2, 1_000_000);
        ring.record(10, trace(1, 3, TraceOutcome::ShedDeadline));
        ring.record(11, trace(2, 2, TraceOutcome::ShedAdmission));
        ring.record(12, trace(3, 1, TraceOutcome::WorkerPanicked));
        let shed: Vec<u64> = ring
            .snapshot()
            .into_iter()
            .filter(|t| t.outcome.is_shed())
            .map(|t| t.request_id)
            .collect();
        // id 1 evicted (oldest); shed exemplars are also span-eligible
        // for the slowest set, so filter on outcome and dedup.
        assert!(shed.ends_with(&[2, 3]), "eviction must drop the oldest shed trace: {shed:?}");
        assert!(!shed.contains(&1) || shed.iter().filter(|&&i| i == 1).count() <= 1);
    }

    #[test]
    fn window_rollover_clears_both_categories() {
        let mut ring = ExemplarRing::new(4, 100);
        ring.record(10, trace(1, 99, TraceOutcome::Answered));
        ring.record(20, trace(2, 98, TraceOutcome::ShedDeadline));
        assert!(!ring.snapshot().is_empty());
        ring.record(200, trace(3, 1, TraceOutcome::Answered));
        let ids: Vec<u64> = ring.snapshot().iter().map(|t| t.request_id).collect();
        assert_eq!(ids, vec![3], "old-window exemplars must be dropped");
    }
}
