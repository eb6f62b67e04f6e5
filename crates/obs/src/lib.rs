//! # qdgnn-obs — structured tracing and metrics for QD-GNN
//!
//! Dependency-free observability layer shared by training, serving and
//! the experiment harness:
//!
//! * **spans** — RAII scoped timers with per-thread parent nesting,
//!   created via [`span!`];
//! * **metrics** — named counters, gauges and fixed-bucket histograms
//!   with p50/p95/p99 snapshots ([`metrics`]);
//! * **events** — an optional buffered JSONL stream of spans and point
//!   events for `--metrics-out` ([`events`]);
//! * **clock injection** — all timestamps come from a [`clock::Clock`]
//!   (monotonic by default, fake in tests), so instrumented code paths
//!   stay resume-deterministic.
//!
//! The whole layer is gated behind the `enabled` cargo feature. With the
//! feature off every API still exists but compiles to zero-sized no-ops
//! (`tests/overhead.rs` asserts this), so call sites are written once,
//! without `cfg`:
//!
//! ```
//! let _span = qdgnn_obs::span!("serve.forward");
//! qdgnn_obs::counter("serve.queries").inc();
//! qdgnn_obs::observe("serve.community_size", 12.0);
//! ```
//!
//! Data types ([`metrics::MetricsSnapshot`], [`events::Event`], the
//! [`json`] reader) are compiled unconditionally — only the global
//! registry and recording paths are gated — so snapshot files can be
//! parsed and validated from any build. So is [`httpd`], the
//! dependency-free HTTP listener behind the serve daemon's telemetry
//! endpoint.

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod folded;
pub mod httpd;
pub mod json;
pub mod metrics;

pub mod names;

#[cfg(feature = "enabled")]
mod registry;
#[cfg(feature = "enabled")]
pub use registry::{
    counter, counter_with, event, events_recorded, gauge, is_enabled, mem_alloc, mem_free,
    mem_live_bytes, mem_peak_bytes, now_micros, observe, observe_with, op_timer, record_events,
    reset, reset_mem_peak, set_clock, snapshot, take_events, trace, write_jsonl, Counter, Gauge,
    OpTimer, SpanGuard, MAX_LABEL_SETS,
};

#[cfg(not(feature = "enabled"))]
mod disabled;
#[cfg(not(feature = "enabled"))]
pub use disabled::{
    counter, counter_with, event, events_recorded, gauge, is_enabled, mem_alloc, mem_free,
    mem_live_bytes, mem_peak_bytes, now_micros, observe, observe_with, op_timer, record_events,
    reset, reset_mem_peak, set_clock, snapshot, take_events, trace, write_jsonl, Counter, Gauge,
    OpTimer, SpanGuard, MAX_LABEL_SETS,
};

/// Whether the instrumentation layer is compiled in (`enabled` feature).
///
/// `const`, so `if qdgnn_obs::enabled() { … }` folds away entirely in
/// disabled builds — use it to guard computations done *only* to feed a
/// metric (e.g. gradient norms).
pub const fn enabled() -> bool {
    is_enabled()
}

/// Starts a scoped span timer; the returned guard records the span on
/// drop. Bind it to a named `_`-prefixed local so it lives to the end of
/// the scope:
///
/// ```
/// fn forward() {
///     let _span = qdgnn_obs::span!("serve.forward");
///     // … timed work …
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
