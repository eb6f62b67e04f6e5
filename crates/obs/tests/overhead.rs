//! Proof that disabled instrumentation costs nothing.
//!
//! Runs only without the `enabled` feature (the default for
//! `cargo test -p qdgnn-obs`): handles must be zero-sized, recording
//! must be side-effect free, and a hot loop full of instrumentation
//! must stay within a small constant of the uninstrumented loop.

#![cfg(not(feature = "enabled"))]

use std::time::Instant;

#[test]
fn disabled_handles_are_zero_sized() {
    assert_eq!(std::mem::size_of::<qdgnn_obs::SpanGuard>(), 0);
    assert_eq!(std::mem::size_of::<qdgnn_obs::OpTimer>(), 0);
    assert_eq!(std::mem::size_of::<qdgnn_obs::Counter>(), 0);
    assert_eq!(std::mem::size_of::<qdgnn_obs::Gauge>(), 0);
    assert!(!qdgnn_obs::enabled());
}

#[test]
fn disabled_recording_has_no_observable_state() {
    qdgnn_obs::record_events(true);
    qdgnn_obs::counter("t.off.c").inc_by(100);
    qdgnn_obs::counter_with("t.off.cl", &[("tenant", "a")]).inc();
    qdgnn_obs::gauge("t.off.g").set(5.0);
    qdgnn_obs::observe("t.off.h", 1.0);
    qdgnn_obs::observe_with("t.off.hl", &[("outcome", "ok")], 1.0);
    qdgnn_obs::event("t.off.e", &[("x", 1.0)]);
    qdgnn_obs::trace("t.off.t", &[("tenant", "a")], &[("span_us", 1.0)]);
    {
        let _s = qdgnn_obs::span!("t.off.span");
        let _t = qdgnn_obs::op_timer("t.off.op");
    }
    qdgnn_obs::mem_alloc(1 << 30);
    qdgnn_obs::mem_free(1);
    qdgnn_obs::reset_mem_peak();
    assert!(!qdgnn_obs::events_recorded());
    assert!(qdgnn_obs::take_events().is_empty());
    assert_eq!(qdgnn_obs::mem_live_bytes(), 0, "disabled build accounts nothing");
    assert_eq!(qdgnn_obs::mem_peak_bytes(), 0);
    let snap = qdgnn_obs::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.hists.is_empty());
}

/// The instrumented loop must cost essentially the same as the plain
/// loop: every call compiles to nothing. The budget is deliberately
/// generous (3x + 50ms) so the test never flakes on a loaded machine
/// while still catching any real per-iteration work (an allocation or
/// clock read per iteration would blow through it by orders of
/// magnitude).
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the overhead check owns its stopwatch"
)]
fn disabled_hot_loop_overhead_is_negligible() {
    const ITERS: u64 = 5_000_000;

    fn plain(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    fn instrumented(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            let _span = qdgnn_obs::span!("t.hot.span");
            let _timer = qdgnn_obs::op_timer("t.hot.op");
            qdgnn_obs::counter("t.hot.c").inc();
            qdgnn_obs::counter_with("t.hot.cl", &[("outcome", "answered")]).inc();
            qdgnn_obs::observe("t.hot.h", i as f64);
            qdgnn_obs::observe_with("t.hot.hl", &[("outcome", "answered")], i as f64);
            qdgnn_obs::trace("t.hot.t", &[("outcome", "answered")], &[("i", i as f64)]);
            qdgnn_obs::mem_alloc(i);
            qdgnn_obs::mem_free(i);
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    // Warm up, and keep results live so nothing is optimized out wholesale.
    let warm = plain(1000) ^ instrumented(1000);
    let t0 = Instant::now();
    let a = plain(ITERS);
    let plain_time = t0.elapsed();
    let t1 = Instant::now();
    let b = instrumented(ITERS);
    let instr_time = t1.elapsed();
    assert_eq!(a, b);
    std::hint::black_box(warm ^ a);

    let budget = plain_time * 3 + std::time::Duration::from_millis(50);
    assert!(
        instr_time <= budget,
        "disabled instrumentation too slow: plain={plain_time:?} instrumented={instr_time:?}"
    );
}
