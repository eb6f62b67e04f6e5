//! Runtime finiteness sanitizer (enabled by the `sanitize` cargo
//! feature).
//!
//! The static pass in `qdgnn-analyze` proves what it can from source;
//! this module catches the rest dynamically: under `--features
//! sanitize`, every value recorded on the [`crate::Tape`] is scanned
//! for NaN/Inf and the first offender aborts with the *producing op's
//! name* and coordinates — NaN provenance instead of a NaN loss ten
//! layers later.
//!
//! Checks can be turned off at runtime (e.g. by tests that exercise
//! divergence recovery and *want* non-finite values to flow) with
//! [`scoped_off`], an RAII guard that restores the previous state on
//! drop. Without the cargo feature every entry point compiles to a
//! no-op.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::Dense;

/// Process-global toggle; checks run only while this is `true` (and the
/// `sanitize` feature is compiled in).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether sanitizer checks are currently active.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "sanitize") && ENABLED.load(Ordering::Relaxed)
}

/// RAII guard from [`scoped_off`]; re-enables checks on drop.
pub struct ScopedOff {
    prev: bool,
}

/// Disables sanitizer checks until the returned guard drops.
///
/// Intended for tests that deliberately drive training into divergence
/// to exercise recovery paths — the process-global flag means the scope
/// covers worker threads spawned inside it too.
pub fn scoped_off() -> ScopedOff {
    ScopedOff { prev: ENABLED.swap(false, Ordering::Relaxed) }
}

impl Drop for ScopedOff {
    fn drop(&mut self) {
        ENABLED.store(self.prev, Ordering::Relaxed);
    }
}

/// Panics if `value` contains NaN/Inf, naming `op` (the producer) and
/// the first offending coordinate. No-op while checks are off.
#[inline]
pub fn check_finite(op: &str, value: &Dense) {
    if !enabled() {
        return;
    }
    check_finite_slow(op, value);
}

#[cold]
fn check_finite_slow(op: &str, value: &Dense) {
    let (rows, cols) = value.shape();
    for (i, &v) in value.as_slice().iter().enumerate() {
        if !v.is_finite() {
            panic!(
                "sanitize: op `{op}` produced non-finite value {v} at [{r},{c}] of a {rows}x{cols} output",
                r = i / cols.max(1),
                c = i % cols.max(1),
            );
        }
    }
}

/// Panics if row `r` of a fused product holds NaN/Inf before its
/// epilogue's ReLU (which would map it to 0), naming `op`. No-op while
/// checks are off.
#[inline]
pub fn check_finite_row(op: &str, r: usize, row: &[f32]) {
    if !enabled() {
        return;
    }
    if let Some((c, v)) = row.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        panic!("sanitize: op `{op}` produced non-finite value {v} at [{r},{c}] before its ReLU");
    }
}

/// Serializes tests that flip the global [`ENABLED`] toggle or rely on
/// it being on, so the parallel test runner can't interleave them.
#[cfg(all(test, feature = "sanitize"))]
pub(crate) static TEST_MUTEX: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Locks [`TEST_MUTEX`], surviving poisoning from `should_panic` tests.
#[cfg(all(test, feature = "sanitize"))]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(all(test, feature = "sanitize"))]
mod tests {
    use super::*;

    #[test]
    fn finite_values_pass() {
        check_finite("test", &Dense::from_vec(2, 2, vec![1.0, -2.0, 0.0, 3.5]));
    }

    #[test]
    #[should_panic(expected = "op `test` produced non-finite value")]
    fn nan_panics_with_op_name() {
        let _lock = test_lock();
        check_finite("test", &Dense::from_vec(1, 2, vec![1.0, f32::NAN]));
    }

    #[test]
    fn scoped_off_suppresses_and_restores() {
        let _lock = test_lock();
        {
            let _guard = scoped_off();
            assert!(!enabled());
            // Would panic if checks were live.
            check_finite("off", &Dense::from_vec(1, 1, vec![f32::INFINITY]));
        }
        assert!(enabled());
    }
}
