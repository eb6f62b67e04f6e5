//! Time sources for the observability layer.
//!
//! All timestamps flow through the [`Clock`] trait so instrumented code
//! never reads the wall clock directly: production uses a monotonic
//! clock anchored at registry creation, tests inject a [`FakeClock`]
//! they advance by hand. This is what keeps instrumented training paths
//! resume-deterministic: the metrics layer observes time, the
//! computation never does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A microsecond time source.
///
/// Implementations must be monotonic (never go backwards) within one
/// process; the absolute origin is unspecified.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since this clock's origin.
    fn now_micros(&self) -> u64;
}

/// Production clock: `Instant`-based, anchored at construction.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned wall-clock read; everything else goes through `Clock`"
    )]
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Test clock: starts at zero and only moves when told to.
#[derive(Default)]
pub struct FakeClock {
    micros: AtomicU64,
}

impl FakeClock {
    /// Creates a fake clock at t = 0 µs.
    pub fn new() -> Self {
        FakeClock { micros: AtomicU64::new(0) }
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_micros(&self, us: u64) {
        self.micros.fetch_add(us, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute microsecond value.
    pub fn set_micros(&self, us: u64) {
        self.micros.store(us, Ordering::SeqCst);
    }
}

impl Clock for FakeClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

fn wall_store() -> &'static RwLock<Arc<dyn Clock>> {
    static STORE: OnceLock<RwLock<Arc<dyn Clock>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(Arc::new(MonotonicClock::new())))
}

/// Installs `clock` as the process-wide wall-clock source.
///
/// Unlike the registry (which exists only under the `enabled` feature),
/// the wall clock is compiled in every build: library code that reports
/// coarse wall-clock durations (e.g. `TrainReport::train_seconds`) reads
/// it via [`wall_micros`], so fake-clock tests can cover those paths in
/// plain builds too. The enabled registry's `set_clock` delegates here,
/// keeping one authoritative time source.
pub fn set_wall(clock: Arc<dyn Clock>) {
    *wall_store().write().unwrap_or_else(|p| p.into_inner()) = clock;
}

/// Reads the process-wide wall clock, in microseconds since its origin.
///
/// Defaults to a [`MonotonicClock`] anchored at first use; swap it with
/// [`set_wall`]. Intended for coarse, report-level timing only — hot
/// paths should use the feature-gated span/timer APIs instead.
pub fn wall_micros() -> u64 {
    wall_store().read().unwrap_or_else(|p| p.into_inner()).now_micros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn fake_clock_moves_only_when_advanced() {
        let c = FakeClock::new();
        assert_eq!(c.now_micros(), 0);
        c.advance_micros(250);
        assert_eq!(c.now_micros(), 250);
        c.set_micros(10);
        assert_eq!(c.now_micros(), 10);
    }
}
