//! Typed errors of the serving engine.
//!
//! The engine runs indefinitely against untrusted callers: overload,
//! shutdown races and malformed queries all surface as values, never as
//! panics (the crate root denies clippy's panic and indexing lints).

use std::fmt;

use qdgnn_core::QdgnnError;

/// Why the engine could not produce a community for a request.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded submission queue was full — backpressure. The caller
    /// should retry later or shed load; the engine never blocks a
    /// submitter.
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The engine is draining in-flight work and accepts no new
    /// requests.
    ShuttingDown,
    /// The query itself was malformed (per-query error isolation: other
    /// requests in the same batch are unaffected).
    Query(QdgnnError),
    /// The request's deadline expired before a worker could serve it.
    /// Shed at admission (`waited_us == 0`: the estimated queue wait
    /// already exceeded the budget) or at dequeue (the request sat in
    /// the queue past its deadline and was answered without wasting a
    /// batch slot).
    DeadlineExceeded {
        /// How long the request actually waited before being shed (µs,
        /// engine clock; `0` for admission-tier sheds).
        waited_us: u64,
        /// The deadline budget the request carried (µs).
        deadline_us: u64,
    },
    /// The worker executing this request's batch panicked mid-flight.
    /// The request was *not* necessarily the poison: every co-batched
    /// request of a dying batch gets this answer, the worker restarts,
    /// and repeated panics trip the engine into degraded single-query
    /// mode (see `ServeConfig::panic_threshold`).
    WorkerPanicked,
    /// The worker serving this request disappeared before responding —
    /// only possible if a worker thread died abnormally.
    WorkerLost,
    /// The engine configuration is unusable (zero capacity, no workers).
    InvalidConfig(String),
    /// The telemetry endpoint could not start or serve (bind failure,
    /// listener thread could not spawn). Serving itself is unaffected —
    /// the telemetry listener is isolated from the worker pool.
    Telemetry(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Query(e) => write!(f, "query error: {e}"),
            ServeError::DeadlineExceeded { waited_us, deadline_us } => write!(
                f,
                "deadline exceeded ({deadline_us}µs budget, shed after {waited_us}µs in queue)"
            ),
            ServeError::WorkerPanicked => {
                write!(f, "serving worker panicked while executing this request's batch")
            }
            ServeError::WorkerLost => write!(f, "worker thread lost before responding"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Telemetry(msg) => write!(f, "telemetry endpoint error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QdgnnError> for ServeError {
    fn from(e: QdgnnError) -> Self {
        ServeError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cause() {
        let e = ServeError::QueueFull { capacity: 64 };
        assert!(e.to_string().contains("64"));
        let e = ServeError::Query(QdgnnError::EmptyQuery);
        assert!(e.to_string().contains("at least one vertex"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ServeError::DeadlineExceeded { waited_us: 750, deadline_us: 500 };
        assert!(e.to_string().contains("500"));
        assert!(e.to_string().contains("750"));
        let e = ServeError::WorkerPanicked;
        assert!(e.to_string().contains("panicked"));
    }
}
