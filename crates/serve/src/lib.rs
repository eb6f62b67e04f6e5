//! `qdgnn-serve` — a thread-based batching serving engine over the
//! online community-search stage.
//!
//! The online stage answers one query with one query-branch forward pass
//! plus a constrained BFS. Under concurrent load, running those forward
//! passes one at a time wastes the structure of the model: the per-layer
//! dense ops are identical across queries and can be stacked into one
//! matmul. This crate turns that observation into a serving engine:
//!
//! * [`ServeEngine`] owns an `OnlineStage<'static>` and a pool of worker
//!   threads;
//! * [`ServeEngine::submit`] enqueues a query on a **bounded** queue —
//!   overload rejects with [`ServeError::QueueFull`] (backpressure),
//!   never blocks the submitter;
//! * workers drain up to [`ServeConfig::max_batch`] requests — flushing
//!   early once the oldest has waited [`ServeConfig::max_wait_us`] — into
//!   one stacked `try_query_batch` call, bit-identical per query to
//!   serving it alone (a batch of one);
//! * [`ServeEngine::shutdown`] (or `Drop`) stops admissions and drains
//!   every accepted request before returning: exactly one reply per
//!   accepted submission, always.
//!
//! The engine is built to stay correct under overload and partial
//! failure, not just under happy-path load:
//!
//! * requests can carry **deadlines** ([`ServeConfig::deadline_us`] or
//!   [`ServeEngine::submit_with_deadline`]); expired requests are shed
//!   with a typed [`ServeError::DeadlineExceeded`] at dequeue time, and
//!   admission rejects outright once the engine's queue-wait estimate
//!   already exceeds the budget (two-tier load shedding);
//! * workers are **supervised**: a panicking batch answers every
//!   in-flight request with [`ServeError::WorkerPanicked`] and the
//!   worker restarts — no reply is ever lost, the pool never shrinks;
//! * repeated panics trip a **circuit breaker** into degraded
//!   single-query (batch = 1) mode so a poisoned query cannot keep
//!   taking out co-batched neighbors ([`ServeEngine::is_degraded`],
//!   [`ServeEngine::stats`]).
//!
//! The flush decision itself is the pure [`BatchPolicy`], driven by an
//! injected clock so tests can pin deadline, shedding, and breaker
//! behaviour with a fake clock.
//!
//! ```no_run
//! use std::sync::Arc;
//! use qdgnn_core::{AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage};
//! use qdgnn_data::presets;
//! use qdgnn_graph::attributed::AdjNorm;
//! use qdgnn_serve::{ServeConfig, ServeEngine};
//!
//! let data = presets::toy();
//! let tensors = Arc::new(GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100));
//! let model: Arc<dyn CsModel> = Arc::new(AqdGnn::new(ModelConfig::fast(), tensors.d));
//! let stage = OnlineStage::new_shared(model, tensors, 0.5);
//! let engine = ServeEngine::new(stage, ServeConfig::default())?;
//! let community = engine.query_blocking(qdgnn_data::Query {
//!     vertices: vec![0],
//!     attrs: vec![],
//!     truth: vec![],
//! })?;
//! engine.shutdown();
//! # Ok::<(), qdgnn_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod config;
pub mod engine;
pub mod error;
pub mod http;
pub mod trace;

pub use batcher::{BatchDecision, BatchPolicy};
pub use config::ServeConfig;
pub use engine::{EngineStats, Pending, ServeEngine};
pub use error::ServeError;
pub use http::TelemetryServer;
pub use trace::{ExemplarRing, RequestTrace, TraceOutcome};
