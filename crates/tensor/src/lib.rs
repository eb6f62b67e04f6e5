#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! # qdgnn-tensor
//!
//! A small, self-contained f32 tensor library purpose-built for the
//! QD-GNN / AQD-GNN models of Jiang et al. (PVLDB'22):
//!
//! * [`Dense`] — row-major dense matrices with cache-friendly, optionally
//!   multi-threaded kernels (matmul, transposed products, elementwise ops);
//! * [`Csr`] — compressed sparse row matrices for adjacency, attribute and
//!   one-hot query inputs, with sparse–dense products (SpMM);
//! * [`Tape`] — a reverse-mode automatic-differentiation tape over those
//!   matrices, with an enum-dispatched operator set sufficient to express
//!   every equation in the paper (GCN propagation, self-feature modelling,
//!   bipartite propagation, batch normalization, dropout, BCE loss);
//! * [`ParamStore`] / [`optim`] — trainable-parameter storage plus SGD and
//!   Adam optimizers.
//!
//! The library is deterministic: all randomness is injected by the caller
//! through seeded RNGs, and all reductions use a fixed order.

pub mod alloc_tuning;
pub mod dense;
mod kernel;
pub mod ops;
pub mod optim;
pub mod param;
pub mod sanitize;
pub mod sparse;
pub mod tape;

/// Shape/bounds assertion that stays live in release builds under
/// `--features sanitize`; a plain `debug_assert!` otherwise.
#[macro_export]
macro_rules! sanitize_assert {
    ($($arg:tt)*) => {{
        #[cfg(feature = "sanitize")]
        assert!($($arg)*);
        #[cfg(not(feature = "sanitize"))]
        debug_assert!($($arg)*);
    }};
}

pub use alloc_tuning::tune_for_batch_serving;
pub use dense::Dense;
pub use kernel::{BnAffine, Epilogue};
pub use optim::{Adam, AdamConfig, AdamState, Sgd};
pub use param::{GradStore, ParamId, ParamStore};
pub use sparse::Csr;
pub use tape::{Tape, Var};

/// Library-wide epsilon used by numerically-guarded kernels
/// (batch-norm denominators, log arguments).
pub const EPS: f32 = 1e-5;
