#![warn(missing_docs)]

//! # qdgnn-nn
//!
//! Neural-network building blocks on top of [`qdgnn_tensor`]: batch
//! normalization, dropout and loss helpers — exactly the
//! intra-layer pipeline of the paper's general GNN (Eq. 1):
//! aggregation → batch norm → activation → dropout.

pub mod layers;
pub mod loss;

pub use layers::{BatchNorm1d, BnStats, Dropout, Mode};
pub use loss::{bce_loss, positive_class_weights};
