#![warn(missing_docs)]

//! # qdgnn-graph
//!
//! Graph data structures and the classical community-search substrate the
//! paper builds on and compares against:
//!
//! * [`Graph`] — a compact undirected CSR graph;
//! * [`AttributedGraph`] — a graph plus per-vertex keyword attributes, the
//!   node–attribute bipartite graph of §6.3 and the fusion graph of §6.6
//!   ([`FusionGraph`], walked implicitly, never built);
//! * [`traversal`] — BFS over either graph, connected components and the
//!   paper's constrained-BFS community identification (Algorithm 1);
//! * [`core_decomp`] — k-core decomposition (substrate for ACQ);
//! * [`truss`] — k-truss decomposition (substrate for CTC and ATC);
//! * [`conn`] — Stoer–Wagner minimum cuts and k-edge-connected
//!   components (substrate for the k-ECC baseline);
//! * [`metrics`] — the aggregate precision / recall / F1 measures of
//!   §7.1.5.

pub mod attributed;
pub mod conn;
pub mod core_decomp;
pub mod graph;
pub mod metrics;
pub mod traversal;
pub mod truss;

pub use attributed::{AttributedGraph, FusionGraph};
pub use graph::{Graph, GraphBuilder, Subgraph, VertexId};
pub use metrics::{f1_score, CommunityMetrics};
