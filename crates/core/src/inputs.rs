//! Precomputed per-dataset tensors (§4.1 input construction).
//!
//! Everything here is query-independent and shared (via `Arc`) across
//! queries, epochs and data-parallel workers: the normalized adjacency,
//! the normalized attribute matrix `F`, the bipartite incidence `B`, the
//! structure graph, and (lazily) the fusion graph used by attributed
//! community identification.

use std::sync::Arc;

use qdgnn_graph::attributed::{adjacency_matrix, AdjNorm, AttrId};
use qdgnn_graph::{AttributedGraph, VertexId};
use qdgnn_tensor::{Csr, Dense};

use crate::error::QdgnnError;

/// Query-independent tensors for one attributed graph.
#[derive(Clone)]
pub struct GraphTensors {
    /// Number of vertices `n`.
    pub n: usize,
    /// Attribute vocabulary size `d = |F̂|`.
    pub d: usize,
    /// Aggregation matrix `Â` (self-loop augmented, normalized).
    pub adj: Arc<Csr>,
    /// Transpose of `adj` (backward pass).
    pub adj_t: Arc<Csr>,
    /// Row-normalized attribute matrix `F` (n×d).
    pub feat: Arc<Csr>,
    /// Transpose of `feat`.
    pub feat_t: Arc<Csr>,
    /// Raw node–attribute incidence `B` (n×d).
    pub bip: Arc<Csr>,
    /// Transpose `Bᵀ` (d×n).
    pub bip_t: Arc<Csr>,
    /// The attributed graph: structure, attribute and member lists.
    /// Community identification walks its structure graph for CS and
    /// its fusion graph ([`AttributedGraph::fusion`]) for ACS.
    pub graph: Arc<AttributedGraph>,
    /// Attribute-frequency cap of the fusion graph.
    pub fusion_attr_cap: usize,
}

impl GraphTensors {
    /// Builds all tensors for `graph`.
    pub fn new(graph: &AttributedGraph, adj_norm: AdjNorm, fusion_attr_cap: usize) -> Self {
        let adj = adjacency_matrix(graph.graph(), adj_norm);
        let adj_t = adj.transpose();
        let feat = graph.attribute_matrix();
        let feat_t = feat.transpose();
        let bip = graph.bipartite_incidence();
        let bip_t = bip.transpose();
        GraphTensors {
            n: graph.num_vertices(),
            d: graph.num_attrs(),
            adj: Arc::new(adj),
            adj_t: Arc::new(adj_t),
            feat: Arc::new(feat),
            feat_t: Arc::new(feat_t),
            bip: Arc::new(bip),
            bip_t: Arc::new(bip_t),
            graph: Arc::new(graph.clone()),
            fusion_attr_cap,
        }
    }
}

/// Vectorized query inputs (§4.1): one-hot query-vertex and
/// query-attribute columns.
#[derive(Clone, Debug)]
pub struct QueryVectors {
    /// `v_q ∈ {0,1}^n` as an n×1 column.
    pub vertex_onehot: Dense,
    /// `f_q ∈ {0,1}^d` as a d×1 column (all zeros under EmA).
    pub attr_onehot: Dense,
}

impl QueryVectors {
    /// Encodes a query against a graph with `n` vertices and `d`
    /// attributes, validating every id against the graph's dimensions.
    ///
    /// This is the serving-path entry point: malformed queries surface as
    /// typed errors, never as panics.
    pub fn try_encode(
        n: usize,
        d: usize,
        vertices: &[VertexId],
        attrs: &[AttrId],
    ) -> Result<Self, QdgnnError> {
        if vertices.is_empty() {
            return Err(QdgnnError::EmptyQuery);
        }
        let mut v = Dense::zeros(n, 1);
        for &q in vertices {
            if (q as usize) >= n {
                return Err(QdgnnError::VertexOutOfRange { vertex: q, n });
            }
            v.set(q as usize, 0, 1.0);
        }
        let mut f = Dense::zeros(d, 1);
        for &a in attrs {
            if (a as usize) >= d {
                return Err(QdgnnError::AttrOutOfRange { attr: a, d });
            }
            f.set(a as usize, 0, 1.0);
        }
        Ok(QueryVectors { vertex_onehot: v, attr_onehot: f })
    }

    /// Encodes a trusted query (training data whose ids were produced
    /// against this graph). See [`QueryVectors::try_encode`] for the
    /// validating variant.
    ///
    /// # Panics
    /// Panics if a query vertex or attribute is out of range, or the
    /// query is empty.
    pub fn encode(n: usize, d: usize, vertices: &[VertexId], attrs: &[AttrId]) -> Self {
        match Self::try_encode(n, d, vertices, attrs) {
            Ok(qv) => qv,
            // qdgnn-analyze: allow(QD001, reason = "documented trusted-input variant for training data; serving uses try_encode")
            Err(e) => panic!("invalid training query: {e}"),
        }
    }

    /// Whether the query carries attributes.
    pub fn has_attrs(&self) -> bool {
        // One-hot entries are exactly 0.0 or 1.0 by construction, so a
        // strict sign test avoids exact float equality.
        self.attr_onehot.as_slice().iter().any(|&x| x > 0.0)
    }
}

/// `K` encoded queries stacked vertically for one batched forward pass
/// (the serving engine's unit of work).
///
/// Block `i` of [`QueryBatch::vertex_onehot`] (rows `i·n .. (i+1)·n`) is
/// query `i`'s `v_q` column, and likewise for the attribute one-hots —
/// the layout `Csr::spmm_blocked` and every row-wise tape op consume
/// without reshuffling, which is what keeps batched scores bit-identical
/// to the sequential path.
#[derive(Clone, Debug)]
pub struct QueryBatch {
    /// Stacked `v_q` columns, `K·n × 1`.
    pub vertex_onehot: Dense,
    /// Stacked `f_q` columns, `K·d × 1`.
    pub attr_onehot: Dense,
    k: usize,
    n: usize,
    d: usize,
}

impl QueryBatch {
    /// Stacks already-encoded queries into one batch.
    ///
    /// Every query must have been encoded against the same graph
    /// dimensions; a mismatch (or an empty slice) surfaces as a typed
    /// error, never a panic — this is a serving-path entry point.
    pub fn try_stack(queries: &[QueryVectors]) -> Result<Self, QdgnnError> {
        let Some(first) = queries.first() else {
            return Err(QdgnnError::invalid("query batch must contain at least one query"));
        };
        let n = first.vertex_onehot.rows();
        let d = first.attr_onehot.rows();
        let k = queries.len();
        let mut v = Dense::zeros(n * k, 1);
        let mut f = Dense::zeros(d * k, 1);
        for (i, q) in queries.iter().enumerate() {
            if q.vertex_onehot.shape() != (n, 1) || q.attr_onehot.shape() != (d, 1) {
                return Err(QdgnnError::invalid(format!(
                    "query {i} shaped {:?}/{:?} does not match batch dimensions ({n}, 1)/({d}, 1)",
                    q.vertex_onehot.shape(),
                    q.attr_onehot.shape()
                )));
            }
        }
        // Shapes validated above, so each query fills exactly one chunk
        // (chunks_mut needs a positive chunk size; a zero dim has no
        // data to copy anyway).
        if n > 0 {
            for (chunk, q) in v.as_mut_slice().chunks_mut(n).zip(queries) {
                chunk.copy_from_slice(q.vertex_onehot.as_slice());
            }
        }
        if d > 0 {
            for (chunk, q) in f.as_mut_slice().chunks_mut(d).zip(queries) {
                chunk.copy_from_slice(q.attr_onehot.as_slice());
            }
        }
        Ok(QueryBatch { vertex_onehot: v, attr_onehot: f, k, n, d })
    }

    /// Number of queries `K` in the batch.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the batch is empty (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Vertex count `n` the queries were encoded against.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Attribute vocabulary size `d` the queries were encoded against.
    pub fn d(&self) -> usize {
        self.d
    }
}

/// A batch of one.
impl From<&QueryVectors> for QueryBatch {
    fn from(q: &QueryVectors) -> Self {
        QueryBatch {
            vertex_onehot: q.vertex_onehot.clone(),
            attr_onehot: q.attr_onehot.clone(),
            k: 1,
            n: q.vertex_onehot.rows(),
            d: q.attr_onehot.rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_data::presets;
    use qdgnn_graph::traversal::bfs_distances;

    #[test]
    fn tensors_have_consistent_shapes() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        assert_eq!(t.adj.rows(), t.n);
        assert_eq!(t.adj.cols(), t.n);
        assert_eq!(t.feat.rows(), t.n);
        assert_eq!(t.feat.cols(), t.d);
        assert_eq!(t.bip_t.rows(), t.d);
        assert_eq!(t.bip_t.cols(), t.n);
        assert_eq!(t.graph.num_vertices(), t.n);
        assert_eq!(t.fusion_attr_cap, 100);
        // The fusion graph is a supergraph of the structure graph: no
        // vertex is farther from vertex 0 in it, and some is nearer.
        let on_structure = bfs_distances(t.graph.graph(), &[0], usize::MAX);
        let on_fusion = bfs_distances(&t.graph.fusion(t.fusion_attr_cap), &[0], usize::MAX);
        assert!(on_fusion.iter().zip(&on_structure).all(|(f, s)| f <= s));
        assert_ne!(on_fusion, on_structure);
    }

    #[test]
    fn adjacency_transpose_is_consistent() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::Mean, 100);
        // Mean normalization is asymmetric; transpose must still match.
        let dense = t.adj.to_dense().transpose();
        assert!(t.adj_t.to_dense().approx_eq(&dense, 1e-6));
    }

    #[test]
    fn query_vectors_one_hot() {
        let q = QueryVectors::encode(5, 3, &[1, 3], &[2]);
        assert_eq!(q.vertex_onehot.as_slice(), &[0.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(q.attr_onehot.as_slice(), &[0.0, 0.0, 1.0]);
        assert!(q.has_attrs());
        let empty = QueryVectors::encode(2, 2, &[0], &[]);
        assert!(!empty.has_attrs());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_vertex_out_of_range() {
        let _ = QueryVectors::encode(3, 1, &[7], &[]);
    }

    #[test]
    fn query_batch_stacks_blockwise() {
        let q0 = QueryVectors::encode(4, 2, &[1], &[0]);
        let q1 = QueryVectors::encode(4, 2, &[0, 3], &[]);
        let b = QueryBatch::try_stack(&[q0.clone(), q1.clone()]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!((b.n(), b.d()), (4, 2));
        assert_eq!(b.vertex_onehot.shape(), (8, 1));
        assert_eq!(&b.vertex_onehot.as_slice()[..4], q0.vertex_onehot.as_slice());
        assert_eq!(&b.vertex_onehot.as_slice()[4..], q1.vertex_onehot.as_slice());
        assert_eq!(&b.attr_onehot.as_slice()[..2], q0.attr_onehot.as_slice());
        assert_eq!(&b.attr_onehot.as_slice()[2..], q1.attr_onehot.as_slice());
    }

    #[test]
    fn query_batch_rejects_empty_and_mismatched() {
        assert!(QueryBatch::try_stack(&[]).is_err());
        let q0 = QueryVectors::encode(4, 2, &[1], &[]);
        let q1 = QueryVectors::encode(5, 2, &[1], &[]);
        assert!(QueryBatch::try_stack(&[q0, q1]).is_err());
    }
}
