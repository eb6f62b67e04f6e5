//! Attributed graphs, the node–attribute bipartite graph (§6.3) and the
//! fusion graph (§6.6).

use qdgnn_tensor::Csr;

use crate::graph::{Graph, VertexId};
use crate::traversal::Expand;

/// Attribute identifier within a graph's vocabulary `F̂`.
pub type AttrId = u32;

/// How to normalize the (self-loop-augmented) adjacency matrix used for
/// neighborhood aggregation.
///
/// The paper's propagation functions (Eq. 4, 5) use a plain `SUM` over
/// `N⁺(v)` "as Vanilla GCN does", and §3.2 notes that Vanilla GCN applies
/// Laplacian smoothing (the symmetric normalization). [`AdjNorm::GcnSym`]
/// is therefore the faithful default; the raw-sum and mean variants are
/// kept for the aggregation ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjNorm {
    /// Raw `A + I` (unnormalized SUM aggregation).
    Sum,
    /// Symmetric GCN normalization `D̂^(−1/2) (A + I) D̂^(−1/2)`.
    GcnSym,
    /// Row normalization `D̂^(−1) (A + I)` (mean aggregation).
    Mean,
}

/// Builds the aggregation matrix for `graph` with the requested
/// normalization, including self-loops (the paper aggregates over
/// `N⁺(v) = N(v) ∪ {v}`).
pub fn adjacency_matrix(graph: &Graph, norm: AdjNorm) -> Csr {
    let n = graph.num_vertices();
    let mut triplets = Vec::with_capacity(2 * graph.num_edges() + n);
    match norm {
        AdjNorm::Sum => {
            for v in graph.vertices() {
                triplets.push((v as usize, v as usize, 1.0));
                for &u in graph.neighbors(v) {
                    triplets.push((v as usize, u as usize, 1.0));
                }
            }
        }
        AdjNorm::GcnSym => {
            let inv_sqrt: Vec<f32> =
                (0..n).map(|v| 1.0 / ((graph.degree(v as VertexId) + 1) as f32).sqrt()).collect();
            for v in graph.vertices() {
                let vi = v as usize;
                triplets.push((vi, vi, inv_sqrt[vi] * inv_sqrt[vi]));
                for &u in graph.neighbors(v) {
                    triplets.push((vi, u as usize, inv_sqrt[vi] * inv_sqrt[u as usize]));
                }
            }
        }
        AdjNorm::Mean => {
            for v in graph.vertices() {
                let vi = v as usize;
                let w = 1.0 / (graph.degree(v) + 1) as f32;
                triplets.push((vi, vi, w));
                for &u in graph.neighbors(v) {
                    triplets.push((vi, u as usize, w));
                }
            }
        }
    }
    Csr::from_triplets(n, n, &triplets)
}

/// A graph whose vertices carry sets of keyword attributes, plus the
/// derived structures the AQD-GNN model needs.
#[derive(Clone, Debug)]
pub struct AttributedGraph {
    graph: Graph,
    /// Sorted, deduplicated attribute ids per vertex.
    attrs: Lists<AttrId>,
    num_attrs: usize,
    /// Inverted index: attribute → sorted vertices having it.
    members: Lists<VertexId>,
}

/// Sorted id lists stored back to back, so that a traversal reading
/// many short lists touches contiguous memory: list `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug)]
struct Lists<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> Lists<T> {
    #[inline]
    fn get(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    #[inline]
    fn len_of(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }
}

impl AttributedGraph {
    /// Wraps a graph with per-vertex attribute sets over a vocabulary of
    /// `num_attrs` attributes. Attribute lists are sorted/deduplicated.
    ///
    /// # Panics
    /// Panics if `attrs.len() != graph.num_vertices()` or an attribute id
    /// is `≥ num_attrs`.
    pub fn new(graph: Graph, attrs: Vec<Vec<AttrId>>, num_attrs: usize) -> Self {
        assert_eq!(attrs.len(), graph.num_vertices(), "one attribute set per vertex required");
        let mut offsets = Vec::with_capacity(attrs.len() + 1);
        offsets.push(0);
        let mut items = Vec::new();
        let mut holders = vec![0usize; num_attrs];
        for mut set in attrs {
            set.sort_unstable();
            set.dedup();
            for &a in &set {
                assert!((a as usize) < num_attrs, "attribute id {a} out of vocabulary");
                holders[a as usize] += 1;
            }
            items.extend_from_slice(&set);
            offsets.push(items.len());
        }
        let attrs = Lists { offsets, items };
        // Counting sort by attribute; visiting vertices in id order keeps
        // each member list sorted.
        let mut member_offsets = Vec::with_capacity(num_attrs + 1);
        member_offsets.push(0);
        for count in holders {
            member_offsets.push(member_offsets[member_offsets.len() - 1] + count);
        }
        let mut next = member_offsets[..num_attrs].to_vec();
        let mut member_items = vec![0; attrs.items.len()];
        for v in 0..graph.num_vertices() {
            for &a in attrs.get(v) {
                member_items[next[a as usize]] = v as VertexId;
                next[a as usize] += 1;
            }
        }
        let members = Lists { offsets: member_offsets, items: member_items };
        AttributedGraph { graph, attrs, num_attrs, members }
    }

    /// The underlying structure graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Vocabulary size `|F̂|`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Sorted attributes of vertex `v`.
    #[inline]
    pub fn attrs_of(&self, v: VertexId) -> &[AttrId] {
        self.attrs.get(v as usize)
    }

    /// Whether vertex `v` carries attribute `a`.
    pub fn has_attr(&self, v: VertexId, a: AttrId) -> bool {
        self.attrs_of(v).binary_search(&a).is_ok()
    }

    /// Sorted vertices carrying attribute `a`.
    #[inline]
    pub fn vertices_with_attr(&self, a: AttrId) -> &[VertexId] {
        self.members.get(a as usize)
    }

    /// Number of node–attribute bipartite edges `|E_B|`.
    pub fn bipartite_edge_count(&self) -> usize {
        self.attrs.items.len()
    }

    /// The vertex attribute matrix `F ∈ ℝ^{n×d}` as CSR, with each row
    /// L1-normalized (the paper feeds the *normalized* attribute vector to
    /// the Graph Encoder's first layer).
    pub fn attribute_matrix(&self) -> Csr {
        let mut m = self.bipartite_incidence();
        m.row_normalize();
        m
    }

    /// The raw node–attribute bipartite incidence matrix `B ∈ {0,1}^{n×d}`
    /// (Attribute Encoder propagation A→N uses `B`, N→A uses `Bᵀ`).
    pub fn bipartite_incidence(&self) -> Csr {
        let triplets: Vec<(usize, usize, f32)> = (0..self.num_vertices())
            .flat_map(|v| self.attrs.get(v).iter().map(move |&a| (v, a as usize, 1.0)))
            .collect();
        Csr::from_triplets(self.num_vertices(), self.num_attrs, &triplets)
    }

    /// The fusion graph `G_F` of §6.6 under attribute-frequency cap
    /// `attr_cap`, as a view that traversals walk without building it.
    #[inline]
    pub fn fusion(&self, attr_cap: usize) -> FusionGraph<'_> {
        FusionGraph { graph: self, attr_cap }
    }

    /// The `k` most frequent attributes among `vertices` (ties broken by
    /// attribute id, ascending) — used to build AFC/AFN query attributes.
    pub fn most_common_attrs(&self, vertices: &[VertexId], k: usize) -> Vec<AttrId> {
        let mut counts = vec![0usize; self.num_attrs];
        for &v in vertices {
            for &a in self.attrs_of(v) {
                counts[a as usize] += 1;
            }
        }
        let mut order: Vec<AttrId> =
            (0..self.num_attrs as AttrId).filter(|&a| counts[a as usize] > 0).collect();
        order.sort_by(|&a, &b| {
            counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b))
        });
        order.truncate(k);
        order
    }

    /// The attributed subgraph induced by `vertices`, with its local↔global
    /// mapping (the attribute vocabulary is kept intact so query attribute
    /// vectors remain valid).
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (AttributedGraph, crate::graph::Subgraph) {
        let sub = self.graph.induced_subgraph(vertices);
        let attrs: Vec<Vec<AttrId>> =
            sub.globals.iter().map(|&g| self.attrs_of(g).to_vec()).collect();
        (AttributedGraph::new(sub.graph.clone(), attrs, self.num_attrs), sub)
    }
}

/// The fusion graph `G_F` of §6.6: the structure graph plus an edge
/// between every pair of vertices sharing an attribute held by at most
/// `attr_cap` vertices.
///
/// It is never materialized. Expanding a vertex `u` visits its structure
/// neighbours and the member lists of `u`'s in-cap attributes, and a
/// traversal scans each list at most once (see [`Expand`]), so a
/// breadth-first search costs `O(|E| + nnz(B))` rather than `O(|E_F|)`.
/// BFS membership and distances do not depend on neighbour order, so
/// every traversal returns what it would on the built graph.
///
/// Attributes held by more than `attr_cap` vertices add no edges: such
/// near-universal keywords would add `Θ(freq²)` edges while carrying
/// almost no community signal. The paper does not spell out a
/// mitigation; the cap is configurable and documented as a deviation
/// (`usize::MAX` gives the literal construction, whose traversal is
/// still `O(|E| + nnz(B))`). A cap below 2 leaves the structure graph.
#[derive(Clone, Copy, Debug)]
pub struct FusionGraph<'a> {
    graph: &'a AttributedGraph,
    attr_cap: usize,
}

impl FusionGraph<'_> {
    /// Whether attribute `a`'s members are linked pairwise: it is held by
    /// at least two and at most `attr_cap` vertices.
    #[inline]
    fn links(&self, a: AttrId) -> bool {
        (2..=self.attr_cap).contains(&self.graph.members.len_of(a as usize))
    }

    /// Number of attributes whose members are linked pairwise.
    pub fn num_linking_attrs(&self) -> usize {
        (0..self.graph.num_attrs as AttrId).filter(|&a| self.links(a)).count()
    }

    /// Number of attributes held by more than `attr_cap` vertices, which
    /// add no edges.
    pub fn num_attrs_over_cap(&self) -> usize {
        (0..self.graph.num_attrs).filter(|&a| self.graph.members.len_of(a) > self.attr_cap).count()
    }
}

impl Expand for FusionGraph<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn num_lists(&self) -> usize {
        if self.attr_cap < 2 {
            0
        } else {
            self.graph.num_attrs
        }
    }

    fn expand(&self, u: VertexId, scanned: &mut [bool], mut visit: impl FnMut(VertexId)) -> usize {
        for &v in self.graph.graph.neighbors(u) {
            visit(v);
        }
        if self.attr_cap < 2 {
            return 0;
        }
        let mut lists = 0;
        for &a in self.graph.attrs_of(u) {
            let seen = &mut scanned[a as usize];
            if *seen {
                continue;
            }
            // Flag over-cap attributes too, so later vertices skip them
            // without looking up their frequency again.
            *seen = true;
            if self.links(a) {
                lists += 1;
                for &v in self.graph.vertices_with_attr(a) {
                    visit(v);
                }
            }
        }
        lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 faculty graph (vertices 0-7 = paper's 1-8),
    /// attributes 0..6 = {IR, DM, GM, ML, DL, CV}.
    pub(crate) fn faculty() -> AttributedGraph {
        let graph = Graph::from_edges(
            8,
            &[(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (2, 3), (5, 6), (5, 7), (6, 7)],
        );
        let attrs = vec![
            vec![0],       // 1: IR
            vec![0, 1],    // 2: IR, DM
            vec![1],       // 3: DM
            vec![1, 2],    // 4: DM, GM
            vec![2],       // 5: GM
            vec![3],       // 6: ML
            vec![3, 4],    // 7: ML, DL
            vec![4, 5],    // 8: DL, CV
        ];
        AttributedGraph::new(graph, attrs, 6)
    }

    #[test]
    fn inverted_index_and_lookup() {
        let ag = faculty();
        assert_eq!(ag.vertices_with_attr(3), &[5, 6]);
        assert!(ag.has_attr(7, 4));
        assert!(!ag.has_attr(7, 3));
        assert_eq!(ag.bipartite_edge_count(), 12);
    }

    #[test]
    fn attribute_matrix_rows_normalized() {
        let ag = faculty();
        let f = ag.attribute_matrix();
        assert_eq!(f.rows(), 8);
        assert_eq!(f.cols(), 6);
        for v in 0..8 {
            let s: f32 = f.row_iter(v).map(|(_, x)| x).sum();
            assert!((s - 1.0).abs() < 1e-6, "row {v} sums to {s}");
        }
        // Vertex 6 (paper's 7) has two attributes, each weighted 1/2.
        assert_eq!(f.get(6, 3), 0.5);
        assert_eq!(f.get(6, 4), 0.5);
    }

    /// Sorted neighbours of `u` in `fusion`, from one fresh expansion.
    fn fusion_neighbors(fusion: FusionGraph<'_>, u: VertexId) -> Vec<VertexId> {
        let mut scanned = vec![false; fusion.num_lists()];
        let mut out = Vec::new();
        fusion.expand(u, &mut scanned, |v| {
            if v != u {
                out.push(v)
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Edge count of `fusion`, summed over every vertex's expansion.
    fn fusion_edge_count(fusion: FusionGraph<'_>) -> usize {
        let n = fusion.num_vertices() as VertexId;
        (0..n).map(|u| fusion_neighbors(fusion, u).len()).sum::<usize>() / 2
    }

    #[test]
    fn fusion_graph_links_same_attribute_vertices() {
        let ag = faculty();
        let gf = ag.fusion(usize::MAX);
        // Paper's example: vertices 7 and 8 (here 6 and 7) share "DL".
        assert!(fusion_neighbors(gf, 6).contains(&7));
        // Structure edges survive.
        assert!(fusion_neighbors(gf, 0).contains(&1));
        // Vertices 1 and 3 share DM without a structure edge.
        assert!(!ag.graph().has_edge(1, 3));
        assert!(fusion_neighbors(gf, 1).contains(&3));
        assert!(fusion_edge_count(gf) > ag.graph().num_edges());
        // Every attribute but CV (held by one vertex) links its members.
        assert_eq!((gf.num_linking_attrs(), gf.num_attrs_over_cap()), (5, 0));
    }

    #[test]
    fn fusion_graph_frequency_cap() {
        let ag = faculty();
        // Cap 1 disables all attribute cliques.
        let gf = ag.fusion(1);
        assert_eq!(fusion_edge_count(gf), ag.graph().num_edges());
        for u in ag.graph().vertices() {
            assert_eq!(fusion_neighbors(gf, u), ag.graph().neighbors(u));
        }
        assert_eq!((gf.num_linking_attrs(), gf.num_attrs_over_cap()), (0, 5));
        // Cap 2 drops DM, the one attribute held by three vertices.
        let gf2 = ag.fusion(2);
        assert_eq!((gf2.num_linking_attrs(), gf2.num_attrs_over_cap()), (4, 1));
    }

    #[test]
    fn most_common_attrs_ranked() {
        let ag = faculty();
        // Among vertices 5,6,7: ML×2, DL×2, CV×1 → top2 = [ML, DL] (id order on tie).
        assert_eq!(ag.most_common_attrs(&[5, 6, 7], 2), vec![3, 4]);
        assert_eq!(ag.most_common_attrs(&[5, 6, 7], 10), vec![3, 4, 5]);
    }

    #[test]
    fn adjacency_matrix_norms() {
        let ag = faculty();
        let sum = adjacency_matrix(ag.graph(), AdjNorm::Sum);
        assert_eq!(sum.get(0, 0), 1.0);
        assert_eq!(sum.get(0, 1), 1.0);
        let mean = adjacency_matrix(ag.graph(), AdjNorm::Mean);
        let row0: f32 = mean.row_iter(0).map(|(_, v)| v).sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        let symn = adjacency_matrix(ag.graph(), AdjNorm::GcnSym);
        // Symmetric: entry (u,v) equals (v,u).
        assert!((symn.get(0, 1) - symn.get(1, 0)).abs() < 1e-7);
    }

    #[test]
    fn induced_subgraph_keeps_vocabulary() {
        let ag = faculty();
        let (sub_ag, map) = ag.induced_subgraph(&[5, 6, 7]);
        assert_eq!(sub_ag.num_attrs(), 6);
        assert_eq!(sub_ag.num_vertices(), 3);
        let local6 = map.local(6).unwrap();
        assert_eq!(sub_ag.attrs_of(local6), &[3, 4]);
    }
}
