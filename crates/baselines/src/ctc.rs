//! CTC — closest truss community (Huang et al., PVLDB'15).
//!
//! The CTC answer is the connected k-truss of **maximum k** containing
//! all query vertices, shrunk to reduce query distance ("free rider"
//! removal): vertices at maximal BFS distance from the query are removed
//! in rounds as long as the queries stay connected in what remains. The
//! original uses bulk deletion with truss maintenance; this
//! implementation re-peels the truss after each distance round, which
//! preserves the result structure at small-graph scale (documented in
//! DESIGN.md).

use qdgnn_data::Query;
use qdgnn_graph::truss::{truss_decomposition, TrussDecomposition};
use qdgnn_graph::{traversal, AttributedGraph, Graph, VertexId};

use crate::CommunityMethod;

/// Maximum free-rider removal rounds (each strictly shrinks the answer).
const MAX_SHRINK_ROUNDS: usize = 64;

/// The CTC method with its precomputed truss index.
pub struct Ctc {
    decomp: TrussDecomposition,
    n: usize,
}

impl Ctc {
    /// Builds the truss index for `graph` (the offline stage).
    pub fn index(graph: &Graph) -> Self {
        Ctc { decomp: truss_decomposition(graph), n: graph.num_vertices() }
    }

    /// The connected k-truss component of maximum k containing `query`,
    /// before free-rider removal. Returns `(k, members)`.
    pub fn max_truss_community(&self, query: &[VertexId]) -> (usize, Vec<VertexId>) {
        if query.is_empty() {
            return (0, Vec::new());
        }
        for k in (2..=self.decomp.max_truss()).rev() {
            let tg = self.decomp.k_truss_graph(self.n, k);
            let component = traversal::component_of(&tg, query[0]);
            if component.len() == 1 && tg.degree(query[0]) == 0 {
                continue;
            }
            if query.iter().all(|&q| component.binary_search(&q).is_ok()) {
                return (k, component);
            }
        }
        (0, Vec::new())
    }

    /// Full CTC answer: maximum truss community + distance-based
    /// shrinking with truss re-peeling.
    pub fn search_vertices(&self, graph: &Graph, query: &[VertexId]) -> Vec<VertexId> {
        let (k, mut members) = self.max_truss_community(query);
        if members.is_empty() {
            // No truss contains the whole query; fall back to the plain
            // connected component (maximal 2-truss-or-less answer).
            let comp = traversal::component_of(graph, query[0]);
            return if query.iter().all(|&q| comp.binary_search(&q).is_ok()) {
                comp
            } else {
                query.to_vec()
            };
        }
        for _ in 0..MAX_SHRINK_ROUNDS {
            let sub = graph.induced_subgraph(&members);
            let local_query: Vec<VertexId> =
                query.iter().filter_map(|&q| sub.local(q)).collect();
            let dist = traversal::bfs_distances(&sub.graph, &local_query, usize::MAX);
            let dmax = (0..sub.len())
                .map(|v| dist[v])
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0);
            if dmax <= 1 {
                break;
            }
            // Remove the farthest layer, then restore the k-truss property
            // and connectivity.
            let kept: Vec<VertexId> = (0..sub.len() as VertexId)
                .filter(|&v| dist[v as usize] < dmax)
                .collect();
            let kept_global = sub.to_global(&kept);
            let Some(shrunk) = re_peel(graph, &kept_global, query, k) else { break };
            if shrunk.len() >= members.len() {
                break;
            }
            members = shrunk;
        }
        members
    }
}

/// Restores the k-truss property on the subgraph induced by `vertices`
/// and returns the connected component containing all `query` vertices,
/// or `None` if the queries fall out or get separated.
fn re_peel(
    graph: &Graph,
    vertices: &[VertexId],
    query: &[VertexId],
    k: usize,
) -> Option<Vec<VertexId>> {
    let sub = graph.induced_subgraph(vertices);
    let decomp = truss_decomposition(&sub.graph);
    let tg = decomp.k_truss_graph(sub.len(), k);
    let q0 = sub.local(query[0])?;
    let component = traversal::component_of(&tg, q0);
    if component.len() == 1 && tg.degree(q0) == 0 {
        return None;
    }
    for &q in query {
        let lq = sub.local(q)?;
        if component.binary_search(&lq).is_err() {
            return None;
        }
    }
    Some(sub.to_global(&component))
}

impl CommunityMethod for Ctc {
    fn name(&self) -> &'static str {
        "CTC"
    }

    fn supports_attrs(&self) -> bool {
        false
    }

    fn supports_multi_vertex(&self) -> bool {
        true
    }

    fn search(&self, graph: &AttributedGraph, query: &Query) -> Vec<VertexId> {
        self.search_vertices(graph.graph(), &query.vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-clique {0..3} bridged by the path 3–4–5 to a triangle {5,6,7}.
    fn clique_path_triangle() -> Graph {
        Graph::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        )
    }

    #[test]
    fn finds_clique_for_clique_member() {
        let g = clique_path_triangle();
        let ctc = Ctc::index(&g);
        assert_eq!(ctc.search_vertices(&g, &[1]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn finds_triangle_for_triangle_member() {
        let g = clique_path_triangle();
        let ctc = Ctc::index(&g);
        assert_eq!(ctc.search_vertices(&g, &[6]), vec![5, 6, 7]);
    }

    #[test]
    fn spanning_query_falls_back_to_connecting_structure() {
        let g = clique_path_triangle();
        let ctc = Ctc::index(&g);
        let c = ctc.search_vertices(&g, &[0, 6]);
        assert!(c.contains(&0) && c.contains(&6));
        assert!(traversal::is_connected_subset(&g, &c));
    }

    #[test]
    fn free_rider_removal_trims_far_vertices() {
        // Triangle chain: the query triangle plus a far triangle glued by
        // a shared vertex — same trussness everywhere, distance separates.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (4, 6),
            ],
        );
        let ctc = Ctc::index(&g);
        let c = ctc.search_vertices(&g, &[0]);
        // The farthest triangle {5,6} should be shaved off.
        assert!(c.contains(&0) && c.contains(&1) && c.contains(&2));
        assert!(!c.contains(&6));
    }

    #[test]
    fn disconnected_query_returns_query_only() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let ctc = Ctc::index(&g);
        assert_eq!(ctc.search_vertices(&g, &[0, 2]), vec![0, 2]);
    }
}
