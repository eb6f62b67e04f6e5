//! Breadth-first traversal utilities and the paper's constrained-BFS
//! community identification (Algorithm 1).
//!
//! The breadth-first searches run over anything that implements
//! [`Expand`]: the structure [`Graph`], or the fusion graph of §6.6
//! walked implicitly ([`FusionGraph`](crate::attributed::FusionGraph)).

use std::collections::VecDeque;

use crate::graph::{Graph, VertexId};

/// A graph a breadth-first search can expand.
///
/// Besides per-vertex adjacency, a graph may have *shared* neighbour
/// lists, such as an attribute's member list in the fusion graph: every
/// member is adjacent to every other, so once a traversal has scanned the
/// list from one member, scanning it again from another reaches no new
/// vertex. A traversal keeps one flag per shared list and scans each at
/// most once.
pub trait Expand {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of shared neighbour lists (the length of `scanned`).
    fn num_lists(&self) -> usize;

    /// Calls `visit` on each neighbour of `u`; a vertex may be visited
    /// more than once, and `u` itself may be. Shared lists flagged in
    /// `scanned` are skipped, and the ones scanned now are flagged.
    /// Returns how many shared lists this call scanned.
    fn expand(&self, u: VertexId, scanned: &mut [bool], visit: impl FnMut(VertexId)) -> usize;
}

impl Expand for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    fn num_lists(&self) -> usize {
        0
    }

    fn expand(&self, u: VertexId, _scanned: &mut [bool], mut visit: impl FnMut(VertexId)) -> usize {
        for &v in self.neighbors(u) {
            visit(v);
        }
        0
    }
}

/// [`bfs`] state of a vertex no entered vertex has reached yet.
const UNSEEN: u32 = u32::MAX;
/// [`bfs`] state of a vertex `admit` refused; it is never tested again.
const REFUSED: u32 = u32::MAX - 1;

/// Breadth-first search from `sources` that enters a vertex only if
/// `admit` accepts it (sources always enter), and expands no vertex at
/// distance `max_hops`. Returns each vertex's hop distance, or
/// [`UNSEEN`] / [`REFUSED`] for vertices not entered, and the number of
/// shared lists scanned.
fn bfs(
    graph: &impl Expand,
    sources: &[VertexId],
    max_hops: u32,
    mut admit: impl FnMut(VertexId) -> bool,
) -> (Vec<u32>, usize) {
    let mut state = vec![UNSEEN; graph.num_vertices()];
    let mut scanned = vec![false; graph.num_lists()];
    let mut queue = Vec::new();
    for &s in sources {
        if state[s as usize] == UNSEEN {
            state[s as usize] = 0;
            queue.push(s);
        }
    }
    let (mut head, mut lists) = (0, 0);
    while let Some(&u) = queue.get(head) {
        head += 1;
        // The queue is in distance order: every vertex left is at the bound.
        if state[u as usize] >= max_hops {
            break;
        }
        let next = state[u as usize] + 1;
        lists += graph.expand(u, &mut scanned, |v| {
            let s = &mut state[v as usize];
            if *s == UNSEEN {
                if admit(v) {
                    *s = next;
                    queue.push(v);
                } else {
                    *s = REFUSED;
                }
            }
        });
    }
    (state, lists)
}

/// BFS distances from a set of sources, up to `max_hops` (`usize::MAX`
/// for no bound); vertices unreachable within it get `usize::MAX`.
pub fn bfs_distances(graph: &impl Expand, sources: &[VertexId], max_hops: usize) -> Vec<usize> {
    let max_hops = u32::try_from(max_hops).unwrap_or(u32::MAX);
    let (state, _) = bfs(graph, sources, max_hops, |_| true);
    state.into_iter().map(|d| if d == UNSEEN { usize::MAX } else { d as usize }).collect()
}

/// Connected components: returns `(component_id_per_vertex, #components)`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// The connected component containing `start`, as a sorted vertex list.
pub fn component_of(graph: &Graph, start: VertexId) -> Vec<VertexId> {
    let (state, _) = bfs(graph, &[start], u32::MAX, |_| true);
    (0..graph.num_vertices() as VertexId).filter(|&v| state[v as usize] != UNSEEN).collect()
}

/// Whether all `vertices` lie in one connected component of their induced
/// subgraph.
pub fn is_connected_subset(graph: &Graph, vertices: &[VertexId]) -> bool {
    if vertices.is_empty() {
        return true;
    }
    let sub = graph.induced_subgraph(vertices);
    let (_, count) = connected_components(&sub.graph);
    count <= 1
}

/// The answer of a [`constrained_bfs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstrainedBfs {
    /// The community, sorted by vertex id.
    pub members: Vec<VertexId>,
    /// Shared neighbour lists (fusion-graph attribute member lists) the
    /// traversal scanned; 0 on the structure graph.
    pub lists_scanned: usize,
}

/// Algorithm 1 of the paper: constrained BFS for community identification.
///
/// Starting from the query vertices, expands through neighbors whose model
/// score reaches the threshold `gamma`, guaranteeing the answer community
/// is connected to the queries. Query vertices are always included, as in
/// the paper (line 1 initializes `C_q = V_q`), and expanded even when
/// their own score is below `gamma`.
///
/// `scores` holds the model output `h_q` (post-sigmoid, in `[0,1]`), one
/// entry per vertex of `graph`.
///
/// # Panics
/// Panics if `scores.len() != graph.num_vertices()`.
pub fn constrained_bfs(
    graph: &impl Expand,
    query: &[VertexId],
    scores: &[f32],
    gamma: f32,
) -> ConstrainedBfs {
    assert_eq!(
        scores.len(),
        graph.num_vertices(),
        "scores length must equal vertex count"
    );
    let (state, lists_scanned) = bfs(graph, query, u32::MAX, |v| scores[v as usize] >= gamma);
    let members = state
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d < REFUSED)
        .map(|(v, _)| v as VertexId)
        .collect();
    ConstrainedBfs { members, lists_scanned }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles bridged by one edge: {0,1,2} – {3,4,5}.
    fn two_triangles() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn bfs_distances_basic() {
        let g = two_triangles();
        let d = bfs_distances(&g, &[0], usize::MAX);
        assert_eq!(d, vec![0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn multi_source_bfs() {
        let g = two_triangles();
        let d = bfs_distances(&g, &[0, 5], usize::MAX);
        assert_eq!(d[3], 1);
        assert_eq!(d[1], 1);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[4]);
    }

    #[test]
    fn component_of_returns_sorted_members() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        assert_eq!(component_of(&g, 3), vec![2, 3]);
        assert_eq!(component_of(&g, 4), vec![4]);
    }

    #[test]
    fn connected_subset_checks() {
        let g = two_triangles();
        assert!(is_connected_subset(&g, &[0, 1, 2]));
        assert!(!is_connected_subset(&g, &[0, 4]));
        assert!(is_connected_subset(&g, &[]));
    }

    #[test]
    fn constrained_bfs_respects_threshold_and_connectivity() {
        let g = two_triangles();
        // High scores on the far triangle, but vertex 3 blocks the path.
        let scores = [0.9, 0.9, 0.9, 0.1, 0.95, 0.95];
        let c = constrained_bfs(&g, &[0], &scores, 0.5).members;
        // 3 fails the threshold so 4,5 are unreachable despite high scores.
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn constrained_bfs_always_keeps_query_vertices() {
        let g = two_triangles();
        let scores = [0.0; 6];
        let c = constrained_bfs(&g, &[4], &scores, 0.5).members;
        assert_eq!(c, vec![4]);
    }

    #[test]
    fn constrained_bfs_multiple_queries_disconnected_answer() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let scores = [1.0, 1.0, 0.0, 0.0];
        let c = constrained_bfs(&g, &[0, 3], &scores, 0.5).members;
        // Both query vertices kept; expansion only where scores pass, so
        // vertex 2 (score 0) is excluded even though it neighbors query 3.
        assert_eq!(c, vec![0, 1, 3]);
    }
}
