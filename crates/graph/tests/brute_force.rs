//! Property tests validating the optimized graph algorithms against
//! brute-force reference implementations on small random graphs.

use proptest::prelude::*;
use qdgnn_data::presets;
use qdgnn_graph::attributed::AttrId;
use qdgnn_graph::{
    conn, core_decomp, traversal, truss, AttributedGraph, Graph, GraphBuilder, VertexId,
};

/// Strategy: a random simple graph with up to `n` vertices.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Reference core numbers via naive repeated peeling.
fn naive_core_numbers(graph: &Graph) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut core = vec![0usize; n];
    for k in 1..=n {
        // Peel vertices of degree < k until fixpoint; survivors have
        // core number ≥ k.
        let mut alive = vec![true; n];
        loop {
            let mut changed = false;
            for v in 0..n {
                if !alive[v] {
                    continue;
                }
                let deg = graph
                    .neighbors(v as VertexId)
                    .iter()
                    .filter(|&&u| alive[u as usize])
                    .count();
                if deg < k {
                    alive[v] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..n {
            if alive[v] {
                core[v] = k;
            }
        }
    }
    core
}

/// Reference edge support (triangle count) per canonical edge.
fn naive_supports(graph: &Graph) -> Vec<((VertexId, VertexId), usize)> {
    graph
        .edges()
        .map(|(u, v)| {
            let s = graph
                .neighbors(u)
                .iter()
                .filter(|&&w| w != v && graph.has_edge(v, w))
                .count();
            ((u, v), s)
        })
        .collect()
}

/// Reference min cut by enumerating all vertex bipartitions (≤ 12
/// vertices).
fn naive_min_cut(graph: &Graph) -> usize {
    let n = graph.num_vertices();
    assert!((2..=12).contains(&n));
    let mut best = usize::MAX;
    for mask in 1u32..(1 << (n - 1)) {
        // Vertex n-1 always on side 0 to halve the enumeration.
        let side = |v: usize| -> bool { v < n - 1 && (mask >> v) & 1 == 1 };
        let cut = graph.edges().filter(|&(u, v)| side(u as usize) != side(v as usize)).count();
        best = best.min(cut);
    }
    best
}

/// Reference fusion graph `G_F` of §6.6, built edge by edge: the
/// structure graph plus an edge between every pair of vertices sharing an
/// attribute held by at most `cap` vertices.
fn fusion_graph(ag: &AttributedGraph, cap: usize) -> Graph {
    let mut builder = GraphBuilder::new(ag.num_vertices());
    for (u, v) in ag.graph().edges() {
        builder.add_edge(u, v);
    }
    for a in 0..ag.num_attrs() as AttrId {
        let members = ag.vertices_with_attr(a);
        if members.len() > cap {
            continue;
        }
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                builder.add_edge(u, v);
            }
        }
    }
    builder.build()
}

/// Reference Algorithm 1: grows the query set to a fixpoint through edges
/// into vertices scoring at least `gamma`.
fn naive_constrained_bfs(
    graph: &Graph,
    query: &[VertexId],
    scores: &[f32],
    gamma: f32,
) -> Vec<VertexId> {
    let mut inside = vec![false; graph.num_vertices()];
    for &q in query {
        inside[q as usize] = true;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (u, v) in graph.edges() {
            for (from, to) in [(u, v), (v, u)] {
                if inside[from as usize] && !inside[to as usize] && scores[to as usize] >= gamma {
                    inside[to as usize] = true;
                    changed = true;
                }
            }
        }
    }
    (0..graph.num_vertices() as VertexId).filter(|&v| inside[v as usize]).collect()
}

/// Reference hop distances by edge relaxation to a fixpoint.
fn naive_distances(graph: &Graph, sources: &[VertexId]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.num_vertices()];
    for &s in sources {
        dist[s as usize] = 0;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (u, v) in graph.edges() {
            for (from, to) in [(u, v), (v, u)] {
                let via = dist[from as usize].saturating_add(1);
                if via < dist[to as usize] {
                    dist[to as usize] = via;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// Fusion caps under test: none, below the smallest linking frequency,
/// small, and uncapped.
const CAPS: [usize; 5] = [0, 1, 2, 3, usize::MAX];

/// Strategy: a sparse random graph of up to `max_n` vertices whose
/// vertices hold up to three of at most six attributes, so attribute
/// frequencies straddle the small caps; with per-vertex scores and a
/// query of one to four vertices.
fn attributed_case(
    max_n: usize,
) -> impl Strategy<Value = (AttributedGraph, Vec<f32>, Vec<VertexId>)> {
    (3usize..=max_n, 1usize..=6).prop_flat_map(|(n, d)| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=2 * n),
            proptest::collection::vec(proptest::collection::vec(0..d as AttrId, 0..=3), n),
            proptest::collection::vec(0.0f32..1.0, n),
            proptest::collection::vec(0..n as VertexId, 1..=4),
        )
            .prop_map(move |(edges, attrs, scores, query)| {
                let ag = AttributedGraph::new(Graph::from_edges(n, &edges), attrs, d);
                (ag, scores, query)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn core_numbers_match_naive(g in graph_strategy(14)) {
        prop_assert_eq!(core_decomp::core_numbers(&g), naive_core_numbers(&g));
    }

    #[test]
    fn truss_decomposition_respects_support_bounds(g in graph_strategy(12)) {
        let decomp = truss::truss_decomposition(&g);
        let supports = naive_supports(&g);
        prop_assert_eq!(decomp.edges().len(), supports.len());
        for ((edge, support), (decomp_edge, truss)) in
            supports.iter().zip(decomp.edges().iter().zip(decomp.trussness()))
        {
            prop_assert_eq!(edge, decomp_edge);
            prop_assert!(*truss >= 2 && *truss <= support + 2);
        }
        // The k-truss graph at max k must be non-empty and every edge in
        // it must have support ≥ k−2 *within that subgraph*.
        let k = decomp.max_truss();
        if k >= 2 {
            let tg = decomp.k_truss_graph(g.num_vertices(), k);
            prop_assert!(tg.num_edges() > 0);
            for (u, v) in tg.edges() {
                let s = tg
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| w != v && tg.has_edge(v, w))
                    .count();
                prop_assert!(s >= k - 2, "edge ({u},{v}) support {s} < {}", k - 2);
            }
        }
    }

    #[test]
    fn min_cut_matches_enumeration(g in graph_strategy(9)) {
        // Restrict to connected graphs: Stoer–Wagner assumes one component.
        let (_, comps) = traversal::connected_components(&g);
        prop_assume!(comps == 1 && g.num_vertices() >= 2);
        let (cut, side) = conn::min_cut(&g);
        prop_assert_eq!(cut, naive_min_cut(&g));
        // The returned side must realize that cut weight.
        let in_side = |v: VertexId| side.contains(&v);
        let realized = g.edges().filter(|&(u, v)| in_side(u) != in_side(v)).count();
        prop_assert_eq!(realized, cut);
        prop_assert!(!side.is_empty() && side.len() < g.num_vertices());
    }

    #[test]
    fn kecc_members_induce_k_connected_subgraph(g in graph_strategy(10)) {
        let (_, comps) = traversal::connected_components(&g);
        prop_assume!(comps == 1 && g.num_vertices() >= 3);
        let query = [0 as VertexId];
        let (k, members) = conn::max_kecc_containing(&g, &query);
        prop_assume!(k >= 1 && members.len() >= 2);
        let sub = g.induced_subgraph(&members);
        // Edge connectivity of the answer must be ≥ k: its min cut is ≥ k.
        let (cut, _) = conn::min_cut(&sub.graph);
        prop_assert!(cut >= k, "answer claims {k}-connectivity but min cut is {cut}");
        // And k is maximal in the sense that the query's core number caps it.
        let cores = core_decomp::core_numbers(&g);
        prop_assert!(k <= cores[0]);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_property(g in graph_strategy(14)) {
        let dist = traversal::bfs_distances(&g, &[0], usize::MAX);
        for (u, v) in g.edges() {
            let du = dist[u as usize];
            let dv = dist[v as usize];
            if du != usize::MAX && dv != usize::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "adjacent distances differ by >1");
            } else {
                prop_assert_eq!(du, dv, "adjacent vertices must share reachability");
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges_exactly(g in graph_strategy(12)) {
        let keep: Vec<VertexId> =
            (0..g.num_vertices() as VertexId).filter(|v| v % 2 == 0).collect();
        let sub = g.induced_subgraph(&keep);
        for (i, &gu) in sub.globals.iter().enumerate() {
            for (j, &gv) in sub.globals.iter().enumerate() {
                if i < j {
                    prop_assert_eq!(
                        sub.graph.has_edge(i as VertexId, j as VertexId),
                        g.has_edge(gu, gv)
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn implicit_constrained_bfs_matches_materialized(
        (ag, mut scores, query) in attributed_case(16),
        cap in 0..CAPS.len(),
        gamma in 0.05f32..0.95,
        below_gamma in proptest::bool::ANY,
    ) {
        let cap = CAPS[cap];
        if below_gamma {
            // A query vertex under γ still belongs and is still expanded.
            scores[query[0] as usize] = gamma * 0.5;
        }
        let fusion = ag.fusion(cap);
        let implicit = traversal::constrained_bfs(&fusion, &query, &scores, gamma);
        let reference = fusion_graph(&ag, cap);
        prop_assert_eq!(&implicit.members, &naive_constrained_bfs(&reference, &query, &scores, gamma));
        prop_assert_eq!(
            &implicit.members,
            &traversal::constrained_bfs(&reference, &query, &scores, gamma).members
        );
        // Each linking attribute's list is scanned at most once.
        prop_assert!(implicit.lists_scanned <= fusion.num_linking_attrs());
        if cap < 2 {
            // No attribute links anything: the structure-graph search.
            prop_assert_eq!(
                &implicit,
                &traversal::constrained_bfs(ag.graph(), &query, &scores, gamma)
            );
        }
    }

    #[test]
    fn implicit_bfs_distances_match_materialized(
        (ag, _scores, sources) in attributed_case(16),
        cap in 0..CAPS.len(),
        max_hops in 0usize..5,
    ) {
        let cap = CAPS[cap];
        let fusion = ag.fusion(cap);
        let full = naive_distances(&fusion_graph(&ag, cap), &sources);
        // Equal distances give equal k-hop sets, which is what candidate
        // extraction (§7.4) takes from them.
        prop_assert_eq!(traversal::bfs_distances(&fusion, &sources, usize::MAX), full.clone());
        // A hop bound keeps every distance within it and reaches nothing
        // beyond it.
        let bounded: Vec<usize> =
            full.iter().map(|&d| if d <= max_hops { d } else { usize::MAX }).collect();
        prop_assert_eq!(traversal::bfs_distances(&fusion, &sources, max_hops), bounded);
    }
}

/// Deterministic pseudo-random score in `[0, 1)` for vertex `v`.
fn hashed_score(v: VertexId, salt: u64) -> f32 {
    let h = (u64::from(v) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// On the FB-414 and Cora presets, under the served cap of 100, the
/// implicit traversal answers every planted community's query exactly as
/// the built fusion graph does.
#[test]
fn implicit_fusion_bfs_matches_materialized_on_presets() {
    const CAP: usize = 100;
    for data in [presets::fb_414(), presets::cora()] {
        let fusion = data.graph.fusion(CAP);
        let reference = fusion_graph(&data.graph, CAP);
        let n = data.graph.num_vertices();
        for (c, members) in data.communities.iter().enumerate() {
            // Members mostly clear the thresholds, outsiders mostly not.
            let mut scores: Vec<f32> =
                (0..n as VertexId).map(|v| 0.75 * hashed_score(v, c as u64)).collect();
            for &v in members {
                scores[v as usize] = 0.25 + 0.75 * hashed_score(v, c as u64);
            }
            for query in [&members[..1], &members[..members.len().min(3)]] {
                for gamma in [0.3, 0.5, 0.7] {
                    assert_eq!(
                        traversal::constrained_bfs(&fusion, query, &scores, gamma).members,
                        traversal::constrained_bfs(&reference, query, &scores, gamma).members,
                        "{} community {c}, query {query:?}, γ {gamma}",
                        data.name
                    );
                }
                assert_eq!(
                    traversal::bfs_distances(&fusion, query, usize::MAX),
                    traversal::bfs_distances(&reference, query, usize::MAX),
                    "{} community {c}, query {query:?}: distances",
                    data.name
                );
            }
        }
    }
}
