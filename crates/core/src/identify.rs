//! Community identification: the online query stage's translation of
//! model scores into a community (§4.3 for CS, §6.6 for ACS).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use qdgnn_graph::{traversal, VertexId};

use crate::error::QdgnnError;
use crate::inputs::GraphTensors;

/// Converts per-vertex scores into a community via the paper's
/// constrained BFS (Algorithm 1).
///
/// Non-attributed queries expand over the **structure graph**; attributed
/// queries (`attributed = true`) expand over the **fusion graph**, whose
/// extra same-attribute edges let the answer include vertices connected
/// to the query through attribute similarity (§6.6). Both run the same
/// traversal: the structure graph is the fusion graph with cap 0.
pub fn identify_community(
    tensors: &GraphTensors,
    query_vertices: &[VertexId],
    scores: &[f32],
    gamma: f32,
    attributed: bool,
) -> Vec<VertexId> {
    let cap = if attributed { tensors.fusion_attr_cap } else { 0 };
    let found =
        traversal::constrained_bfs(&tensors.graph.fusion(cap), query_vertices, scores, gamma);
    // Candidate count = vertices clearing γ, i.e. the BFS's admissible
    // set; attribute lists = fusion-graph member lists the BFS scanned.
    // Observed here so they also cover validation γ-sweeps; per-query
    // serving latency is captured by the `serve.bfs` span at call sites.
    if qdgnn_obs::enabled() {
        let candidates = scores.iter().filter(|&&s| s >= gamma).count();
        qdgnn_obs::observe("identify.candidates", candidates as f64);
        if attributed {
            qdgnn_obs::observe("identify.attr_lists", found.lists_scanned as f64);
        }
    }
    found.members
}

/// Validating variant of [`identify_community`] for untrusted input:
/// checks every query vertex against the graph and the score vector
/// against the vertex count before traversing.
pub fn try_identify_community(
    tensors: &GraphTensors,
    query_vertices: &[VertexId],
    scores: &[f32],
    gamma: f32,
    attributed: bool,
) -> Result<Vec<VertexId>, QdgnnError> {
    if query_vertices.is_empty() {
        return Err(QdgnnError::EmptyQuery);
    }
    if let Some(&v) = query_vertices.iter().find(|&&v| (v as usize) >= tensors.n) {
        return Err(QdgnnError::VertexOutOfRange { vertex: v, n: tensors.n });
    }
    if scores.len() != tensors.n {
        return Err(QdgnnError::ScoreLengthMismatch { expected: tensors.n, got: scores.len() });
    }
    Ok(identify_community(tensors, query_vertices, scores, gamma, attributed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_data::presets;
    use qdgnn_graph::attributed::AdjNorm;

    #[test]
    fn perfect_scores_recover_connected_community() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let community = &data.communities[0];
        let mut scores = vec![0.0f32; t.n];
        for &v in community {
            scores[v as usize] = 1.0;
        }
        let found = identify_community(&t, &community[..1], &scores, 0.5, false);
        // Planted communities are connected, so BFS recovers all of them.
        assert_eq!(&found, community);
    }

    #[test]
    fn fusion_graph_can_reach_more_vertices() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, usize::MAX);
        let scores = vec![1.0f32; t.n];
        let on_structure = identify_community(&t, &[0], &scores, 0.5, false);
        let on_fusion = identify_community(&t, &[0], &scores, 0.5, true);
        assert!(on_structure.iter().all(|v| on_fusion.binary_search(v).is_ok()));
        assert!(on_fusion.len() >= on_structure.len());
        // A vertex isolated in the structure graph is reached only
        // through the attribute it shares with the query vertex.
        let a = data.graph.attrs_of(0)[0];
        let v = *data.graph.vertices_with_attr(a).iter().find(|&&v| v != 0).unwrap();
        let mut isolated = scores.clone();
        for u in 0..t.n as VertexId {
            if u != 0 && u != v {
                isolated[u as usize] = 0.0;
            }
        }
        assert_eq!(identify_community(&t, &[0], &isolated, 0.5, true), vec![0, v]);
        let structure_only = if t.graph.graph().has_edge(0, v) { vec![0, v] } else { vec![0] };
        assert_eq!(identify_community(&t, &[0], &isolated, 0.5, false), structure_only);
    }

    #[test]
    fn gamma_one_keeps_only_queries_when_scores_low() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let scores = vec![0.4f32; t.n];
        let found = identify_community(&t, &[3, 5], &scores, 0.99, false);
        assert_eq!(found, vec![3, 5]);
    }
}
