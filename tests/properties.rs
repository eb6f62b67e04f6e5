//! Cross-crate property tests: invariants that must hold for *any*
//! generated dataset, query and score vector.

use proptest::prelude::*;
use qdgnn::prelude::*;

/// Strategy: a small random generator configuration.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..5, 8.0f64..20.0, 20usize..60, 1u64..500).prop_map(
        |(communities, size, vocab, seed)| {
            GeneratorConfig {
                num_communities: communities,
                community_size_mean: size,
                vocab_size: vocab,
                topics_per_community: (vocab / 4).max(3),
                attrs_per_vertex_mean: 4.0,
                seed,
                ..Default::default()
            }
            .generate("prop")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_candidate_bfs_matches_the_whole_graph_definition(
        n in 1u32..40,
        raw_edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
        raw_sources in proptest::collection::vec(0u32..40, 1..6),
        max_size in 0usize..50,
    ) {
        let edges: Vec<(VertexId, VertexId)> =
            raw_edges.iter().map(|&(u, v)| (u % n, v % n)).collect();
        let graph = Graph::from_edges(n as usize, &edges);
        let sources: Vec<VertexId> = raw_sources.iter().map(|&s| s % n).collect();
        prop_assert_eq!(
            qdgnn::core::interactive::candidate_by_bfs(&graph, &sources, max_size),
            whole_graph_candidate(&graph, &sources, max_size)
        );
    }
}

/// `candidate_by_bfs` by its definition: BFS distances over the whole
/// graph, every reached vertex sorted by (distance, id), the first
/// `max(max_size, |sources|)` kept, sorted by id.
fn whole_graph_candidate(graph: &Graph, sources: &[VertexId], max_size: usize) -> Vec<VertexId> {
    let dist = qdgnn::graph::traversal::bfs_distances(graph, sources, usize::MAX);
    let mut reached: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
        .filter(|&v| dist[v as usize] != usize::MAX)
        .collect();
    reached.sort_by_key(|&v| (dist[v as usize], v));
    reached.truncate(max_size.max(sources.len()));
    reached.sort_unstable();
    reached
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_communities_are_connected_and_in_range(data in dataset_strategy()) {
        let n = data.graph.num_vertices() as VertexId;
        for members in &data.communities {
            prop_assert!(!members.is_empty());
            prop_assert!(members.iter().all(|&v| v < n));
            prop_assert!(qdgnn::graph::traversal::is_connected_subset(
                data.graph.graph(),
                members
            ));
        }
    }

    #[test]
    fn identification_output_contains_query_and_respects_threshold(
        data in dataset_strategy(),
        seed in 0u64..1000,
        gamma in 0.05f32..0.95,
    ) {
        let config = ModelConfig::fast();
        let tensors = GraphTensors::new(
            &data.graph,
            config.adj_norm,
            config.fusion_graph_attr_cap,
        );
        let queries = qdgnn::data::queries::generate(&data, 4, 1, 3, AttrMode::Empty, seed);
        // Scores from a deterministic hash — arbitrary but reproducible.
        let scores: Vec<f32> = (0..tensors.n)
            .map(|v| ((v as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 1000.0)
            .collect();
        for q in &queries {
            let c = identify_community(&tensors, &q.vertices, &scores, gamma, false);
            // Query vertices always present.
            for v in &q.vertices {
                prop_assert!(c.binary_search(v).is_ok());
            }
            // Every non-query member passed the threshold.
            for &v in &c {
                if !q.vertices.contains(&v) {
                    prop_assert!(scores[v as usize] >= gamma);
                }
            }
            // Sorted and duplicate-free.
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn metrics_are_bounded_and_symmetric_on_perfection(
        data in dataset_strategy(),
        seed in 0u64..1000,
    ) {
        let queries = qdgnn::data::queries::generate(&data, 6, 1, 2, AttrMode::Empty, seed);
        let truth: Vec<Vec<VertexId>> = queries.iter().map(|q| q.truth.clone()).collect();
        let m = CommunityMetrics::micro(&truth, &truth);
        prop_assert!((m.f1 - 1.0).abs() < 1e-12);
        // Random half predictions stay within [0, 1].
        let half: Vec<Vec<VertexId>> = truth
            .iter()
            .map(|t| t[..t.len() / 2].to_vec())
            .collect();
        let m = CommunityMetrics::micro(&half, &truth);
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
    }

    #[test]
    fn model_inference_is_pure(
        data in dataset_strategy(),
        seed in 0u64..1000,
    ) {
        let config = ModelConfig { layers: 2, hidden: 8, ..ModelConfig::fast() };
        let tensors = GraphTensors::new(
            &data.graph,
            config.adj_norm,
            config.fusion_graph_attr_cap,
        );
        let model = AqdGnn::new(config, tensors.d);
        let q = qdgnn::data::queries::generate(&data, 1, 1, 2, AttrMode::FromNode, seed).remove(0);
        let qv = QueryVectors::encode(tensors.n, tensors.d, &q.vertices, &q.attrs);
        let s1 = predict_scores(&model, &tensors, &qv);
        let s2 = predict_scores(&model, &tensors, &qv);
        prop_assert_eq!(s1.clone(), s2);
        prop_assert!(s1.iter().all(|s| (0.0..=1.0).contains(s) && s.is_finite()));
    }

    #[test]
    fn fusion_graph_is_supergraph_of_structure(data in dataset_strategy()) {
        use qdgnn::graph::traversal::Expand;
        let fusion = data.graph.fusion(50);
        let structure = data.graph.graph();
        let mut fusion_edges = 0;
        for u in structure.vertices() {
            let mut scanned = vec![false; fusion.num_lists()];
            let mut adjacent = vec![false; fusion.num_vertices()];
            fusion.expand(u, &mut scanned, |v| adjacent[v as usize] = true);
            adjacent[u as usize] = false;
            for &v in structure.neighbors(u) {
                prop_assert!(adjacent[v as usize]);
            }
            fusion_edges += adjacent.iter().filter(|&&a| a).count();
        }
        prop_assert!(fusion_edges / 2 >= structure.num_edges());
    }

    #[test]
    fn core_and_truss_invariants(data in dataset_strategy()) {
        let g = data.graph.graph();
        let cores = qdgnn::graph::core_decomp::core_numbers(g);
        // Core number never exceeds degree.
        for v in g.vertices() {
            prop_assert!(cores[v as usize] <= g.degree(v));
        }
        let decomp = qdgnn::graph::truss::truss_decomposition(g);
        // Trussness of an edge ≤ min endpoint core number + 2 is not a
        // theorem; the sound invariant is truss ≥ 2 and ≤ support + 2.
        for (i, &(u, v)) in decomp.edges().iter().enumerate() {
            let t = decomp.trussness()[i];
            prop_assert!(t >= 2);
            let support = g
                .neighbors(u)
                .iter()
                .filter(|&&w| w != v && g.has_edge(v, w))
                .count();
            prop_assert!(t <= support + 2, "edge ({u},{v}) truss {t} support {support}");
        }
    }
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks for every op registered on the tape.
//
// These are the ground truth for the hand-written backward pass: each
// `fd_<op>` test compares the analytic gradient from `Tape::backward`
// against a central difference of the recomputed forward loss. QD003 in
// `qdgnn-analyze` enforces that every `enum Op` variant is referenced by
// one of these tests.
// ---------------------------------------------------------------------------

use qdgnn::tensor::{Csr, Dense, Tape, Var};
use std::sync::Arc;

/// Deterministic pseudo-random values in roughly [-1.5, 1.5], kept away
/// from zero so kinked ops (relu) see both branches but never straddle
/// the kink within the fd step.
fn fd_vals_signed(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|k| {
            let h = (k as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(seed.wrapping_mul(1099087573));
            let u = (h % 1000) as f32 / 1000.0;
            let v = u * 3.0 - 1.5;
            if v.abs() < 0.3 {
                if h & 1 == 0 { 0.45 } else { -0.45 }
            } else {
                v
            }
        })
        .collect()
}

/// Deterministic pseudo-random values in [0.25, 1.75) — strictly
/// positive, for rsqrt inputs and loss weights.
fn fd_vals_pos(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|k| {
            let h = (k as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(seed.wrapping_mul(1099087573));
            (h % 1000) as f32 / 1000.0 * 1.5 + 0.25
        })
        .collect()
}

/// Central-difference check of `Tape::backward` for the graph built by
/// `build` over leaf inputs with the given shapes.
///
/// Non-scalar outputs are reduced to a scalar loss through a constant
/// element-weight hadamard + mean, so the seed gradient is non-uniform
/// and transposition/scaling mistakes in an op's backward cannot cancel.
fn fd_check(shapes: &[(usize, usize)], positive: bool, build: &dyn Fn(&mut Tape, &[Var]) -> Var) {
    let eps = 1e-2f32;
    let tol = 2e-2f32;
    let inputs: Vec<Dense> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| {
            let vals = if positive {
                fd_vals_pos(r * c, i as u64 + 1)
            } else {
                fd_vals_signed(r * c, i as u64 + 1)
            };
            Dense::from_vec(r, c, vals)
        })
        .collect();

    let loss_of = |inputs: &[Dense]| -> (Tape, Vec<Var>, Var) {
        let mut t = Tape::new();
        let leaves: Vec<Var> = inputs.iter().map(|d| t.leaf(Arc::new(d.clone()))).collect();
        let out = build(&mut t, &leaves);
        let loss = if t.shape(out) == (1, 1) {
            out
        } else {
            let (r, c) = t.shape(out);
            let w = t.constant(Dense::from_vec(r, c, fd_vals_pos(r * c, 77)));
            let weighted = t.hadamard(out, w);
            t.mean_all(weighted)
        };
        (t, leaves, loss)
    };

    let (tape, leaves, loss) = loss_of(&inputs);
    let grads = tape.backward(loss);

    for (i, leaf) in leaves.iter().enumerate() {
        let g = grads.get(*leaf).unwrap_or_else(|| panic!("no gradient for input {i}"));
        for r in 0..inputs[i].rows() {
            for c in 0..inputs[i].cols() {
                let base = inputs[i].get(r, c);
                let mut plus = inputs.clone();
                plus[i].set(r, c, base + eps);
                let (tp, _, lp) = loss_of(&plus);
                let fplus = tp.value(lp).get(0, 0);
                let mut minus = inputs.clone();
                minus[i].set(r, c, base - eps);
                let (tm, _, lm) = loss_of(&minus);
                let fminus = tm.value(lm).get(0, 0);
                let fd = (fplus - fminus) / (2.0 * eps);
                let an = g.get(r, c);
                assert!(
                    (fd - an).abs() <= tol * an.abs().max(1.0),
                    "input {i} element [{r},{c}]: finite difference {fd} vs analytic {an}"
                );
            }
        }
    }
}

#[test]
fn fd_matmul() {
    fd_check(&[(3, 4), (4, 2)], false, &|t, l| t.matmul(l[0], l[1]));
}

#[test]
fn fd_spmm() {
    let m = Arc::new(Csr::from_triplets(
        3,
        3,
        &[(0, 0, 1.0), (0, 1, 0.5), (1, 2, 0.7), (2, 0, 0.3), (2, 2, 1.2)],
    ));
    let mt = Arc::new(m.transpose());
    fd_check(&[(3, 2)], false, &|t, l| t.spmm(&m, &mt, l[0]));
}

#[test]
fn fd_add() {
    fd_check(&[(3, 4), (3, 4)], false, &|t, l| t.add(l[0], l[1]));
}

#[test]
fn fd_sub() {
    fd_check(&[(3, 4), (3, 4)], false, &|t, l| t.sub(l[0], l[1]));
}

#[test]
fn fd_hadamard() {
    fd_check(&[(3, 4), (3, 4)], false, &|t, l| t.hadamard(l[0], l[1]));
}

#[test]
fn fd_add_row() {
    fd_check(&[(3, 4), (1, 4)], false, &|t, l| t.add_row(l[0], l[1]));
}

#[test]
fn fd_mul_row() {
    fd_check(&[(3, 4), (1, 4)], false, &|t, l| t.mul_row(l[0], l[1]));
}

#[test]
fn fd_mul_col() {
    fd_check(&[(3, 4), (3, 1)], false, &|t, l| t.mul_col(l[0], l[1]));
}

#[test]
fn fd_col_mean() {
    fd_check(&[(3, 4)], false, &|t, l| t.col_mean(l[0]));
}

#[test]
fn fd_relu() {
    fd_check(&[(3, 4)], false, &|t, l| t.relu(l[0]));
}

#[test]
fn fd_sigmoid() {
    fd_check(&[(3, 4)], false, &|t, l| t.sigmoid(l[0]));
}

#[test]
fn fd_scale() {
    fd_check(&[(3, 4)], false, &|t, l| t.scale(l[0], 1.7));
}

#[test]
fn fd_add_scalar() {
    fd_check(&[(3, 4)], false, &|t, l| t.add_scalar(l[0], 0.3));
}

#[test]
fn fd_rsqrt() {
    fd_check(&[(3, 4)], true, &|t, l| t.rsqrt(l[0]));
}

#[test]
fn fd_concat_cols() {
    fd_check(&[(3, 2), (3, 3)], false, &|t, l| t.concat_cols(&[l[0], l[1]]));
}

#[test]
fn fd_mean_all() {
    fd_check(&[(3, 4)], false, &|t, l| t.mean_all(l[0]));
}

#[test]
fn fd_bce_with_logits_mean() {
    let target = Arc::new(Dense::from_vec(3, 2, vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0]));
    let weights = Arc::new(Dense::from_vec(3, 2, fd_vals_pos(6, 11)));
    fd_check(&[(3, 2)], false, &move |t, l| {
        t.bce_with_logits(l[0], Arc::clone(&target), Some(Arc::clone(&weights)))
    });
}
