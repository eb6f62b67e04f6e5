//! Integration of the serving extensions: graph-cache endpoint, model
//! persistence across processes-worth of state, and the extra k-clique
//! substrate method.

use qdgnn::prelude::*;

#[test]
fn train_save_load_serve_round_trip() {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let queries = qdgnn::data::queries::generate(&data, 50, 1, 2, AttrMode::FromCommunity, 13);
    let split = QuerySplit::new(queries, 25, 13, 12);
    let trained = Trainer::new(TrainConfig { epochs: 20, ..TrainConfig::fast() }).train(
        AqdGnn::new(config.clone(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );

    // Persist + reload into a fresh model.
    let dir = std::env::temp_dir().join("qdgnn_serving_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("served.model");
    save_model(&path, &trained.model, trained.gamma).unwrap();
    let mut fresh = AqdGnn::new(ModelConfig { seed: 4242, ..config }, tensors.d);
    let gamma = load_model(&path, &mut fresh).unwrap();
    assert_eq!(gamma, trained.gamma);

    // The reloaded model serves identically through the cached endpoint.
    let original = OnlineStage::new(&trained.model, &tensors, trained.gamma);
    let reloaded = OnlineStage::new(&fresh, &tensors, gamma);
    assert!(original.is_cached() && reloaded.is_cached());
    for q in &split.test {
        assert_eq!(
            original.try_query(q).expect("test query is valid"),
            reloaded.try_query(q).expect("test query is valid")
        );
    }
    let m1 = original.evaluate(&split.test);
    let m2 = reloaded.evaluate(&split.test);
    assert_eq!(m1.f1, m2.f1);
    assert!(m1.f1 > 0.4, "served model should still be good, F1={:.3}", m1.f1);
}

#[test]
fn cached_endpoint_agrees_with_reference_pipeline_on_attributed_queries() {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let model = AqdGnn::new(config, tensors.d);
    let stage = OnlineStage::new(&model, &tensors, 0.5);
    let queries = qdgnn::data::queries::generate(&data, 8, 1, 3, AttrMode::FromNode, 77);
    for q in &queries {
        assert_eq!(
            stage.try_query(q).expect("test query is valid"),
            predict_community(&model, &tensors, q, 0.5)
        );
    }
}

#[test]
fn kclique_method_participates_in_common_interface() {
    let data = qdgnn::data::presets::toy();
    let kc = KClique::new();
    let queries = qdgnn::data::queries::generate(&data, 6, 1, 1, AttrMode::Empty, 3);
    for q in &queries {
        let c = kc.search(&data.graph, q);
        assert!(c.contains(&q.vertices[0]));
        assert!(
            qdgnn::graph::traversal::is_connected_subset(data.graph.graph(), &c),
            "percolated community must be connected"
        );
    }
}

#[test]
fn attention_fusion_trains_through_public_api() {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig { fusion: FusionAgg::Attention, ..ModelConfig::fast() };
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let queries = qdgnn::data::queries::generate(&data, 40, 1, 2, AttrMode::FromCommunity, 21);
    let split = QuerySplit::new(queries, 20, 10, 10);
    let trained = Trainer::new(TrainConfig { epochs: 20, ..TrainConfig::fast() }).train(
        AqdGnn::new(config, tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    let m = OnlineStage::new(&trained.model, &tensors, trained.gamma).evaluate(&split.test);
    assert!(m.f1 > 0.4, "attention fusion should learn toy data, F1={:.3}", m.f1);
}

/// Serving runs without a tape, yet the sanitizer still names the layer
/// that produced a NaN: here a corrupt batch-norm running variance in the
/// query branch's first layer, which the ReLU after it would otherwise
/// turn into zeros.
#[test]
#[cfg(feature = "sanitize")]
#[should_panic(expected = "op `eval aqdgnn.q0` produced non-finite value")]
fn sanitizer_names_the_eval_layer_behind_a_nan() {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let mut model = AqdGnn::new(config.clone(), tensors.d);
    // The first BN the model registers is `aqdgnn.q0.bn`.
    let width = config.hidden;
    let nan_var = qdgnn::tensor::Dense::full(1, width, f32::NAN);
    model.bns_mut()[0].set_running(qdgnn::tensor::Dense::zeros(1, width), nan_var);
    let q = QueryVectors::encode(tensors.n, tensors.d, &[0], &[1]);
    let batch = QueryBatch::try_stack(&[q]).expect("one query stacks");
    let _ = predict_scores_batch(&model, &tensors, None, &batch);
}

/// Each interactive round scores its candidate on tensors built with the
/// model's own adjacency normalization: round 0 of `run_interactive`
/// returns the community that scoring the candidate under the model's
/// `ModelConfig` gives, not the one a fixed `GcnSym` would give.
#[test]
fn interactive_rounds_score_candidates_with_the_models_adj_norm() {
    use qdgnn::core::interactive::{candidate_by_bfs, select_k_by_scores};
    use qdgnn::graph::attributed::AdjNorm;

    let data = qdgnn::data::presets::toy();
    let config = ModelConfig { adj_norm: AdjNorm::Mean, ..ModelConfig::fast() };
    let model = AqdGnn::new(config.clone(), data.graph.num_attrs());
    let cfg = InteractiveConfig { rounds: 1, candidate_size: 40, ..Default::default() };
    let queries = qdgnn::data::queries::generate(&data, 12, 1, 2, AttrMode::FromCommunity, 29);

    // Round 0 rebuilt by hand: candidate, scores under `norm`, k-selection.
    let round0 = |q: &Query, norm: AdjNorm| -> Vec<VertexId> {
        let candidate = candidate_by_bfs(data.graph.graph(), &q.vertices, cfg.candidate_size);
        let (sub, map) = data.graph.induced_subgraph(&candidate);
        let local: Vec<VertexId> = q.vertices.iter().filter_map(|&v| map.local(v)).collect();
        let tensors = GraphTensors::new(&sub, norm, config.fusion_graph_attr_cap);
        let qv = QueryVectors::encode(tensors.n, tensors.d, &local, &q.attrs);
        let scores = predict_scores(&model, &tensors, &qv);
        let mut community =
            map.to_global(&select_k_by_scores(sub.graph(), &local, &scores, q.truth.len()));
        community.sort_unstable();
        community
    };

    let scorer = ModelScorer { model: &model };
    let mut told_apart = 0;
    for (i, q) in queries.iter().enumerate() {
        let outcome = run_interactive(&data.graph, &scorer, q, &cfg, i as u64);
        let expected = round0(q, config.adj_norm);
        assert_eq!(outcome.community, expected, "query {i}");
        if expected != round0(q, AdjNorm::GcnSym) {
            told_apart += 1;
        }
    }
    assert!(told_apart > 0, "no query's community depends on the normalization");
}
