//! End-to-end integration: offline training + online query for all three
//! models, exactly as a library user would drive them.

use qdgnn::prelude::*;

fn toy_split(mode: AttrMode) -> (Dataset, GraphTensors, QuerySplit) {
    let data = qdgnn::data::presets::toy();
    let config = ModelConfig::fast();
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let queries = qdgnn::data::queries::generate(&data, 60, 1, 2, mode, 17);
    let split = QuerySplit::new(queries, 30, 15, 15);
    (data, tensors, split)
}

fn fast_trainer(epochs: usize) -> Trainer {
    Trainer::new(TrainConfig { epochs, ..TrainConfig::fast() })
}

#[test]
fn qdgnn_full_pipeline_beats_trivial_baseline() {
    let (_, tensors, split) = toy_split(AttrMode::Empty);
    let trained = fast_trainer(30).train(
        QdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    let metrics = OnlineStage::new(&trained.model, &tensors, trained.gamma).evaluate(&split.test);

    // Trivial baseline: answer only the query vertices.
    let trivial: Vec<Vec<VertexId>> = split.test.iter().map(|q| q.vertices.clone()).collect();
    let truth: Vec<Vec<VertexId>> = split.test.iter().map(|q| q.truth.clone()).collect();
    let trivial_f1 = CommunityMetrics::micro(&trivial, &truth).f1;

    assert!(
        metrics.f1 > trivial_f1 + 0.15,
        "QD-GNN ({:.3}) must clearly beat query-echo ({:.3})",
        metrics.f1,
        trivial_f1
    );
}

#[test]
fn aqdgnn_attributed_pipeline_works() {
    let (_, tensors, split) = toy_split(AttrMode::FromCommunity);
    let trained = fast_trainer(30).train(
        AqdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    let metrics = OnlineStage::new(&trained.model, &tensors, trained.gamma).evaluate(&split.test);
    assert!(metrics.f1 > 0.5, "AQD-GNN should learn toy communities, got {:.3}", metrics.f1);
    assert!(metrics.precision > 0.0 && metrics.recall > 0.0);
}

#[test]
fn simple_model_full_pipeline_runs() {
    let (_, tensors, split) = toy_split(AttrMode::Empty);
    let trained = fast_trainer(20).train(
        SimpleQdGnn::new(ModelConfig::fast()),
        &tensors,
        &split.train,
        &split.val,
    );
    let stage = OnlineStage::new(&trained.model, &tensors, trained.gamma);
    for q in &split.test {
        let c = stage.try_query(q).expect("test query is valid");
        for v in &q.vertices {
            assert!(c.contains(v), "query vertex must be in its community");
        }
    }
}

#[test]
fn predicted_communities_are_connected_with_queries() {
    let (data, tensors, split) = toy_split(AttrMode::Empty);
    let trained = fast_trainer(15).train(
        QdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    for q in &split.test {
        if q.vertices.len() > 1 {
            continue; // multi-vertex queries may legitimately split
        }
        let c = OnlineStage::new(&trained.model, &tensors, trained.gamma)
            .try_query(q)
            .expect("test query is valid");
        assert!(
            qdgnn::graph::traversal::is_connected_subset(data.graph.graph(), &c),
            "single-vertex query answer must be connected"
        );
    }
}

#[test]
fn training_is_reproducible_bitwise() {
    let (_, tensors, split) = toy_split(AttrMode::Empty);
    let run = || {
        let trained = fast_trainer(8).train(
            QdGnn::new(ModelConfig::fast(), tensors.d),
            &tensors,
            &split.train,
            &split.val,
        );
        (trained.report.loss_history.clone(), trained.gamma)
    };
    assert_eq!(run(), run());
}

#[test]
fn gamma_selected_from_validation_grid() {
    let (_, tensors, split) = toy_split(AttrMode::Empty);
    let cfg = TrainConfig { epochs: 10, gamma_grid: vec![0.25, 0.5], ..TrainConfig::fast() };
    let trained = Trainer::new(cfg).train(
        QdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    assert!(trained.gamma == 0.25 || trained.gamma == 0.5);
    assert!(!trained.report.val_history.is_empty());
}

/// One validation query for [`reference_sweep`]: the graph it is answered
/// on, the query in that graph's ids, and the map to global ids for a
/// §7.4 candidate.
type RefItem = (GraphTensors, Query, Option<qdgnn::graph::graph::Subgraph>);

/// The γ sweep rebuilt from the tape reference: `predict_scores` per
/// query, then `identify_community` per threshold (fusion graph for an
/// attributed model with query attributes), answers mapped to global ids;
/// the first γ with the best micro-F1 wins.
fn reference_sweep(model: &dyn CsModel, items: &[RefItem], val: &[Query], grid: &[f32]) -> (f32, f64) {
    let scored: Vec<Vec<f32>> = items
        .iter()
        .map(|(t, q, _)| {
            let attrs: &[u32] = if model.uses_attributes() { &q.attrs } else { &[] };
            predict_scores(model, t, &QueryVectors::encode(t.n, t.d, &q.vertices, attrs))
        })
        .collect();
    let truth: Vec<Vec<VertexId>> = val.iter().map(|q| q.truth.clone()).collect();
    let mut best = (grid[0], -1.0f64);
    for &gamma in grid {
        let predicted: Vec<Vec<VertexId>> = items
            .iter()
            .zip(&scored)
            .map(|((t, q, map), scores)| {
                let attributed = model.uses_attributes() && !q.attrs.is_empty();
                let local = identify_community(t, &q.vertices, scores, gamma, attributed);
                let Some(map) = map else { return local };
                let mut global = map.to_global(&local);
                global.sort_unstable();
                global
            })
            .collect();
        let f1 = CommunityMetrics::micro(&predicted, &truth).f1;
        if f1 > best.1 {
            best = (gamma, f1);
        }
    }
    (best.0, best.1.max(0.0))
}

/// Validation scores through the serving executor, yet picks exactly the
/// `(γ, F1)` the tape reference would, bit for bit: on the whole graph
/// for `train`, `resume_from` and `update`, and on §7.4 candidates for
/// the subgraph trainer, for all three models.
#[test]
fn validation_sweep_matches_the_reference_forward() {
    use qdgnn::core::subgraph::{extract_candidate, SubgraphConfig};

    let (data, tensors, split) = toy_split(AttrMode::FromCommunity);
    let grid = TrainConfig::fast().gamma_grid;
    let whole: Vec<RefItem> =
        split.val.iter().map(|q| (tensors.clone(), q.clone(), None)).collect();
    let dir = std::env::temp_dir().join(format!("qdgnn_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let build = |kind: usize| -> Box<dyn CsModel> {
        match kind {
            0 => Box::new(SimpleQdGnn::new(ModelConfig::fast())),
            1 => Box::new(QdGnn::new(ModelConfig::fast(), tensors.d)),
            _ => Box::new(AqdGnn::new(ModelConfig::fast(), tensors.d)),
        }
    };
    let cfg = TrainConfig { epochs: 6, validate_every: 2, ..TrainConfig::fast() };
    for kind in 0..3 {
        let check = |what: &str, trained: &TrainedModel<Box<dyn CsModel>>, items: &[RefItem]| {
            let (gamma, f1) = reference_sweep(trained.model.as_ref(), items, &split.val, &grid);
            let name = trained.model.name();
            assert_eq!(trained.gamma.to_bits(), gamma.to_bits(), "{name} {what}: γ");
            assert_eq!(trained.report.best_gamma.to_bits(), gamma.to_bits(), "{name} {what}: γ");
            assert_eq!(trained.report.best_val_f1.to_bits(), f1.to_bits(), "{name} {what}: F1");
        };

        let trained = Trainer::new(cfg.clone()).train(build(kind), &tensors, &split.train, &split.val);
        check("train", &trained, &whole);

        let ckpt = dir.join(format!("model{kind}.ckpt"));
        let with_ckpt = TrainConfig { checkpoint_path: Some(ckpt.clone()), checkpoint_every: 3, ..cfg.clone() };
        Trainer::new(TrainConfig { epochs: 3, ..with_ckpt.clone() })
            .train(build(kind), &tensors, &split.train, &split.val);
        let resumed = Trainer::new(with_ckpt)
            .resume_from(&ckpt, build(kind), &tensors, &split.train, &split.val)
            .expect("checkpoint loads");
        check("resume_from", &resumed, &whole);

        // A warm-started update either keeps its best sweep or restores
        // the original weights at their γ; either way the reference sweep
        // of the returned model must reproduce its (γ, F1).
        let updated = Trainer::new(cfg.clone()).update(
            trained,
            &tensors,
            &split.train[..15],
            &split.train[15..],
            &split.val,
        );
        check("update", &updated, &whole);

        let sub_cfg = SubgraphConfig::default();
        let model = build(kind);
        let candidates: Vec<RefItem> = split
            .val
            .iter()
            .map(|q| {
                let c = extract_candidate(&data.graph, q, model.config(), &sub_cfg);
                (c.tensors, c.local_query, Some(c.map))
            })
            .collect();
        let trained = SubgraphTrainer::new(cfg.clone(), sub_cfg)
            .train(model, &data.graph, &split.train, &split.val);
        check("subgraph train", &trained, &candidates);
    }
}
