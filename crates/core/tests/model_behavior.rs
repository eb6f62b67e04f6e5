//! Behavioural tests of the model layer: checkpointing, trait-object
//! training, parameter accounting, and fusion wiring.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdgnn_core::config::{FusionAgg, ModelConfig};
use qdgnn_core::inputs::{GraphTensors, QueryVectors};
use qdgnn_core::models::{predict_scores, AqdGnn, CsModel, QdGnn, SimpleQdGnn};
use qdgnn_core::train::{TrainConfig, Trainer};
use qdgnn_data::{presets, queries as qgen, AttrMode, QuerySplit};
use qdgnn_graph::attributed::AdjNorm;
use qdgnn_nn::Mode;
use qdgnn_tensor::Tape;

fn setup() -> (GraphTensors, qdgnn_data::Dataset) {
    let data = presets::toy();
    let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
    (t, data)
}

#[test]
fn checkpoint_restores_exact_predictions_after_further_training() {
    let (t, data) = setup();
    let queries = qgen::generate(&data, 40, 1, 2, AttrMode::Empty, 4);
    let split = QuerySplit::new(queries, 20, 10, 10);
    let mut model = QdGnn::new(ModelConfig::fast(), t.d);
    let q = QueryVectors::encode(t.n, t.d, &[0], &[]);

    let ckpt = model.checkpoint();
    let before = predict_scores(&model, &t, &q);

    // Train a bit (mutates parameters and BN running stats).
    let trained = Trainer::new(TrainConfig { epochs: 4, ..TrainConfig::fast() }).train(
        model,
        &t,
        &split.train,
        &split.val,
    );
    model = trained.model;
    let after_training = predict_scores(&model, &t, &q);
    assert_ne!(before, after_training, "training must change predictions");

    model.restore(&ckpt);
    let restored = predict_scores(&model, &t, &q);
    assert_eq!(before, restored, "restore must be exact");
}

#[test]
fn boxed_trait_object_trains_like_concrete_model() {
    let (t, data) = setup();
    let queries = qgen::generate(&data, 40, 1, 2, AttrMode::FromCommunity, 9);
    let split = QuerySplit::new(queries, 20, 10, 10);
    let cfg = TrainConfig { epochs: 5, ..TrainConfig::fast() };

    let concrete = Trainer::new(cfg.clone()).train(
        AqdGnn::new(ModelConfig::fast(), t.d),
        &t,
        &split.train,
        &split.val,
    );
    let boxed: Box<dyn CsModel> = Box::new(AqdGnn::new(ModelConfig::fast(), t.d));
    let boxed = Trainer::new(cfg).train(boxed, &t, &split.train, &split.val);

    assert_eq!(concrete.report.loss_history, boxed.report.loss_history);
    assert_eq!(concrete.gamma, boxed.gamma);
    assert!(boxed.model.uses_attributes());
}

#[test]
fn parameter_counts_match_architecture() {
    let (t, _) = setup();
    let h = 32;
    let cfg = ModelConfig { hidden: h, layers: 3, ..ModelConfig::fast() };
    let d = t.d;

    // Simple QD-GNN: per layer w_self + w_agg + b_agg (+2 BN params for
    // the 2 hidden layers), plus the 2-param output head.
    let simple = SimpleQdGnn::new(cfg.clone());
    assert_eq!(simple.store().len(), 3 * 3 + 2 * 2 + 2);

    // QD-GNN: two branches.
    let qd = QdGnn::new(cfg.clone(), d);
    assert_eq!(qd.store().len(), 2 * (3 * 3) + 2 * (2 * 2) + 2);

    // AQD-GNN: + A→N layers (2 params each, no self) and 2 N→A layers
    // (3 params each), + one more BN pair per hidden layer.
    let aqd = AqdGnn::new(cfg.clone(), d);
    let expected = 2 * (3 * 3)      // q, g branches
        + 3 * (2 * 2)               // BN γ/β for 3 branches × 2 hidden layers
        + 3 * 2                     // A→N layers (w_agg + b_agg)
        + 2 * 3                     // N→A layers (w_self + w_agg + b_agg)
        + 2; // output head
    assert_eq!(aqd.store().len(), expected);

    // Scalar counts grow with the vocabulary only in first-layer weights.
    let qd_scalars = qd.store().num_scalars();
    let qd_bigger = QdGnn::new(cfg, d + 10);
    assert_eq!(
        qd_bigger.store().num_scalars() - qd_scalars,
        10 * h * 2, // graph-encoder layer-1 w_self and w_agg
    );
}

#[test]
fn fusion_wiring_feeds_queries_through_attributes() {
    // With feature fusion ON, changing the query *vertex* must change the
    // attribute-encoder-dependent output even for a fixed attribute set —
    // because fused features flow into the Attribute Encoder (Eq. 12).
    let (t, data) = setup();
    let model = AqdGnn::new(ModelConfig::fast(), t.d);
    let attrs = data.graph.most_common_attrs(&data.communities[0], 3);
    let s1 = predict_scores(&model, &t, &QueryVectors::encode(t.n, t.d, &[0], &attrs));
    let s2 = predict_scores(&model, &t, &QueryVectors::encode(t.n, t.d, &[5], &attrs));
    assert_ne!(s1, s2);
}

#[test]
fn sum_fusion_trains_end_to_end() {
    let (t, data) = setup();
    let queries = qgen::generate(&data, 30, 1, 2, AttrMode::FromCommunity, 2);
    let split = QuerySplit::new(queries, 15, 8, 7);
    let cfg = ModelConfig { fusion: FusionAgg::Sum, ..ModelConfig::fast() };
    let trained = Trainer::new(TrainConfig { epochs: 10, ..TrainConfig::fast() }).train(
        AqdGnn::new(cfg, t.d),
        &t,
        &split.train,
        &split.val,
    );
    let m = qdgnn_core::OnlineStage::new(&trained.model, &t, trained.gamma).evaluate(&split.test);
    assert!(m.f1 > 0.0, "sum-fusion variant must still learn something");
}

#[test]
fn train_and_eval_modes_differ_only_through_bn_and_dropout() {
    let (t, _) = setup();
    // With dropout 0 and fresh BN (running stats = identity-ish), train
    // and eval modes still differ because train mode uses batch stats.
    let cfg = ModelConfig { dropout: 0.0, ..ModelConfig::fast() };
    let model = QdGnn::new(cfg, t.d);
    let q = QueryVectors::encode(t.n, t.d, &[1], &[]);
    let mut rng = StdRng::seed_from_u64(0);

    let mut tape = Tape::new();
    let train_out = model.forward(&mut tape, &t, &q, Mode::Train, &mut rng);
    let train_logits = tape.value(train_out.logits).clone();
    assert!(!train_out.bn_stats.is_empty());

    let mut tape = Tape::new();
    let eval_out = model.forward(&mut tape, &t, &q, Mode::Eval, &mut rng);
    assert!(eval_out.bn_stats.is_empty());
    let eval_logits = tape.value(eval_out.logits).clone();
    assert_ne!(
        train_logits.as_slice(),
        eval_logits.as_slice(),
        "batch statistics differ from fresh running statistics"
    );
}

#[test]
fn two_layer_and_four_layer_variants_run() {
    let (t, _) = setup();
    for layers in [2usize, 4] {
        let cfg = ModelConfig { layers, ..ModelConfig::fast() };
        let model = AqdGnn::new(cfg, t.d);
        let q = QueryVectors::encode(t.n, t.d, &[0], &[1]);
        let scores = predict_scores(&model, &t, &q);
        assert_eq!(scores.len(), t.n, "k={layers} forward must work");
        assert_eq!(model.bns().len(), 3 * (layers - 1));
    }
}
