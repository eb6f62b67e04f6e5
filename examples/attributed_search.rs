//! Attributed community search: AQD-GNN versus the ACQ and ATC
//! baselines under the paper's AFC and AFN query-attribute regimes —
//! the scenario of the paper's introduction, where "ML"/"DL"/"CV"-style
//! related attributes defeat exact-match methods.
//!
//! ```sh
//! cargo run --release -p qdgnn --example attributed_search
//! ```

use qdgnn::prelude::*;

fn evaluate_baseline(
    name: &str,
    method: &dyn CommunityMethod,
    data: &Dataset,
    test: &[Query],
) {
    let predicted: Vec<Vec<VertexId>> =
        test.iter().map(|q| method.search(&data.graph, q)).collect();
    let truth: Vec<Vec<VertexId>> = test.iter().map(|q| q.truth.clone()).collect();
    let m = CommunityMetrics::micro(&predicted, &truth);
    println!("  {name:<8}  F1 {:.3}  (precision {:.3}, recall {:.3})", m.f1, m.precision, m.recall);
}

fn main() {
    let data = qdgnn::data::presets::fb_414();
    println!("dataset: {}", data.stats_line());

    let config = ModelConfig { hidden: 48, ..ModelConfig::default() };
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);

    // Shared query vertex sets, two attribute regimes (§7.1.3).
    let bases = qdgnn::data::queries::generate_bases(&data, 160, 1, 3, 11);
    for (label, mode) in [
        ("AFC (attributes from community)", AttrMode::FromCommunity),
        ("AFN (attributes from query vertices)", AttrMode::FromNode),
    ] {
        println!("\n== {label} ==");
        let queries = qdgnn::data::queries::materialize(&data, &bases, mode);
        let split = QuerySplit::new(queries, 80, 40, 40);

        evaluate_baseline("ACQ", &Acq::new(), &data, &split.test);
        evaluate_baseline("ATC", &Atc::index(data.graph.graph()), &data, &split.test);

        let trainer = Trainer::new(TrainConfig { epochs: 60, ..TrainConfig::default() });
        let trained = trainer.train(
            AqdGnn::new(config.clone(), tensors.d),
            &tensors,
            &split.train,
            &split.val,
        );
        let m = OnlineStage::new(&trained.model, &tensors, trained.gamma).evaluate(&split.test);
        println!(
            "  AQD-GNN   F1 {:.3}  (precision {:.3}, recall {:.3})  γ={:.2}",
            m.f1, m.precision, m.recall, trained.gamma
        );
    }
}
