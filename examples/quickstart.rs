//! Quickstart: train QD-GNN on a synthetic graph and answer a community
//! search query online.
//!
//! ```sh
//! cargo run --release -p qdgnn --example quickstart
//! ```

#![allow(clippy::disallowed_methods, reason = "harness owns its stopwatch")]

use qdgnn::prelude::*;

fn main() {
    // 1. A synthetic attributed graph with planted ground-truth
    //    communities (a replica of the paper's Cornell dataset).
    let data = qdgnn::data::presets::cornell();
    println!("dataset: {}", data.stats_line());

    // 2. Precompute the query-independent tensors: normalized adjacency,
    //    attribute matrix, bipartite incidence, fusion graph.
    let config = ModelConfig { hidden: 64, ..ModelConfig::default() };
    let tensors = GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);

    // 3. Generate training/validation/test queries: 1–3 query vertices
    //    drawn from a ground-truth community, no query attributes (EmA).
    let queries = qdgnn::data::queries::generate(&data, 160, 1, 3, AttrMode::Empty, 7);
    let split = QuerySplit::new(queries, 80, 40, 40);

    // 4. Offline training stage (§4.2): BCE loss, Adam, batch size 4;
    //    best weights and threshold γ are selected on validation.
    let trainer = Trainer::new(TrainConfig { epochs: 60, ..TrainConfig::default() });
    let trained = trainer.train(QdGnn::new(config, tensors.d), &tensors, &split.train, &split.val);
    println!(
        "trained in {:.1}s, best validation F1 {:.3}, γ = {:.2}",
        trained.report.train_seconds, trained.report.best_val_f1, trained.gamma
    );

    // 5. Online query stage (§4.3): the Graph Encoder is cached once;
    //    each query costs one inference pass + constrained BFS.
    let stage = OnlineStage::new(&trained.model, &tensors, trained.gamma);
    let query = &split.test[0];
    let t0 = std::time::Instant::now();
    let community = stage.try_query(query).expect("test query is valid");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "query {:?} → community of {} vertices in {ms:.2} ms (truth: {})",
        query.vertices,
        community.len(),
        query.truth.len()
    );

    // 6. Evaluate on the whole held-out test set.
    let metrics = stage.evaluate(&split.test);
    println!(
        "test micro metrics: precision {:.3}  recall {:.3}  F1 {:.3}",
        metrics.precision, metrics.recall, metrics.f1
    );
}
