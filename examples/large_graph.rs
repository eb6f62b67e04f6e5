//! ACS on a large graph (§7.4): the subgraph-training mechanism — each
//! query is served on a 1–2-hop fusion-graph candidate subgraph, so
//! neither training nor inference ever touches the full graph.
//!
//! ```sh
//! cargo run --release -p qdgnn --example large_graph
//! ```

#![allow(clippy::disallowed_methods, reason = "harness owns its stopwatch")]

use std::time::Instant;

use qdgnn::core::subgraph::{evaluate_subgraph, predict_community_subgraph};
use qdgnn::prelude::*;

fn main() {
    // A scaled-down Reddit-like graph (50 communities at 1/8 scale would
    // be the paper profile; this example uses a laptop-friendly size).
    let data = GeneratorConfig {
        num_communities: 15,
        community_size_mean: 200.0,
        community_size_jitter: 0.4,
        intra_degree: 8.0,
        inter_degree: 4.0,
        vocab_size: 602,
        topics_per_community: 60,
        attrs_per_vertex_mean: 30.0,
        seed: 0x4EDD17,
        ..Default::default()
    }
    .generate("Reddit-mini");
    println!("dataset: {}", data.stats_line());

    let config = ModelConfig { hidden: 48, ..ModelConfig::default() };
    let queries = qdgnn::data::queries::generate(&data, 70, 1, 1, AttrMode::FromCommunity, 3);
    let split = QuerySplit::new(queries, 40, 15, 15);

    // Candidates are 1–2-hop balls of the fusion graph, walked without
    // building it. Attributes held by more vertices than the cap add no
    // edges, so when every attribute is over the cap the candidates are
    // structure-only balls.
    let fusion = data.graph.fusion(config.fusion_graph_attr_cap);
    println!(
        "fusion graph (cap {}): {} attributes link their holders, {} are over the cap",
        config.fusion_graph_attr_cap,
        fusion.num_linking_attrs(),
        fusion.num_attrs_over_cap()
    );

    // Train on per-query candidate subgraphs.
    let sub_cfg = SubgraphConfig::default();
    let trainer = SubgraphTrainer::new(
        TrainConfig { epochs: 40, ..TrainConfig::default() },
        sub_cfg.clone(),
    );
    let t0 = Instant::now();
    let trained = trainer.train(
        AqdGnn::new(config, data.graph.num_attrs()),
        &data.graph,
        &split.train,
        &split.val,
    );
    println!(
        "subgraph training: {:.1}s, best validation F1 {:.3}, γ={:.2}",
        t0.elapsed().as_secs_f64(),
        trained.report.best_val_f1,
        trained.gamma
    );

    // Online queries never touch the full graph.
    let q = &split.test[0];
    let t0 = Instant::now();
    let community =
        predict_community_subgraph(&trained.model, &data.graph, q, trained.gamma, &sub_cfg)
            .expect("test query is valid");
    println!(
        "query {:?} → {} vertices in {:.2} ms",
        q.vertices,
        community.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let metrics = evaluate_subgraph(
        &trained.model,
        &data.graph,
        &split.test,
        trained.gamma,
        &sub_cfg,
    );
    println!(
        "test micro metrics: precision {:.3}  recall {:.3}  F1 {:.3}",
        metrics.precision, metrics.recall, metrics.f1
    );
}
