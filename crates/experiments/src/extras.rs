//! Extension ablations beyond the paper's §7.5: the design choices this
//! implementation had to make concrete.
//!
//! * **Aggregation normalization** — the paper's Eq. 4/5 say `SUM` "as
//!   Vanilla GCN does", and Vanilla GCN applies Laplacian smoothing; this
//!   ablation compares raw SUM, symmetric GCN normalization and mean
//!   aggregation (the [`AdjNorm`] choice).
//! * **Fusion aggregator** — the paper's Feature Fusion says
//!   "Concatenation, SUM, etc."; §7.1.6 picks concatenation. This
//!   ablation quantifies the gap.

use qdgnn_core::config::{FusionAgg, ModelConfig};
use qdgnn_core::models::AqdGnn;
use qdgnn_core::train::Trainer;
use qdgnn_core::GraphTensors;
use qdgnn_data::AttrMode;
use qdgnn_graph::attributed::AdjNorm;

use crate::harness::{self, DatasetContext};
use crate::profile::RunConfig;
use crate::table::ResultTable;

fn train_aqd_with(
    ctx: &DatasetContext,
    run: &RunConfig,
    mc: ModelConfig,
) -> f64 {
    // AdjNorm changes the tensors, so rebuild them from the model config.
    let tensors = GraphTensors::new(&ctx.dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap);
    let split = ctx.split_multi(AttrMode::FromCommunity, run);
    let trained = Trainer::new(run.profile.train_config(run.seed)).train(
        AqdGnn::new(mc, tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    harness::model_test_f1(&trained.model, &tensors, &split.test, trained.gamma)
}

/// Compares the three adjacency normalizations on AQD-GNN (AFC).
pub fn adj_norm_ablation(run: &RunConfig) -> ResultTable {
    let datasets = run.datasets();
    let mut columns: Vec<&str> = vec!["Aggregation"];
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    columns.extend(names.iter().map(String::as_str));
    let mut table =
        ResultTable::new("Extra ablation — adjacency normalization (AQD-GNN F1)", &columns);

    let variants: [(&str, AdjNorm); 3] = [
        ("GCN symmetric", AdjNorm::GcnSym),
        ("raw SUM", AdjNorm::Sum),
        ("mean", AdjNorm::Mean),
    ];
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for dataset in datasets {
        eprintln!("[adjnorm] {}", dataset.stats_line());
        let ctx = DatasetContext::prepare(dataset, run);
        for (i, (_, norm)) in variants.iter().enumerate() {
            let mc = ModelConfig { adj_norm: *norm, ..run.profile.model_config(run.seed) };
            scores[i].push(train_aqd_with(&ctx, run, mc));
        }
    }
    for ((label, _), row) in variants.iter().zip(&scores) {
        table.push_values(label, row, 3);
    }
    table
}

/// Empirical validation of the complexity analysis in §6.7: AQD-GNN's
/// per-epoch training cost and per-query online cost should both scale
/// linearly in `|E| + |E_B|` (for fixed layer count and width).
///
/// Generates graphs of doubling size and reports seconds/epoch,
/// ms/query, and the cost-per-edge ratio, which should stay roughly
/// flat.
pub fn complexity_scaling(run: &RunConfig) -> ResultTable {
    use std::time::Instant;

    let mut table = ResultTable::new(
        "Extra — §6.7 complexity validation (AQD-GNN cost vs |E|+|E_B|)",
        &["|V|", "|E|+|E_B|", "epoch(s)", "query(ms)", "µs/edge/epoch"],
    );
    let sizes: &[usize] = match run.profile {
        crate::profile::Profile::Fast => &[4, 8, 16],
        _ => &[4, 8, 16, 32],
    };
    for &k in sizes {
        let data = qdgnn_data::GeneratorConfig {
            num_communities: k,
            community_size_mean: 40.0,
            vocab_size: 120,
            topics_per_community: 20,
            attrs_per_vertex_mean: 8.0,
            seed: run.seed ^ k as u64,
            ..Default::default()
        }
        .generate(format!("scale-{k}"));
        let mc = ModelConfig { hidden: 32, ..run.profile.model_config(run.seed) };
        let tensors = GraphTensors::new(&data.graph, mc.adj_norm, mc.fusion_graph_attr_cap);
        let queries =
            qdgnn_data::queries::generate(&data, 24, 1, 3, AttrMode::FromCommunity, run.seed);
        let split = qdgnn_data::QuerySplit::new(queries, 16, 4, 4);

        // One-epoch training cost (averaged over 3 epochs).
        let t0 = Instant::now();
        let trained = Trainer::new(qdgnn_core::train::TrainConfig {
            epochs: 3,
            validate_every: 100,
            ..Default::default()
        })
        .train(AqdGnn::new(mc, tensors.d), &tensors, &split.train, &[]);
        let epoch_s = t0.elapsed().as_secs_f64() / 3.0;

        // Online query cost, through the served stage.
        let stage = qdgnn_core::OnlineStage::new(&trained.model, &tensors, 0.5);
        let (query_ms, _) = harness::time_queries(&split.test, |q| {
            stage.try_query(q).expect("generated queries are valid")
        });

        let edges = data.graph.graph().num_edges() + data.graph.bipartite_edge_count();
        table.push_row(vec![
            data.graph.num_vertices().to_string(),
            edges.to_string(),
            format!("{epoch_s:.3}"),
            format!("{query_ms:.2}"),
            format!("{:.2}", epoch_s * 1e6 / edges as f64),
        ]);
    }
    table
}

/// Compares concatenation against sum fusion on AQD-GNN (AFC).
pub fn fusion_agg_ablation(run: &RunConfig) -> ResultTable {
    let datasets = run.datasets();
    let mut columns: Vec<&str> = vec!["Fusion AGG"];
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    columns.extend(names.iter().map(String::as_str));
    let mut table =
        ResultTable::new("Extra ablation — fusion aggregator (AQD-GNN F1)", &columns);

    let variants: [(&str, FusionAgg); 3] = [
        ("Concatenation", FusionAgg::Concat),
        ("SUM", FusionAgg::Sum),
        ("Attention gates", FusionAgg::Attention),
    ];
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for dataset in datasets {
        eprintln!("[fusionagg] {}", dataset.stats_line());
        let ctx = DatasetContext::prepare(dataset, run);
        for (i, (_, agg)) in variants.iter().enumerate() {
            let mc = ModelConfig { fusion: *agg, ..run.profile.model_config(run.seed) };
            scores[i].push(train_aqd_with(&ctx, run, mc));
        }
    }
    for ((label, _), row) in variants.iter().zip(&scores) {
        table.push_values(label, row, 3);
    }
    table
}
