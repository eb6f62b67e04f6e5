//! Table 2: average online query time (milliseconds) of every method.
//!
//! Classical methods are timed end-to-end per query; the learned model is
//! timed over its *online stage only* (one query-branch inference pass
//! against the cached Graph Encoder + constrained BFS, as served), its
//! training having happened offline — exactly the separation the paper's
//! framework introduces.

use qdgnn_baselines::{Acq, Atc, CommunityMethod, Ctc, KEcc};
use qdgnn_core::OnlineStage;
use qdgnn_data::AttrMode;

use crate::harness::{self, DatasetContext};
use crate::profile::RunConfig;
use crate::table::ResultTable;

/// Runs the experiment; one row per method, trailing `Average` column.
pub fn run(run: &RunConfig) -> ResultTable {
    let datasets = run.datasets();
    let mut columns: Vec<&str> = vec!["Method"];
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    columns.extend(names.iter().map(String::as_str));
    columns.push("Average");
    let mut table = ResultTable::new("Table 2 — Average query time (ms)", &columns);

    const ROWS: [&str; 5] = ["CTC", "ECC", "ACQ", "ATC", "AQD-GNN"];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); ROWS.len()];

    for dataset in datasets {
        eprintln!("[table2] {}", dataset.stats_line());
        let ctx = DatasetContext::prepare(dataset, run);
        let ema = ctx.split_multi(AttrMode::Empty, run);
        let afc_multi = ctx.split_multi(AttrMode::FromCommunity, run);
        let afc_single = ctx.split_single(AttrMode::FromCommunity, run);

        let ctc = Ctc::index(ctx.dataset.graph.graph());
        times[0].push(harness::time_queries(&ema.test, |q| ctc.search(&ctx.dataset.graph, q)).0);

        let ecc = KEcc::new();
        times[1].push(harness::time_queries(&ema.test, |q| ecc.search(&ctx.dataset.graph, q)).0);

        let acq = Acq::new();
        times[2].push(
            harness::time_queries(&afc_single.test, |q| acq.search(&ctx.dataset.graph, q)).0,
        );

        let atc = Atc::index(ctx.dataset.graph.graph());
        times[3].push(
            harness::time_queries(&afc_multi.test, |q| atc.search(&ctx.dataset.graph, q)).0,
        );

        // AQD-GNN: train offline, build the serving stage (Graph Encoder
        // cache included) untimed, then time its online answers.
        let aqd = harness::train_aqd(&ctx, run, &afc_multi);
        let stage = OnlineStage::new(&aqd.model, &ctx.tensors, aqd.gamma);
        times[4].push(
            harness::time_queries(&afc_multi.test, |q| {
                stage.try_query(q).expect("generated queries are valid")
            })
            .0,
        );
    }

    for (method, row) in ROWS.iter().zip(&times) {
        let avg = row.iter().sum::<f64>() / row.len().max(1) as f64;
        let mut values = row.clone();
        values.push(avg);
        table.push_values(method, &values, 2);
    }
    table
}
