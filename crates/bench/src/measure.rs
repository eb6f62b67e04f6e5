//! Shared measurement driving for the `qdgnn-bench` binaries.
//!
//! Both the one-shot report writers (`qdgnn-bench serve`,
//! `qdgnn-bench-train`) and the regression gate (`qdgnn-bench compare`)
//! run the same measurement loops; the gate just asks for several
//! rounds. Expensive setup (dataset load, model training for the serve
//! bench) happens once per dataset and is shared across rounds, so a
//! 3-round compare costs far less than three full bench runs.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qdgnn_core::models::AqdGnn;
use qdgnn_core::{CsModel, GraphTensors, OnlineStage, Trainer};
use qdgnn_data::{AttrMode, Dataset, Query};
use qdgnn_obs::clock::MonotonicClock;
use qdgnn_obs::events::Event;
use qdgnn_obs::metrics::MetricsSnapshot;
use qdgnn_serve::{ServeConfig, ServeEngine};

use crate::report::{
    HistStats, OverloadStats, ServeDataset, ServeReport, ThroughputStats, TrainBenchReport,
    TrainDataset,
};
use crate::{bench_model_config, bench_queries, bench_train_config};

/// Serve repetitions per query inside one measurement round.
pub const SERVE_ROUNDS_PER_QUERY: usize = 5;

/// Chunk size of the batched throughput measurement.
pub const THROUGHPUT_BATCH: usize = 16;

/// Workload size (queries) of each throughput timing pass.
pub const THROUGHPUT_QUERIES: usize = 48;

/// Batch cap of the overload-scenario engine.
pub const OVERLOAD_BATCH: usize = 8;

/// Deadline budget of the overload scenario, in units of calibrated
/// per-batch service time: a request may wait three full batches.
pub const OVERLOAD_DEADLINE_BATCHES: f64 = 3.0;

/// Closed-loop clients driving the overload engine. The deadline can
/// sustain [`OVERLOAD_DEADLINE_BATCHES`]·[`OVERLOAD_BATCH`] outstanding
/// requests (both deadline and service time scale with 1/μ, so this is
/// machine-independent); twice that is a 2× overload, targeting a shed
/// rate near one half.
pub const OVERLOAD_CLIENTS: usize = 6 * OVERLOAD_BATCH;

/// Closed-loop submit cycles each overload client runs.
pub const OVERLOAD_CYCLES_PER_CLIENT: usize = 40;

/// The bench dataset suite (Fast-profile scale).
pub fn bench_datasets() -> Vec<Dataset> {
    vec![
        qdgnn_data::presets::fb_414(),
        qdgnn_data::presets::fb_686(),
        qdgnn_data::presets::cornell(),
        qdgnn_data::presets::texas(),
    ]
}

/// `--metrics-out` accumulator that survives the per-phase registry
/// resets the measurements need: events are drained into this buffer
/// before every reset, and [`EventLog::write`] emits them followed by
/// one final snapshot line — the JSONL shape `qdgnn-obs-validate`
/// checks. With no path configured every method is a no-op.
pub struct EventLog {
    path: Option<PathBuf>,
    events: Vec<Event>,
}

impl EventLog {
    /// Starts the log; event buffering turns on only when `path` is set.
    pub fn new(path: Option<PathBuf>) -> Self {
        if path.is_some() {
            qdgnn_obs::record_events(true);
        }
        EventLog { path, events: Vec::new() }
    }

    /// Drains buffered registry events, resets the registry, and re-arms
    /// event buffering (a plain `qdgnn_obs::reset()` turns it off).
    pub fn reset(&mut self) {
        if self.path.is_some() {
            self.events.extend(qdgnn_obs::take_events());
        }
        qdgnn_obs::reset();
        if self.path.is_some() {
            qdgnn_obs::record_events(true);
        }
    }

    /// Writes the accumulated event stream plus one final snapshot line.
    /// No-op (Ok) when no path was configured.
    pub fn write(mut self) -> io::Result<Option<PathBuf>> {
        let Some(path) = self.path.take() else { return Ok(None) };
        self.events.extend(qdgnn_obs::take_events());
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out.push_str(&qdgnn_obs::snapshot().to_json());
        out.push('\n');
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(&path, out)?;
        Ok(Some(path))
    }
}

fn hist_stats(snap: &MetricsSnapshot, name: &str) -> HistStats {
    snap.hist(name)
        .map(|h| HistStats { p50_us: h.p50, p95_us: h.p95, mean_us: h.mean() })
        .unwrap_or_default()
}

/// Runs the serving benchmark `measure_rounds` times, returning one
/// [`ServeReport`] per round. Training happens once per dataset; each
/// round then serves every test query [`SERVE_ROUNDS_PER_QUERY`] times
/// against a freshly reset registry.
pub fn measure_serve(measure_rounds: usize, log: &mut EventLog) -> Vec<ServeReport> {
    let mut rounds = measure_serve_on(&bench_datasets(), measure_rounds, log);
    for (round, overload) in rounds.iter_mut().zip(measure_overload(measure_rounds, log)) {
        round.overload = overload;
    }
    rounds
}

/// [`measure_serve`] over an explicit dataset list (the
/// `serve-throughput` smoke runs a small subset).
pub fn measure_serve_on(
    datasets: &[Dataset],
    measure_rounds: usize,
    log: &mut EventLog,
) -> Vec<ServeReport> {
    let mut rounds: Vec<ServeReport> = (0..measure_rounds)
        .map(|_| ServeReport {
            rounds_per_query: SERVE_ROUNDS_PER_QUERY as u64,
            datasets: Vec::new(),
            overload: OverloadStats::default(),
        })
        .collect();
    for dataset in datasets {
        eprintln!("[qdgnn-bench] {}: training...", dataset.name);
        let mc = bench_model_config();
        let tensors = GraphTensors::new(&dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap);
        let split = bench_queries(dataset, AttrMode::FromCommunity, 1, 3);
        let trained = Trainer::new(bench_train_config()).train(
            AqdGnn::new(mc, tensors.d),
            &tensors,
            &split.train,
            &split.val,
        );
        // Measure serving only: drop everything training recorded.
        log.reset();
        let stage = OnlineStage::new(&trained.model, &tensors, trained.gamma);
        for round in rounds.iter_mut() {
            for _ in 0..SERVE_ROUNDS_PER_QUERY {
                for q in &split.test {
                    let _ = stage.try_query(q).expect("bench query must be valid");
                }
            }
            let snap = qdgnn_obs::snapshot();
            // Throughput runs after the latency snapshot so its extra
            // queries never pollute the latency histograms above.
            let throughput = measure_throughput(&stage, &split.test);
            eprintln!(
                "[qdgnn-bench] {}: served {} queries, p50 {:.0}us p95 {:.0}us, {:.0} seq qps vs {:.0} batched qps (x{:.2})",
                dataset.name,
                snap.counter("serve.queries").unwrap_or(0),
                snap.hist("serve.query").map(|h| h.p50).unwrap_or(0.0),
                snap.hist("serve.query").map(|h| h.p95).unwrap_or(0.0),
                throughput.sequential_qps,
                throughput.batched_qps,
                throughput.speedup(),
            );
            round.datasets.push((
                dataset.name.clone(),
                ServeDataset {
                    queries_served: snap.counter("serve.queries").unwrap_or(0),
                    serve: hist_stats(&snap, "serve.query"),
                    encode: hist_stats(&snap, "serve.encode"),
                    forward: hist_stats(&snap, "serve.forward"),
                    bfs: hist_stats(&snap, "serve.bfs"),
                    community_size_mean: snap
                        .hist("serve.community_size")
                        .map(|h| h.mean())
                        .unwrap_or(0.0),
                    throughput,
                },
            ));
            log.reset();
        }
    }
    rounds
}

/// Runs the overload-degradation scenario `measure_rounds` times: a
/// `ServeEngine` over a bench-trained Cornell model, per-request
/// deadlines armed, driven by closed-loop clients deliberately
/// provisioned at 2× the concurrency the deadline can sustain, so a
/// predictable fraction of offered load must be shed. Two gated metrics
/// come out: the p99 latency of *accepted* requests (graceful
/// degradation means survivors stay inside roughly deadline + one batch)
/// and the shed rate.
///
/// The deadline is calibrated from a measured batched-throughput pass
/// ([`OVERLOAD_DEADLINE_BATCHES`] batches of service time), so the
/// overload *factor* — and with it the expected shed rate — is
/// machine-independent even though raw throughput is not.
pub fn measure_overload(measure_rounds: usize, log: &mut EventLog) -> Vec<OverloadStats> {
    let dataset = qdgnn_data::presets::cornell();
    eprintln!("[qdgnn-bench] {}: training for the overload scenario...", dataset.name);
    let mc = bench_model_config();
    let tensors =
        Arc::new(GraphTensors::new(&dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap));
    let split = bench_queries(&dataset, AttrMode::FromCommunity, 1, 3);
    let trained = Trainer::new(bench_train_config()).train(
        AqdGnn::new(mc, tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    let model: Arc<dyn CsModel> = Arc::new(trained.model);
    let gamma = trained.gamma;
    log.reset();

    // Calibrate service capacity μ (batched queries/second), then set
    // the deadline to OVERLOAD_DEADLINE_BATCHES batches of service
    // time. With OVERLOAD_CLIENTS at twice the outstanding requests
    // that deadline can sustain, closed-loop queue wait settles around
    // 2×deadline and roughly half the offered load must be shed —
    // regardless of how fast this machine is.
    let calib = OnlineStage::new_shared(Arc::clone(&model), Arc::clone(&tensors), gamma);
    let workload: Vec<Query> =
        split.test.iter().cycle().take(THROUGHPUT_QUERIES).cloned().collect();
    assert!(!workload.is_empty(), "overload scenario needs test queries");
    let (clock, t0) = (MonotonicClock::new(), Instant::now());
    for chunk in workload.chunks(OVERLOAD_BATCH) {
        for r in calib.try_query_batch(chunk, &clock).0 {
            let _ = r.expect("bench query must be valid");
        }
    }
    let mu = (workload.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9)).max(1.0);
    let deadline_us = ((OVERLOAD_DEADLINE_BATCHES * OVERLOAD_BATCH as f64 / mu) * 1e6)
        .round()
        .max(1_000.0) as u64;
    let clients = OVERLOAD_CLIENTS;
    eprintln!(
        "[qdgnn-bench] {}: overload calibration {:.0} qps -> {deadline_us}us deadline, {clients} closed-loop clients",
        dataset.name, mu
    );

    (0..measure_rounds)
        .map(|_| {
            let stage = OnlineStage::new_shared(Arc::clone(&model), Arc::clone(&tensors), gamma);
            let engine = Arc::new(
                ServeEngine::new(
                    stage,
                    ServeConfig {
                        max_batch: OVERLOAD_BATCH,
                        max_wait_us: 200,
                        queue_capacity: 2 * clients,
                        workers: 1,
                        deadline_us,
                        ..ServeConfig::default()
                    },
                )
                .expect("overload engine must start"),
            );
            let handles: Vec<_> = (0..clients)
                .map(|ci| {
                    let engine = Arc::clone(&engine);
                    let queries = split.test.clone();
                    std::thread::spawn(move || {
                        let (mut offered, mut accepted, mut shed) = (0u64, 0u64, 0u64);
                        let mut latencies_us: Vec<f64> = Vec::new();
                        for i in 0..OVERLOAD_CYCLES_PER_CLIENT {
                            let q = queries[(ci + i * 7) % queries.len()].clone();
                            offered += 1;
                            let t = Instant::now();
                            let outcome = engine.submit(q).and_then(|p| p.wait());
                            match outcome {
                                Ok(_) => {
                                    accepted += 1;
                                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                                }
                                Err(_) => {
                                    shed += 1;
                                    // Shed replies return fast (admission
                                    // tier is immediate); back off one
                                    // deadline so a rejected client does
                                    // not hot-loop and distort the
                                    // offered/shed ratio.
                                    std::thread::sleep(Duration::from_micros(deadline_us));
                                }
                            }
                        }
                        (offered, accepted, shed, latencies_us)
                    })
                })
                .collect();
            let (mut offered, mut accepted, mut shed) = (0u64, 0u64, 0u64);
            let mut latencies_us: Vec<f64> = Vec::new();
            for h in handles {
                let (o, a, s, lat) = h.join().expect("overload client must not panic");
                offered += o;
                accepted += a;
                shed += s;
                latencies_us.extend(lat);
            }
            engine.shutdown();
            let engine_stats = engine.stats();
            latencies_us.sort_by(|a, b| a.total_cmp(b));
            let p99_accepted_us = if latencies_us.is_empty() {
                0.0
            } else {
                let idx = ((latencies_us.len() - 1) as f64 * 0.99).round() as usize;
                latencies_us[idx.min(latencies_us.len() - 1)]
            };
            let shed_rate = if offered > 0 { shed as f64 / offered as f64 } else { 0.0 };
            eprintln!(
                "[qdgnn-bench] {}: overload offered {offered}, accepted {accepted}, shed {shed} ({:.0}% | admission {}, dequeue {}), p99 accepted {:.0}us",
                dataset.name,
                shed_rate * 100.0,
                engine_stats.shed_admission,
                engine_stats.shed_deadline,
                p99_accepted_us
            );
            log.reset();
            OverloadStats {
                dataset: dataset.name.clone(),
                deadline_us,
                offered,
                accepted,
                shed,
                shed_admission: engine_stats.shed_admission,
                shed_deadline: engine_stats.shed_deadline,
                worker_panics: engine_stats.worker_panics,
                p99_accepted_us,
                shed_rate,
            }
        })
        .collect()
}

/// Times the sequential and batched serving paths over one workload
/// (the test split cycled to [`THROUGHPUT_QUERIES`] queries), asserting
/// inline that batched scores carry the exact bits of sequential scores
/// before any timing. Both passes serve through the same cached stage,
/// so the comparison isolates the batching itself.
pub fn measure_throughput(stage: &OnlineStage<'_>, test_queries: &[Query]) -> ThroughputStats {
    let workload: Vec<Query> =
        test_queries.iter().cycle().take(THROUGHPUT_QUERIES).cloned().collect();
    if workload.is_empty() {
        return ThroughputStats::default();
    }
    // Bit-identity check on the first chunk — a throughput number for a
    // batched path that changed the answers would be meaningless.
    let first: Vec<Query> = workload.iter().take(THROUGHPUT_BATCH).cloned().collect();
    for (q, res) in first.iter().zip(stage.try_scores_batch(&first)) {
        let batched = res.expect("bench query must be valid");
        let sequential = stage.try_scores_batch(std::slice::from_ref(q)).remove(0);
        let sequential = sequential.expect("bench query must be valid");
        assert!(
            sequential.iter().zip(&batched).all(|(s, b)| s.to_bits() == b.to_bits()),
            "batched scores must be bit-identical to sequential"
        );
    }
    let t0 = Instant::now();
    for q in &workload {
        let _ = stage.try_query(q).expect("bench query must be valid");
    }
    let sequential_s = t0.elapsed().as_secs_f64();
    let (clock, t0) = (MonotonicClock::new(), Instant::now());
    for chunk in workload.chunks(THROUGHPUT_BATCH) {
        for r in stage.try_query_batch(chunk, &clock).0 {
            let _ = r.expect("bench query must be valid");
        }
    }
    let batched_s = t0.elapsed().as_secs_f64();
    let n = workload.len() as f64;
    ThroughputStats {
        batch_size: THROUGHPUT_BATCH as u64,
        sequential_qps: if sequential_s > 0.0 { n / sequential_s } else { 0.0 },
        batched_qps: if batched_s > 0.0 { n / batched_s } else { 0.0 },
    }
}

/// Runs the training benchmark `measure_rounds` times, returning one
/// [`TrainBenchReport`] per round. Each round trains a bench-scale
/// AQD-GNN from scratch per dataset and records epochs/sec (the obs
/// wall clock behind `train_seconds`) and the peak live tensor bytes
/// (the obs memory accounting's high watermark over the run).
pub fn measure_train(measure_rounds: usize, log: &mut EventLog) -> Vec<TrainBenchReport> {
    let mut rounds: Vec<TrainBenchReport> =
        (0..measure_rounds).map(|_| TrainBenchReport::default()).collect();
    for dataset in bench_datasets() {
        let mc = bench_model_config();
        let tensors = GraphTensors::new(&dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap);
        let split = bench_queries(&dataset, AttrMode::FromCommunity, 1, 3);
        for round in rounds.iter_mut() {
            // Peak restarts at the current live total, so the watermark
            // below is "live before training + training's own buffers".
            log.reset();
            let trained = Trainer::new(bench_train_config()).train(
                AqdGnn::new(bench_model_config(), tensors.d),
                &tensors,
                &split.train,
                &split.val,
            );
            let peak = qdgnn_obs::mem_peak_bytes();
            let epochs = trained.report.epochs_run as u64;
            let eps = if trained.report.train_seconds > 0.0 {
                epochs as f64 / trained.report.train_seconds
            } else {
                0.0
            };
            eprintln!(
                "[qdgnn-bench] {}: {} epochs at {:.2} epochs/s, peak {} live bytes",
                dataset.name, epochs, eps, peak
            );
            round.datasets.push((
                dataset.name.clone(),
                TrainDataset { epochs, epochs_per_sec: eps, peak_live_bytes: peak },
            ));
        }
    }
    log.reset();
    rounds
}
