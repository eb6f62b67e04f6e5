//! `qdgnn-serve` — demo driver for the batching serving engine.
//!
//! Trains a bench-scale AQD-GNN on a preset dataset, stands up a
//! [`ServeEngine`] over the trained online stage, and fires a closed-loop
//! multi-client workload at it, reporting throughput and (with `--features
//! obs`) the engine's metrics snapshot.
//!
//! ```text
//! qdgnn-serve [--preset NAME] [--clients N] [--queries N]
//!             [--max-batch N] [--max-wait-us N] [--workers N]
//!             [--deadline-us N] [--overload]
//!             [--telemetry ADDR] [--linger-secs N]
//!             [--epochs N] [--seq] [--metrics]
//! ```
//!
//! `--seq` serves the same workload sequentially through the stage
//! (no engine, one query at a time) for an in-place comparison.
//!
//! `--deadline-us N` arms a per-request deadline: requests the engine
//! cannot serve within the budget are shed with a typed
//! `DeadlineExceeded` (reported as "shed", not failures). `--overload`
//! demos graceful degradation: it quadruples the client count and, if no
//! deadline was given, calibrates one to ~3 batches of measured service
//! time — expect a visible-but-partial shed rate while accepted
//! requests stay inside the budget.
//!
//! `--telemetry ADDR` binds the scrapeable telemetry listener
//! (`/metrics`, `/healthz`, `/traces`) on `ADDR` (e.g.
//! `127.0.0.1:9100`) for the life of the run; `--linger-secs N` keeps
//! the engine and listener up for N seconds after the workload drains,
//! so an external scraper can read the final counters before the clean
//! shutdown. Each client thread submits under its own tenant label
//! (`client-0`, `client-1`, …), so `/metrics` shows the per-tenant
//! `qdgnn_serve_tenant_request` breakdown.

#![allow(clippy::disallowed_methods, reason = "harness owns its stopwatch")]

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qdgnn_core::{AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage, TrainConfig, Trainer};
use qdgnn_data::{presets, queries as qgen, AttrMode, Dataset, Query, QuerySplit};
use qdgnn_graph::attributed::AdjNorm;
use qdgnn_serve::{ServeConfig, ServeEngine, ServeError, TelemetryServer};

struct Args {
    preset: String,
    clients: usize,
    queries: usize,
    epochs: usize,
    sequential: bool,
    metrics: bool,
    overload: bool,
    telemetry: Option<String>,
    linger_secs: u64,
    cfg: ServeConfig,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            preset: "cornell".to_string(),
            clients: 8,
            queries: 200,
            epochs: 10,
            sequential: false,
            metrics: false,
            overload: false,
            telemetry: None,
            linger_secs: 0,
            cfg: ServeConfig::default(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--preset" => args.preset = value("--preset")?,
                "--clients" => args.clients = parse_num(&value("--clients")?)?,
                "--queries" => args.queries = parse_num(&value("--queries")?)?,
                "--epochs" => args.epochs = parse_num(&value("--epochs")?)?,
                "--max-batch" => args.cfg.max_batch = parse_num(&value("--max-batch")?)?,
                "--max-wait-us" => args.cfg.max_wait_us = parse_num(&value("--max-wait-us")?)? as u64,
                "--workers" => args.cfg.workers = parse_num(&value("--workers")?)?,
                "--queue-capacity" => args.cfg.queue_capacity = parse_num(&value("--queue-capacity")?)?,
                "--deadline-us" => args.cfg.deadline_us = parse_num(&value("--deadline-us")?)? as u64,
                "--overload" => args.overload = true,
                "--seq" => args.sequential = true,
                "--metrics" => args.metrics = true,
                "--telemetry" => args.telemetry = Some(value("--telemetry")?),
                "--linger-secs" => args.linger_secs = parse_num(&value("--linger-secs")?)? as u64,
                "--help" | "-h" => {
                    println!(
                        "qdgnn-serve [--preset NAME] [--clients N] [--queries N] \
                         [--max-batch N] [--max-wait-us N] [--workers N] \
                         [--queue-capacity N] [--deadline-us N] [--overload] \
                         [--telemetry ADDR] [--linger-secs N] \
                         [--epochs N] [--seq] [--metrics]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.overload {
            // Overload demo: oversubscribe the engine. The deadline is
            // calibrated from measured service time after training (a
            // fixed number would be all-shed or no-shed depending on
            // the machine) unless --deadline-us pinned one explicitly.
            args.clients = (args.clients * 4).max(16);
        }
        Ok(args)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn preset_by_name(name: &str) -> Result<Dataset, String> {
    Ok(match name {
        "toy" => presets::toy(),
        "cornell" => presets::cornell(),
        "texas" => presets::texas(),
        "washington" => presets::washington(),
        "wisconsin" => presets::wisconsin(),
        "fb_414" => presets::fb_414(),
        "fb_686" => presets::fb_686(),
        "fb_107" => presets::fb_107(),
        other => return Err(format!("unknown preset {other}")),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("qdgnn-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let data = preset_by_name(&args.preset)?;
    println!(
        "preset {}: {} vertices, {} attributes",
        args.preset,
        data.graph.num_vertices(),
        data.graph.num_attrs()
    );

    let tensors = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
    let all = qgen::generate(&data, 60, 1, 3, AttrMode::FromCommunity, 17);
    let split = QuerySplit::new(all, 30, 15, 15);
    println!("training AQD-GNN ({} epochs)…", args.epochs);
    let t0 = Instant::now();
    let trained = Trainer::new(TrainConfig { epochs: args.epochs, ..TrainConfig::fast() }).train(
        AqdGnn::new(ModelConfig::fast(), tensors.d),
        &tensors,
        &split.train,
        &split.val,
    );
    println!(
        "trained in {:.1}s, gamma {:.3}, val F1 {:.3}",
        t0.elapsed().as_secs_f64(),
        trained.gamma,
        trained.report.best_val_f1
    );

    // Round-robin the test queries up to the requested workload size.
    let workload: Vec<Query> = split
        .test
        .iter()
        .cycle()
        .take(args.queries)
        .cloned()
        .collect();
    if workload.is_empty() {
        return Err("empty workload".to_string());
    }

    let model: Arc<dyn CsModel> = Arc::new(trained.model);
    let tensors = Arc::new(tensors);
    let stage = OnlineStage::new_shared(model, tensors, trained.gamma);

    let mut cfg = args.cfg.clone();
    if args.overload && cfg.deadline_us == 0 {
        // Calibrate the demo deadline to ~3 batches of measured service
        // time, so the oversubscribed closed loop sheds a visible-but-
        // partial fraction of the load on any machine.
        let probe: Vec<&Query> = workload.iter().take(32).collect();
        let t = Instant::now();
        let mut timed = 0usize;
        for q in &probe {
            if stage.try_query(q).is_ok() {
                timed += 1;
            }
        }
        let per_query_us = t.elapsed().as_micros() as u64 / timed.max(1) as u64;
        cfg.deadline_us = (3 * cfg.max_batch as u64 * per_query_us).max(2_000);
        println!(
            "overload: calibrated deadline {}µs (~3 batches at {}µs/query)",
            cfg.deadline_us, per_query_us
        );
    }

    if args.sequential {
        let t0 = Instant::now();
        let mut served = 0usize;
        for q in &workload {
            match stage.try_query(q) {
                Ok(_) => served += 1,
                Err(e) => eprintln!("query rejected: {e}"),
            }
        }
        report("sequential", served, 0, t0.elapsed());
        return Ok(());
    }

    println!(
        "engine: max_batch {}, max_wait {}µs, {} worker(s), {} client(s), deadline {}",
        cfg.max_batch,
        cfg.max_wait_us,
        cfg.workers,
        args.clients,
        if cfg.deadline_us == 0 {
            "off".to_string()
        } else {
            format!("{}µs", cfg.deadline_us)
        }
    );
    let engine = Arc::new(ServeEngine::new(stage, cfg.clone()).map_err(|e| e.to_string())?);
    let mut telemetry = match &args.telemetry {
        Some(addr) => {
            let server =
                TelemetryServer::start(Arc::clone(&engine), addr).map_err(|e| e.to_string())?;
            println!(
                "telemetry: http://{0}/metrics /healthz /traces (try `curl http://{0}/metrics`)",
                server.addr()
            );
            Some(server)
        }
        None => None,
    };
    // Each client thread submits under its own tenant label so the
    // per-tenant series shows up on /metrics.
    let deadline = (cfg.deadline_us > 0).then(|| Duration::from_micros(cfg.deadline_us));
    let served = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let clients = args.clients.max(1);
    let backoff_us = cfg.deadline_us.max(200);
    let t0 = Instant::now();
    let scope_result = crossbeam::thread::scope(|s| {
        for (c, chunk) in chunked(&workload, clients).into_iter().enumerate() {
            let engine = &engine;
            let served = &served;
            let rejected = &rejected;
            let shed = &shed;
            s.spawn(move |_| {
                let tenant = format!("client-{c}");
                for q in chunk {
                    // Closed loop with bounded retry on backpressure.
                    loop {
                        match engine.submit_labeled(q.clone(), Some(&tenant), deadline) {
                            Ok(pending) => {
                                match pending.wait() {
                                    Ok(_) => served.fetch_add(1, Ordering::Relaxed),
                                    // Deadline sheds are the engine doing
                                    // its job under overload, not errors.
                                    Err(ServeError::DeadlineExceeded { .. }) => {
                                        shed.fetch_add(1, Ordering::Relaxed)
                                    }
                                    Err(e) => {
                                        eprintln!("client {c}: query failed: {e}");
                                        rejected.fetch_add(1, Ordering::Relaxed)
                                    }
                                };
                                break;
                            }
                            Err(ServeError::DeadlineExceeded { .. }) => {
                                // Admission-tier shed: back off a deadline
                                // before re-offering, like a real client.
                                shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(backoff_us));
                                break;
                            }
                            Err(ServeError::QueueFull { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => {
                                eprintln!("client {c}: submit failed: {e}");
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    if scope_result.is_err() {
        return Err("client thread panicked".to_string());
    }
    let elapsed = t0.elapsed();
    if args.linger_secs > 0 {
        // Keep the engine (and the telemetry listener) up so an
        // external scraper can read the final counters before the
        // clean shutdown.
        println!("lingering {}s for scrapers…", args.linger_secs);
        std::thread::sleep(Duration::from_secs(args.linger_secs));
    }
    engine.shutdown();
    if let Some(server) = telemetry.as_mut() {
        server.shutdown();
        println!("telemetry: stopped");
    }
    report(
        "batched",
        served.load(Ordering::Relaxed),
        rejected.load(Ordering::Relaxed),
        elapsed,
    );
    let stats = engine.stats();
    println!(
        "shedding: {} shed at client ({} admission-tier, {} dequeue-tier), {} worker panic(s), {} breaker trip(s), degraded: {}",
        shed.load(Ordering::Relaxed),
        stats.shed_admission,
        stats.shed_deadline,
        stats.worker_panics,
        stats.breaker_trips,
        stats.degraded
    );

    if args.metrics {
        if qdgnn_obs::enabled() {
            println!("{}", qdgnn_obs::snapshot().to_json());
        } else {
            println!("(metrics requested but the obs feature is off; rebuild with --features obs)");
        }
    }
    Ok(())
}

/// Splits `items` into `parts` contiguous chunks (sizes differing by at
/// most one), for one chunk per client thread.
fn chunked(items: &[Query], parts: usize) -> Vec<&[Query]> {
    let per = items.len().div_ceil(parts.max(1)).max(1);
    items.chunks(per).collect()
}

fn report(mode: &str, served: usize, rejected: usize, elapsed: Duration) {
    let qps = served as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "{mode}: {served} served, {rejected} rejections/retries, {:.2}s total, {qps:.0} QPS",
        elapsed.as_secs_f64()
    );
}
