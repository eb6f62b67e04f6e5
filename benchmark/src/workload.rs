//! The four workloads and the run that measures one of them.
//!
//! A run trains the served model, sets the engine up several times
//! (timed), checks every distinct query of the seeded stream against the
//! reference forward, then drives the engine for the requested seconds
//! with the obs layer compiled out. A traced run also times training, and
//! replays the stream layer by layer with a bench-side span around each
//! public call.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qdgnn_core::models::{predict_scores_batch, predict_scores_cached};
use qdgnn_core::train::predict_community;
use qdgnn_core::{
    identify_community, AqdGnn, CsModel, GraphTensors, ModelConfig, OnlineStage, QueryBatch,
    QueryVectors, TrainConfig, Trainer,
};
use qdgnn_data::{presets, queries as qgen, AttrMode, Dataset, Query, QuerySplit};
use qdgnn_graph::{CommunityMetrics, VertexId};
use qdgnn_serve::{ServeConfig, ServeEngine};
use qdgnn_tensor::Dense;

use crate::load::{self, Phase, SplitMix64};
use crate::report::{Metric, Report};
use crate::spans::Tracer;
use crate::stats::{self, Dist};

/// Seed of the fixed training split, so the model never depends on
/// `--seed`.
pub const TRAIN_SPLIT_SEED: u64 = 0xBE7C;
/// γ of the untrained model served by `reddit-light`.
pub const UNTRAINED_GAMMA: f32 = 0.5;
/// Set-ups in each of a run's two set-up rounds: at least `SETUP_MIN`,
/// then more until `SETUP_BUDGET` has passed, at most `SETUP_MAX`.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 1000;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Trainings per traced run: one, then more until `TRAIN_BUDGET` has
/// passed.
const TRAIN_BUDGET: Duration = Duration::from_secs(3);
const TRAIN_MAX: usize = 20;
/// Repetitions of each timed kernel and of the K = 16 batch.
const REPEAT_BUDGET: Duration = Duration::from_millis(300);
const REPEAT_MIN: usize = 5;
const REPEAT_MAX: usize = 2000;
/// Queries stacked by the batched-forward measurement.
const BATCH: usize = 16;
/// Width of the dense operand of the kernel measurements (= hidden).
const KERNEL_COLS: usize = 32;
/// Untimed queries the obs probe serves before timing.
const PROBE_WARMUP: usize = 3;
/// Where a traced run writes its spans and the probe's model file,
/// relative to the working directory.
pub const OUT_DIR: &str = "target/bench";

/// The model hyper-parameters of the repository's bench fixtures
/// (`qdgnn_bench::bench_model_config`).
pub fn model_config() -> ModelConfig {
    ModelConfig {
        hidden: 32,
        ..ModelConfig::default()
    }
}

/// How a workload loads the engine.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// One closed-loop client: submit, wait, repeat.
    Closed,
    /// Seeded Poisson arrivals from one sender thread: a `moderate`
    /// phase at [`MODERATE_RPS`] (the first 40% of the run) gives the
    /// latencies, an `overload` phase at [`OVERLOAD_RPS`] (the rest) the
    /// throughput, counted after [`OVERLOAD_WARMUP`] of it. Every request
    /// carries [`OPEN_DEADLINE_US`].
    Open,
}

/// Arrival rate of the open loop's moderate phase: batches of two or
/// three form, and the worker stays mostly idle.
pub const MODERATE_RPS: f64 = 250.0;
/// Arrival rate of the overload phase, about twice what FB-414 answers.
/// A higher rate adds sender and collector work that competes with the
/// worker for the machine's two cores, and makes the capacity noisier.
pub const OVERLOAD_RPS: f64 = 3000.0;
/// Share of the overload phase left out of `throughput_rps`: the queue
/// fills, and the first seconds run measurably slower than the rest.
pub const OVERLOAD_WARMUP: f64 = 0.15;
/// Per-request deadline of the open loop.
pub const OPEN_DEADLINE_US: u64 = 20_000;

/// What training a workload times, and which model it serves.
#[derive(Clone, Copy, Debug)]
pub struct Training {
    /// Epochs per training.
    pub epochs: usize,
    /// Train and validation queries taken from the fixed split.
    pub split: (usize, usize),
    /// Serve the trained model; otherwise serve the untrained seeded
    /// model at [`UNTRAINED_GAMMA`], and train only in a traced run, to
    /// time it.
    pub serve_trained: bool,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The graph.
    pub dataset: fn() -> Dataset,
    /// How the served model is trained, and what a traced run times.
    pub training: Training,
    /// Distinct queries in the served stream.
    pub stream_len: usize,
    /// Requests the traced pass replays.
    pub traced_requests: usize,
    /// Percentile reported as `latency_tail_ms`.
    pub tail_pct: f64,
    /// How load is offered.
    pub load: Load,
}

impl Workload {
    fn serve_config(&self) -> ServeConfig {
        match self.load {
            Load::Closed => ServeConfig::default(),
            Load::Open => ServeConfig {
                deadline_us: OPEN_DEADLINE_US,
                ..ServeConfig::default()
            },
        }
    }
}

/// The benchmark's workloads. `smoke` swaps every graph for the toy
/// preset and shrinks the streams, for a fast test of each code path.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let trained = Training {
        epochs: 6,
        split: (30, 15),
        serve_trained: true,
    };
    let fb414_light = Workload {
        name: "fb414-light",
        dataset: presets::fb_414,
        training: trained,
        stream_len: 200,
        traced_requests: 500,
        tail_pct: 95.0,
        load: Load::Closed,
    };
    let all = [
        fb414_light,
        Workload {
            name: "cora-light",
            dataset: presets::cora,
            traced_requests: 200,
            ..fb414_light
        },
        Workload {
            name: "reddit-light",
            dataset: presets::reddit,
            training: Training {
                epochs: 1,
                split: (4, 2),
                serve_trained: false,
            },
            stream_len: 12,
            traced_requests: 30,
            tail_pct: 75.0,
            ..fb414_light
        },
        Workload {
            name: "fb414-open",
            load: Load::Open,
            ..fb414_light
        },
    ];
    all.into_iter()
        .map(|w| {
            if smoke {
                Workload {
                    dataset: presets::toy,
                    stream_len: w.stream_len.min(24),
                    traced_requests: w.traced_requests.min(12),
                    ..w
                }
            } else {
                w
            }
        })
        .collect()
}

/// Run settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of the served stream and the arrival schedule.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// The obs-enabled build of this binary, for `obs.enabled_overhead_pct`.
    pub obs_bin: Option<PathBuf>,
    /// Toy graphs (see [`workloads`]) and no repetitions beyond the
    /// minimum, for a fast test of every code path.
    pub smoke: bool,
}

impl Options {
    /// `budget`, or zero in a smoke run.
    fn budget(&self, budget: Duration) -> Duration {
        if self.smoke {
            Duration::ZERO
        } else {
            budget
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Calls `f` at least `min` times, then until `budget` has passed, at
/// most `max` times.
fn repeat(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < max && (n < min || start.elapsed() < budget) {
        f();
        n += 1;
    }
}

fn tensors_for(dataset: &Dataset) -> GraphTensors {
    let mc = model_config();
    GraphTensors::new(&dataset.graph, mc.adj_norm, mc.fusion_graph_attr_cap)
}

/// Returns the served model and its γ, and the seconds per epoch of
/// every training timed. A served model is trained once; a traced run
/// trains again until [`TRAIN_BUDGET`] for `train.epoch_s`, and trains a
/// throwaway model when the served one is untrained.
fn train(w: &Workload, o: &Options, dataset: &Dataset) -> (Arc<dyn CsModel>, f32, Dist) {
    let tensors = tensors_for(dataset);
    let mut epoch_s = Vec::new();
    let mut first = None;
    if w.training.serve_trained || o.trace {
        let queries = qgen::generate(dataset, 60, 1, 3, AttrMode::FromCommunity, TRAIN_SPLIT_SEED);
        let (n_train, n_val) = w.training.split;
        let split = QuerySplit::new(queries, n_train, n_val, 0);
        let trainer = Trainer::new(TrainConfig {
            epochs: w.training.epochs,
            validate_every: 6,
            gamma_grid: vec![0.3, 0.5, 0.7],
            ..TrainConfig::default()
        });
        let budget = if o.trace {
            o.budget(TRAIN_BUDGET)
        } else {
            Duration::ZERO
        };
        repeat(1, TRAIN_MAX, budget, || {
            let t = Instant::now();
            let trained = trainer.train(
                AqdGnn::new(model_config(), tensors.d),
                &tensors,
                &split.train,
                &split.val,
            );
            epoch_s.push(t.elapsed().as_secs_f64() / trained.report.epochs_run.max(1) as f64);
            first.get_or_insert(trained);
        });
    }
    let (model, gamma) = match first {
        Some(trained) if w.training.serve_trained => (trained.model, trained.gamma),
        _ => (AqdGnn::new(model_config(), tensors.d), UNTRAINED_GAMMA),
    };
    (Arc::new(model), gamma, Dist::new(epoch_s))
}

/// Timings of every serving set-up of a run.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    tensors_ms: Vec<f64>,
    cache_ms: Vec<f64>,
}

/// Serving set-up — tensors, stage with its graph cache, engine — done
/// repeatedly so its median is steady, with every timing added to
/// `times`. Returns the last engine and its tensors.
fn set_up(
    o: &Options,
    dataset: &Dataset,
    model: &Arc<dyn CsModel>,
    gamma: f32,
    cfg: &ServeConfig,
    times: &mut SetupTimes,
) -> Result<(ServeEngine, Arc<GraphTensors>), String> {
    let mut last = None;
    let mut failure = None;
    repeat(SETUP_MIN, SETUP_MAX, o.budget(SETUP_BUDGET), || {
        // Dropping the previous engine joins its worker before timing.
        last = None;
        let t0 = Instant::now();
        let tensors = Arc::new(tensors_for(dataset));
        let t1 = Instant::now();
        let stage = OnlineStage::new_shared(Arc::clone(model), Arc::clone(&tensors), gamma);
        let t2 = Instant::now();
        match ServeEngine::new(stage, cfg.clone()) {
            Ok(engine) => {
                times.total_s.push(t0.elapsed().as_secs_f64());
                times.tensors_ms.push(ms(t1 - t0));
                times.cache_ms.push(ms(t2 - t1));
                last = Some((engine, tensors));
            }
            Err(e) => failure = Some(format!("engine failed to start: {e}")),
        }
    });
    match failure {
        Some(e) => Err(e),
        None => last.ok_or_else(|| "no set-up ran".to_string()),
    }
}

/// A phase's outcome after its checks.
struct Checked {
    phase: Phase,
    shed_admission: u64,
    shed_deadline: u64,
}

/// Runs one phase between two engine snapshots, applies the tally,
/// shed and answer checks, and books the phase into `report`.
fn checked(
    report: &mut Report,
    name: &str,
    engine: &ServeEngine,
    f: impl FnOnce() -> Phase,
) -> Checked {
    let before = engine.stats();
    let phase = f();
    let after = engine.stats();
    for check in [
        load::check_tally(&phase),
        load::check_sheds(&phase, &before, &after),
        load::check_answers(&phase),
    ] {
        if let Err(e) = check {
            report.problems.push(format!("{name}: {e}"));
        }
    }
    report.attempted += phase.offered;
    report.failed += phase.errors + phase.wrong;
    Checked {
        phase,
        shed_admission: after.shed_admission - before.shed_admission,
        shed_deadline: after.shed_deadline - before.shed_deadline,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Measures workload `w`.
pub fn run(w: &Workload, o: &Options) -> Result<Report, String> {
    // The engine tunes the allocator on its first batch. Doing it first
    // puts every timed phase in that state; otherwise each set-up
    // re-faults ~64 trimmed pages, whose cost swings 2x on a shared VM.
    qdgnn_tensor::tune_for_batch_serving();
    let dataset = (w.dataset)();
    let mut report = Report {
        workload: w.name.to_string(),
        ..Report::default()
    };

    let (model, gamma, epoch_s) = train(w, o, &dataset);
    // Half the set-ups run before the timed phase and half after it, so
    // one slow stretch of a shared machine cannot hold all of them.
    let cfg = w.serve_config();
    let setup_round = |times: &mut SetupTimes| set_up(o, &dataset, &model, gamma, &cfg, times);
    let mut setups = SetupTimes::default();
    let (engine, tensors) = setup_round(&mut setups)?;

    let stream = load::stream(&dataset, w.stream_len, o.seed);
    let reference: Vec<Vec<VertexId>> = stream
        .iter()
        .map(|q| predict_community(model.as_ref(), &tensors, q, gamma))
        .collect();
    let truth: Vec<Vec<VertexId>> = stream.iter().map(|q| q.truth.clone()).collect();
    let f1 = CommunityMetrics::micro(&reference, &truth).f1;

    // Every distinct query once through the engine before any timing:
    // the answer check, and the warm-up.
    checked(&mut report, "check pass", &engine, || {
        load::closed_loop(&engine, &stream, &reference, Duration::MAX, stream.len())
    });
    let seconds = Duration::from_secs(o.seconds);
    let (latency, throughput, warmup_s) = match w.load {
        Load::Closed => {
            let timed = checked(&mut report, "closed loop", &engine, || {
                load::closed_loop(&engine, &stream, &reference, seconds, usize::MAX)
            });
            (None, timed, 0.0)
        }
        Load::Open => {
            let deadline = Duration::from_micros(OPEN_DEADLINE_US);
            let mut open = |name, rate, length| {
                let schedule = load::poisson_schedule(rate, length, o.seed);
                checked(&mut report, name, &engine, || {
                    load::open_loop(&engine, &stream, &reference, &schedule, deadline)
                })
            };
            let moderate = open("moderate", MODERATE_RPS, seconds * 2 / 5);
            let length = seconds - seconds * 2 / 5;
            let overload = open("overload", OVERLOAD_RPS, length);
            (
                Some(moderate),
                overload,
                length.as_secs_f64() * OVERLOAD_WARMUP,
            )
        }
    };
    engine.shutdown();
    drop(setup_round(&mut setups)?);
    let (total_s, tensors_ms, cache_ms) = (
        Dist::new(setups.total_s),
        Dist::new(setups.tensors_ms),
        Dist::new(setups.cache_ms),
    );
    let latency = latency.as_ref().unwrap_or(&throughput);
    let lat = &latency.phase.latency_ms;
    if stats::samples_beyond(lat.len(), w.tail_pct) < stats::MIN_BEYOND {
        eprintln!(
            "[qdgnn-benchmark] {}: p{} has fewer than {} of {} samples beyond it \
             (the highest that has is p{:?}); run longer",
            w.name,
            w.tail_pct,
            stats::MIN_BEYOND,
            lat.len(),
            stats::highest_supported(lat.len()),
        );
    }
    // Both latencies come from the same blocks, each big enough for the
    // tail percentile.
    let block = stats::block_len(w.tail_pct);
    let lat_p50 = stats::block_pct(lat, block, 50.0);
    let thr = &throughput.phase;

    report.end_to_end = vec![
        metric("setup_s", total_s.median(), "s", total_s.len()),
        metric("latency_p50_ms", lat_p50, "ms", lat.len()),
        metric(
            "latency_tail_ms",
            stats::block_pct(lat, block, w.tail_pct),
            "ms",
            lat.len(),
        ),
        metric(
            "throughput_rps",
            thr.throughput(warmup_s),
            "1/s",
            thr.answered as usize,
        ),
        metric("f1", f1, "ratio", stream.len()),
    ];

    if o.trace {
        let t = traced_pass(
            w,
            o,
            &model,
            gamma,
            &tensors,
            &stream,
            &reference,
            &mut report,
        )?;
        let stage_p50 = t.stage_us.median();
        let obs_pct = obs_overhead(w, o, &model, gamma, stage_p50)?;
        let send_late = Dist::new(
            latency
                .phase
                .send_late_ms
                .iter()
                .chain(&thr.send_late_ms)
                .copied()
                .collect(),
        );
        let m = |name, d: &Dist, unit| metric(name, d.median(), unit, d.len());
        report.per_layer = vec![
            m("setup.tensors_ms", &tensors_ms, "ms"),
            m("setup.cache_ms", &cache_ms, "ms"),
            m("inputs.encode_us_p50", &t.encode_us, "us"),
            m("inputs.stack16_us", &t.stack_us, "us"),
            m("models.forward_us_p50", &t.forward_us, "us"),
            metric(
                "models.batch16_us_per_query",
                t.batch_us.median() / BATCH as f64,
                "us",
                t.batch_us.len(),
            ),
            metric(
                "models.batch16_speedup",
                BATCH as f64 * t.forward_us.median() / t.batch_us.median(),
                "x",
                t.batch_us.len(),
            ),
            m("identify.bfs_us_p50", &t.bfs_us, "us"),
            metric(
                "identify.candidates_mean",
                t.candidates.mean(),
                "count",
                t.candidates.len(),
            ),
            metric(
                "identify.community_size_mean",
                t.sizes.mean(),
                "count",
                t.sizes.len(),
            ),
            m("stage.query_us_p50", &t.stage_us, "us"),
            metric(
                "engine.overhead_us_p50",
                lat_p50 * 1e3 - stage_p50,
                "us",
                lat.len(),
            ),
            metric(
                "engine.queue_depth_mean",
                thr.depth_sum as f64 / thr.offered.max(1) as f64,
                "count",
                thr.offered as usize,
            ),
            metric(
                "engine.shed_admission",
                throughput.shed_admission as f64,
                "count",
                thr.offered as usize,
            ),
            metric(
                "engine.shed_deadline",
                throughput.shed_deadline as f64,
                "count",
                thr.offered as usize,
            ),
            metric(
                "engine.rejected",
                thr.rejected as f64,
                "count",
                thr.offered as usize,
            ),
            metric(
                "engine.late_answers",
                thr.late as f64,
                "count",
                thr.answered as usize,
            ),
            metric(
                "engine.shed_share",
                (thr.shed + thr.rejected) as f64 / thr.offered.max(1) as f64,
                "ratio",
                thr.offered as usize,
            ),
            metric(
                "engine.goodput_rps",
                (thr.answered - thr.late) as f64 / thr.wall_s,
                "1/s",
                thr.answered as usize,
            ),
            m("train.epoch_s", &epoch_s, "s"),
            m("tensor.spmm_us", &t.spmm_us, "us"),
            metric(
                "tensor.spmm_gbps",
                t.spmm_bytes / t.spmm_us.median() / 1e3,
                "GB/s",
                t.spmm_us.len(),
            ),
            m("tensor.matmul_us", &t.matmul_us, "us"),
            metric(
                "tensor.matmul_gflops",
                t.matmul_flops / t.matmul_us.median() / 1e3,
                "GFLOP/s",
                t.matmul_us.len(),
            ),
            metric(
                "loadgen.late_p99_ms",
                if send_late.is_empty() {
                    0.0
                } else {
                    send_late.pct(99.0)
                },
                "ms",
                send_late.len(),
            ),
            metric(
                "trace.overhead_pct",
                (t.request_us.median() - stage_p50) / stage_p50 * 100.0,
                "%",
                t.request_us.len(),
            ),
            metric("obs.enabled_overhead_pct", obs_pct, "%", w.traced_requests),
        ];
    }
    Ok(report)
}

/// Per-layer samples of the traced pass.
struct Traced {
    encode_us: Dist,
    forward_us: Dist,
    bfs_us: Dist,
    request_us: Dist,
    stage_us: Dist,
    stack_us: Dist,
    batch_us: Dist,
    spmm_us: Dist,
    spmm_bytes: f64,
    matmul_us: Dist,
    matmul_flops: f64,
    candidates: Dist,
    sizes: Dist,
}

/// Replays `w.traced_requests` stream queries layer by layer — encode,
/// cached forward, BFS, each in its own span under a `request` span —
/// and, in a sibling span, through `OnlineStage::try_query` untouched.
/// Then times the K = 16 batch and the two kernels. Every answer is
/// checked against the reference; spans go to `spans-<workload>.jsonl`.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    w: &Workload,
    o: &Options,
    model: &Arc<dyn CsModel>,
    gamma: f32,
    tensors: &Arc<GraphTensors>,
    stream: &[Query],
    reference: &[Vec<VertexId>],
    report: &mut Report,
) -> Result<Traced, String> {
    let mut tr = Tracer::default();
    let t: &GraphTensors = tensors;
    let cache = tr
        .time("setup.cache", None, 0, || model.build_graph_cache(t))
        .ok_or("the served model has no graph cache")?;
    let stage = OnlineStage::new_shared(Arc::clone(model), Arc::clone(tensors), gamma);
    let (mut candidates, mut sizes) = (Vec::new(), Vec::new());
    let mut wrong = 0;
    for i in 0..w.traced_requests {
        let (q, want) = (&stream[i % stream.len()], &reference[i % reference.len()]);
        let req = i as u64 + 1;
        let root = tr.begin("request", None, req);
        let qv = tr
            .time("inputs.encode", Some(root), req, || {
                QueryVectors::try_encode(t.n, t.d, &q.vertices, &q.attrs)
            })
            .map_err(|e| format!("encode: {e}"))?;
        let scores = tr.time("models.forward", Some(root), req, || {
            predict_scores_cached(model.as_ref(), t, &cache, &qv)
        });
        let community = tr.time("identify.bfs", Some(root), req, || {
            identify_community(t, &q.vertices, &scores, gamma, !q.attrs.is_empty())
        });
        tr.end(root);
        let served = tr
            .time("stage.query", None, req, || stage.try_query(q))
            .map_err(|e| format!("stage: {e}"))?;
        wrong += usize::from(&community != want) + usize::from(&served != want);
        candidates.push(scores.iter().filter(|&&s| s >= gamma).count() as f64);
        sizes.push(community.len() as f64);
    }
    if wrong > 0 {
        report.problems.push(format!(
            "traced pass: {wrong} answers differ from the reference"
        ));
    }

    let vectors: Vec<QueryVectors> = stream
        .iter()
        .cycle()
        .take(BATCH)
        .map(|q| QueryVectors::try_encode(t.n, t.d, &q.vertices, &q.attrs))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("encode: {e}"))?;
    let mut batch_scores = Vec::new();
    let mut failure = None;
    repeat(1, REPEAT_MAX, o.budget(REPEAT_BUDGET), || {
        match tr.time("inputs.stack16", None, 0, || {
            QueryBatch::try_stack(&vectors)
        }) {
            Ok(batch) => {
                batch_scores = tr.time("models.batch16", None, 0, || {
                    predict_scores_batch(model.as_ref(), t, Some(&cache), &batch)
                });
            }
            Err(e) => failure = Some(format!("stack: {e}")),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let batch_exact = vectors
        .iter()
        .zip(&batch_scores)
        .all(|(qv, got)| bits(got) == bits(&predict_scores_cached(model.as_ref(), t, &cache, qv)));
    if !batch_exact || batch_scores.len() != BATCH {
        report
            .problems
            .push("K = 16 batched scores differ from the K = 1 forward".into());
    }

    let mut rng = SplitMix64::new(o.seed);
    let mut random = |rows: usize, cols: usize| {
        Dense::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.next_f64() as f32 * 2.0 - 1.0)
                .collect(),
        )
    };
    let x = random(t.n, KERNEL_COLS);
    let (a, b) = (
        random(t.n, 3 * KERNEL_COLS),
        random(3 * KERNEL_COLS, KERNEL_COLS),
    );
    repeat(REPEAT_MIN, REPEAT_MAX, o.budget(REPEAT_BUDGET), || {
        tr.time("tensor.spmm", None, 0, || t.adj.spmm(&x));
    });
    repeat(REPEAT_MIN, REPEAT_MAX, o.budget(REPEAT_BUDGET), || {
        tr.time("tensor.matmul", None, 0, || a.matmul(&b));
    });
    // Bytes an SpMM touches: row pointers (8 B), column indices and
    // values (4 B each), one gathered input row per non-zero, the output.
    let (n, nnz, row_bytes) = (t.n as f64, t.adj.nnz() as f64, (KERNEL_COLS * 4) as f64);
    let spmm_bytes = (n + 1.0) * 8.0 + nnz * 8.0 + nnz * row_bytes + n * row_bytes;
    let matmul_flops = 2.0 * n * (3 * KERNEL_COLS) as f64 * KERNEL_COLS as f64;

    let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", w.name));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let d = |name| Dist::new(tr.durations_us(name));
    Ok(Traced {
        encode_us: d("inputs.encode"),
        forward_us: d("models.forward"),
        bfs_us: d("identify.bfs"),
        request_us: d("request"),
        stage_us: d("stage.query"),
        stack_us: d("inputs.stack16"),
        batch_us: d("models.batch16"),
        spmm_us: d("tensor.spmm"),
        spmm_bytes,
        matmul_us: d("tensor.matmul"),
        matmul_flops,
        candidates: Dist::new(candidates),
        sizes: Dist::new(sizes),
    })
}

/// Runs the obs-enabled build as a child on the same model and stream,
/// and returns how much slower its `OnlineStage::try_query` p50 is, in
/// percent of `stage_p50_us`.
fn obs_overhead(
    w: &Workload,
    o: &Options,
    model: &Arc<dyn CsModel>,
    gamma: f32,
    stage_p50_us: f64,
) -> Result<f64, String> {
    let bin = o.obs_bin.as_ref().ok_or(
        "a traced run needs --obs-bin, the obs-enabled build (benchmark/run.py passes it)",
    )?;
    let path = Path::new(OUT_DIR).join(format!("model-{}.txt", w.name));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    qdgnn_core::persist::save_model(&path, model.as_ref(), gamma)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    let mut cmd = Command::new(bin);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &o.seed.to_string(),
        "--obs-probe",
    ])
    .arg(&path)
    .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let parsed = match last.split_whitespace().collect::<Vec<_>>()[..] {
        [p50, enabled] => p50.parse::<f64>().ok().zip(enabled.parse::<bool>().ok()),
        _ => None,
    };
    match parsed {
        Some((p50, enabled)) if out.status.success() && (enabled || o.smoke) => {
            Ok((p50 - stage_p50_us) / stage_p50_us * 100.0)
        }
        Some(_) if out.status.success() => Err(format!("{} has obs compiled out", bin.display())),
        _ => Err(format!("obs probe failed ({}): {last}", out.status)),
    }
}

/// The child side of [`obs_overhead`]: loads the model saved at
/// `model_path`, serves the workload's traced requests through
/// `OnlineStage::try_query`, and returns their p50 (µs) and whether obs
/// is compiled in.
pub fn obs_probe(w: &Workload, o: &Options, model_path: &Path) -> Result<(f64, bool), String> {
    // The same allocator state as the measuring process (see `run`).
    qdgnn_tensor::tune_for_batch_serving();
    let dataset = (w.dataset)();
    let tensors = Arc::new(tensors_for(&dataset));
    let mut model = AqdGnn::new(model_config(), tensors.d);
    let gamma = qdgnn_core::persist::load_model(model_path, &mut model)
        .map_err(|e| format!("load {}: {e}", model_path.display()))?;
    let stage = OnlineStage::new_shared(Arc::new(model), tensors, gamma);
    let stream = load::stream(&dataset, w.stream_len, o.seed);
    let mut samples = Vec::with_capacity(w.traced_requests);
    for i in 0..PROBE_WARMUP + w.traced_requests {
        let t = Instant::now();
        stage
            .try_query(&stream[i % stream.len()])
            .map_err(|e| format!("stage: {e}"))?;
        if i >= PROBE_WARMUP {
            samples.push(us(t.elapsed()));
        }
    }
    Ok((Dist::new(samples).median(), qdgnn_obs::enabled()))
}
