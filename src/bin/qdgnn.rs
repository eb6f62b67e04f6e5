//! `qdgnn` — command-line interface to the library.
//!
//! Subcommands mirror the paper's workflow:
//!
//! ```text
//! qdgnn generate --preset cornell --out data.txt [--queries q.txt --mode afc]
//! qdgnn stats    --data data.txt
//! qdgnn train    --data data.txt --queries q.txt --model aqd --out m.model
//! qdgnn query    --data data.txt --model-file m.model --model aqd \
//!                --vertices 3,17 [--attrs 5,9]
//! qdgnn evaluate --data data.txt --queries q.txt --model-file m.model --model aqd
//! ```
//!
//! Model architecture flags (`--hidden`, `--layers`) must match between
//! `train` and later `query`/`evaluate` invocations; the loader rejects
//! mismatched weight shapes.

use std::collections::HashMap;
use std::process::ExitCode;

use qdgnn::core::persist::{load_model, save_model};
use qdgnn::data::io;
use qdgnn::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match Options::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "stats" => cmd_stats(&opts),
        "train" => cmd_train(&opts),
        "resume" => cmd_resume(&opts),
        "query" => cmd_query(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
qdgnn — query-driven GNNs for community search

USAGE:
  qdgnn generate --preset NAME --out FILE [--queries FILE --mode ema|afc|afn
                 --count N --seed N]
  qdgnn stats    --data FILE
  qdgnn train    --data FILE --queries FILE --model simple|qd|aqd --out FILE
                 [--epochs N --hidden N --layers N --split T,V,S --seed N
                  --checkpoint FILE --checkpoint-every N]
  qdgnn resume   --data FILE --queries FILE --model simple|qd|aqd --out FILE
                 --checkpoint FILE [--epochs N --hidden N --layers N
                  --split T,V,S --seed N --checkpoint-every N]
  qdgnn query    --data FILE --model-file FILE --model simple|qd|aqd
                 --vertices a,b[,c] [--attrs x,y --gamma G --hidden N --layers N]
  qdgnn evaluate --data FILE --queries FILE --model-file FILE
                 --model simple|qd|aqd [--split T,V,S --hidden N --layers N]

Presets: toy cornell texas washington wisconsin cora citeseer
         fb-0 fb-107 fb-1684 fb-1912 fb-3437 fb-348 fb-414 fb-686 reddit";

/// Parsed `--key value` options.
struct Options(HashMap<String, String>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected `--option`, got `{}`", args[i]))?;
            let value =
                args.get(i + 1).ok_or_else(|| format!("missing value for --{key}"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Options(map))
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("--{key} is required"))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: `{v}`")),
        }
    }

    fn list(&self, key: &str) -> Result<Vec<u32>, String> {
        match self.get(key) {
            None => Ok(Vec::new()),
            Some(v) => v
                .split(',')
                .map(|t| t.trim().parse().map_err(|_| format!("bad --{key} entry `{t}`")))
                .collect(),
        }
    }
}

fn preset(name: &str) -> Result<Dataset, String> {
    use qdgnn::data::presets as p;
    Ok(match name.to_lowercase().as_str() {
        "toy" => p::toy(),
        "cornell" => p::cornell(),
        "texas" => p::texas(),
        "washington" | "washt" => p::washington(),
        "wisconsin" | "wiscs" => p::wisconsin(),
        "cora" => p::cora(),
        "citeseer" => p::citeseer(),
        "fb-0" => p::fb_0(),
        "fb-107" => p::fb_107(),
        "fb-1684" => p::fb_1684(),
        "fb-1912" => p::fb_1912(),
        "fb-3437" => p::fb_3437(),
        "fb-348" => p::fb_348(),
        "fb-414" => p::fb_414(),
        "fb-686" => p::fb_686(),
        "reddit" => p::reddit(),
        other => return Err(format!("unknown preset `{other}`")),
    })
}

fn attr_mode(name: &str) -> Result<AttrMode, String> {
    match name.to_lowercase().as_str() {
        "ema" => Ok(AttrMode::Empty),
        "afc" => Ok(AttrMode::FromCommunity),
        "afn" => Ok(AttrMode::FromNode),
        other => Err(format!("unknown attribute mode `{other}` (ema|afc|afn)")),
    }
}

fn model_config(opts: &Options) -> Result<ModelConfig, String> {
    Ok(ModelConfig {
        hidden: opts.parse_or("hidden", 64usize)?,
        layers: opts.parse_or("layers", 3usize)?,
        seed: opts.parse_or("seed", 1u64)?,
        ..ModelConfig::default()
    })
}

fn build_model(kind: &str, config: ModelConfig, attr_dim: usize) -> Result<Box<dyn CsModel>, String> {
    Ok(match kind.to_lowercase().as_str() {
        "simple" => Box::new(SimpleQdGnn::new(config)),
        "qd" | "qdgnn" | "qd-gnn" => Box::new(QdGnn::new(config, attr_dim)),
        "aqd" | "aqdgnn" | "aqd-gnn" => Box::new(AqdGnn::new(config, attr_dim)),
        other => return Err(format!("unknown model `{other}` (simple|qd|aqd)")),
    })
}

fn split_spec(opts: &Options, total: usize) -> Result<(usize, usize, usize), String> {
    match opts.get("split") {
        None => {
            // Default proportions 3:2:2, the paper's 150:100:100 shape.
            let train = total * 3 / 7;
            let val = total * 2 / 7;
            Ok((train, val, total - train - val))
        }
        Some(s) => {
            let parts: Vec<usize> = s
                .split(',')
                .map(|t| t.trim().parse().map_err(|_| format!("bad --split entry `{t}`")))
                .collect::<Result<_, String>>()?;
            if parts.len() != 3 {
                return Err("--split needs three comma-separated sizes".into());
            }
            Ok((parts[0], parts[1], parts[2]))
        }
    }
}

fn cmd_generate(opts: &Options) -> Result<(), String> {
    let data = preset(opts.required("preset")?)?;
    let out = opts.required("out")?;
    io::save_dataset(out, &data).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} ({})", out, data.stats_line());
    if let Some(qpath) = opts.get("queries") {
        let mode = attr_mode(opts.get("mode").unwrap_or("afc"))?;
        let count = opts.parse_or("count", 350usize)?;
        let seed = opts.parse_or("seed", 7u64)?;
        let queries = qdgnn::data::queries::generate(&data, count, 1, 3, mode, seed);
        io::save_queries(qpath, &queries).map_err(|e| format!("writing {qpath}: {e}"))?;
        println!("wrote {count} {} queries to {qpath}", mode.label());
    }
    Ok(())
}

fn cmd_stats(opts: &Options) -> Result<(), String> {
    let path = opts.required("data")?;
    let data = io::load_dataset(path).map_err(|e| format!("reading {path}: {e}"))?;
    println!("{}", data.stats_line());
    let cap = ModelConfig::default().fusion_graph_attr_cap;
    let fusion = data.graph.fusion(cap);
    println!(
        "max degree {}, fusion graph (cap {cap}): {} attributes link their holders, {} over the cap",
        data.graph.graph().max_degree(),
        fusion.num_linking_attrs(),
        fusion.num_attrs_over_cap()
    );
    Ok(())
}

/// Reads `--queries` and checks every query against the graph once, so a
/// malformed query file is an error naming the query, not a panic
/// part-way through training or evaluation.
fn load_queries(opts: &Options, data: &Dataset) -> Result<Vec<Query>, String> {
    let path = opts.required("queries")?;
    let queries = io::load_queries(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (n, d) = (data.graph.num_vertices(), data.graph.num_attrs());
    for (i, q) in queries.iter().enumerate() {
        let problem = match QueryVectors::try_encode(n, d, &q.vertices, &q.attrs) {
            Err(e) => e.to_string(),
            Ok(_) => match q.truth.iter().find(|&&v| v as usize >= n) {
                Some(v) => format!("ground-truth vertex {v} out of range (graph has {n} vertices)"),
                None => continue,
            },
        };
        return Err(format!("{path}: query {} (line {}) is invalid: {problem}", i + 1, i + 2));
    }
    Ok(queries)
}

/// Everything `train` and `resume` share: dataset, split, tensors, a
/// freshly built model and the training configuration.
struct TrainSetup {
    data: Dataset,
    split: QuerySplit,
    tensors: GraphTensors,
    model: Box<dyn CsModel>,
    tc: TrainConfig,
}

fn train_setup(opts: &Options) -> Result<TrainSetup, String> {
    let data = io::load_dataset(opts.required("data")?).map_err(|e| e.to_string())?;
    let queries = load_queries(opts, &data)?;
    let (train, val, test) = split_spec(opts, queries.len())?;
    let split = QuerySplit::new(queries, train, val, test);
    let config = model_config(opts)?;
    let tensors =
        GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let model = build_model(opts.required("model")?, config, tensors.d)?;
    let tc = TrainConfig {
        epochs: opts.parse_or("epochs", 100usize)?,
        seed: opts.parse_or("seed", 1u64)?,
        checkpoint_path: opts.get("checkpoint").map(std::path::PathBuf::from),
        checkpoint_every: opts.parse_or("checkpoint-every", 10usize)?,
        ..TrainConfig::default()
    };
    Ok(TrainSetup { data, split, tensors, model, tc })
}

fn finish_training(
    opts: &Options,
    tensors: &GraphTensors,
    test: &[Query],
    trained: TrainedModel<Box<dyn CsModel>>,
) -> Result<(), String> {
    if trained.report.diverged {
        eprintln!(
            "warning: training diverged after {} rollbacks; keeping the best weights seen",
            trained.report.recoveries
        );
    } else if trained.report.recoveries > 0 || trained.report.skipped_steps > 0 {
        eprintln!(
            "note: recovered from {} divergence rollback(s), skipped {} non-finite step(s)",
            trained.report.recoveries, trained.report.skipped_steps
        );
    }
    println!(
        "done in {:.1}s — best validation F1 {:.3}, γ = {:.2}",
        trained.report.train_seconds, trained.report.best_val_f1, trained.gamma
    );
    let out = opts.required("out")?;
    save_model(out, trained.model.as_ref(), trained.gamma).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    let metrics = OnlineStage::new(trained.model.as_ref(), tensors, trained.gamma).evaluate(test);
    println!(
        "held-out test: precision {:.3}  recall {:.3}  F1 {:.3}",
        metrics.precision, metrics.recall, metrics.f1
    );
    Ok(())
}

fn cmd_train(opts: &Options) -> Result<(), String> {
    let TrainSetup { data, split, tensors, model, tc } = train_setup(opts)?;
    println!(
        "training {} on {} ({} train / {} val queries, {} epochs)…",
        model.name(),
        data.name,
        split.train.len(),
        split.val.len(),
        tc.epochs
    );
    let trained = Trainer::new(tc).train(model, &tensors, &split.train, &split.val);
    finish_training(opts, &tensors, &split.test, trained)
}

fn cmd_resume(opts: &Options) -> Result<(), String> {
    let TrainSetup { data, split, tensors, model, tc } = train_setup(opts)?;
    let ckpt = opts.required("checkpoint")?;
    println!(
        "resuming {} on {} from {ckpt} (target: {} epochs)…",
        model.name(),
        data.name,
        tc.epochs
    );
    let trained = Trainer::new(tc)
        .resume_from(ckpt, model, &tensors, &split.train, &split.val)
        .map_err(|e| format!("resuming from {ckpt}: {e}"))?;
    finish_training(opts, &tensors, &split.test, trained)
}

fn load_trained(
    opts: &Options,
    data: &Dataset,
) -> Result<(Box<dyn CsModel>, GraphTensors, f32), String> {
    let config = model_config(opts)?;
    let tensors =
        GraphTensors::new(&data.graph, config.adj_norm, config.fusion_graph_attr_cap);
    let mut model = build_model(opts.required("model")?, config, tensors.d)?;
    let gamma = load_model(opts.required("model-file")?, model.as_mut())
        .map_err(|e| format!("loading model: {e}"))?;
    Ok((model, tensors, gamma))
}

fn cmd_query(opts: &Options) -> Result<(), String> {
    let data = io::load_dataset(opts.required("data")?).map_err(|e| e.to_string())?;
    let (model, tensors, stored_gamma) = load_trained(opts, &data)?;
    let gamma = opts.parse_or("gamma", stored_gamma)?;
    let vertices = opts.list("vertices")?;
    if vertices.is_empty() {
        return Err("--vertices is required".into());
    }
    let attrs = opts.list("attrs")?;
    let query = Query { vertices, attrs, truth: vec![] };
    // Serve through the validating path: a vertex or attribute id outside
    // the graph is a user error that must exit non-zero with a message,
    // not a panic.
    let stage = OnlineStage::new(model.as_ref(), &tensors, gamma);
    let t0 = std::time::Instant::now();
    let community = stage.try_query(&query).map_err(|e| format!("invalid query: {e}"))?;
    println!(
        "community of {} vertices (γ={gamma:.2}, {:.2} ms):",
        community.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    let rendered: Vec<String> = community.iter().map(ToString::to_string).collect();
    println!("{}", rendered.join(" "));
    Ok(())
}

fn cmd_evaluate(opts: &Options) -> Result<(), String> {
    let data = io::load_dataset(opts.required("data")?).map_err(|e| e.to_string())?;
    let queries = load_queries(opts, &data)?;
    let (train, val, test) = split_spec(opts, queries.len())?;
    let split = QuerySplit::new(queries, train, val, test);
    let (model, tensors, gamma) = load_trained(opts, &data)?;
    let metrics = OnlineStage::new(model.as_ref(), &tensors, gamma).evaluate(&split.test);
    println!(
        "{} on {} ({} test queries, γ={gamma:.2}): precision {:.3}  recall {:.3}  F1 {:.3}",
        model.name(),
        data.name,
        split.test.len(),
        metrics.precision,
        metrics.recall,
        metrics.f1
    );
    Ok(())
}
