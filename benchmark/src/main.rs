//! `qdgnn-benchmark` — the repository benchmark.
//!
//! ```text
//! qdgnn-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--out PATH] [--obs-bin PATH] [--smoke]
//! qdgnn-benchmark --workload NAME [--seed N] [--smoke] --obs-probe MODEL
//! ```
//!
//! Runs one workload (or all four), printing `workload metric value unit
//! samples` per metric and, last, one JSON result line. Exits 1 when a
//! correctness or accounting check fails, 2 on a usage or set-up error.
//! `--trace 1` adds the traced pass, which needs `--obs-bin`, the same
//! binary built with `--features obs`; `benchmark/run.py` builds both.
//! The traced pass runs that binary with `--obs-probe`, which serves the
//! workload's traced requests on the saved model and prints their p50.

use std::path::PathBuf;
use std::process::ExitCode;

use qdgnn_benchmark::report::{full_json, result_json};
use qdgnn_benchmark::workload::{obs_probe, run, workloads, Options};

const USAGE: &str = "usage: qdgnn-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--obs-bin PATH] [--smoke]";

struct Args {
    workload: Option<String>,
    opts: Options,
    out: Option<PathBuf>,
    /// `--obs-probe MODEL`: the child side of the obs overhead.
    probe_model: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        opts: Options {
            seed: 1,
            seconds: 25,
            trace: false,
            obs_bin: None,
            smoke: false,
        },
        out: None,
        probe_model: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => match value()?.parse() {
                Ok(s) if s > 0 => a.opts.seconds = s,
                _ => return Err("--seconds needs a positive whole number".into()),
            },
            "--trace" => match value()?.as_str() {
                "0" => a.opts.trace = false,
                "1" => a.opts.trace = true,
                _ => return Err("--trace is 0 or 1".into()),
            },
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--obs-bin" => a.opts.obs_bin = Some(PathBuf::from(value()?)),
            "--obs-probe" => a.probe_model = Some(PathBuf::from(value()?)),
            "--smoke" => a.opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qdgnn-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = workloads(args.opts.smoke);
    let selected: Vec<_> = match &args.workload {
        None => all,
        Some(name) => match all.into_iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => {
                eprintln!("qdgnn-benchmark: unknown workload `{name}`\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };

    if let Some(model) = &args.probe_model {
        let [w] = &selected[..] else {
            eprintln!("qdgnn-benchmark: --obs-probe needs one --workload");
            return ExitCode::from(2);
        };
        return match obs_probe(w, &args.opts, model) {
            Ok((p50_us, enabled)) => {
                println!("{p50_us} {enabled}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("qdgnn-benchmark: obs probe: {e}");
                ExitCode::from(2)
            }
        };
    }
    if qdgnn_obs::enabled() {
        eprintln!("qdgnn-benchmark: measures with obs compiled out; build without --features obs");
        return ExitCode::from(2);
    }

    let mut reports = Vec::new();
    for w in &selected {
        eprintln!(
            "[qdgnn-benchmark] {}: seed {}, {} s",
            w.name, args.opts.seed, args.opts.seconds
        );
        match run(w, &args.opts) {
            Ok(r) => {
                for line in r.lines() {
                    println!("{line}");
                }
                for p in &r.problems {
                    eprintln!("[qdgnn-benchmark] {}: CHECK FAILED: {p}", w.name);
                }
                reports.push(r);
            }
            Err(e) => {
                eprintln!("qdgnn-benchmark: {}: {e}", w.name);
                return ExitCode::from(2);
            }
        }
    }
    if let Some(out) = &args.out {
        let written = out
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(out, full_json(&reports, args.opts.seed, args.opts.seconds))
            });
        if let Err(e) = written {
            eprintln!("qdgnn-benchmark: write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_json(&reports, args.opts.trace));
    if reports.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
