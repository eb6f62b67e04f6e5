//! Runs every workload's code path on the toy graph and checks that the
//! benchmark prints each metric `BENCHMARK.json` names, with a finite
//! value; and that the seed alone fixes the generated inputs.

use std::process::Command;
use std::time::Duration;

use qdgnn_benchmark::load::{poisson_schedule, stream};
use qdgnn_benchmark::workload::workloads;

/// Metric names listed under `section` in the repository's BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The value printed for `name` in the JSON result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let number = rest.split(": ").nth(2)?.split(',').next()?;
    number.parse().ok()
}

/// The value printed for `name` on its human line `workload name value unit samples`.
fn line_value(stdout: &str, workload: &str, name: &str) -> Option<f64> {
    let prefix = format!("{workload} {name} ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix)?.split(' ').next()?.parse().ok())
}

/// A traced run prints every metric as a human line, and the per-layer
/// ones again in its JSON result line; untraced runs print the same
/// end-to-end lines, so one traced run per workload covers both lists.
#[test]
fn every_listed_metric_is_printed_finite_on_every_workload() {
    let bin = env!("CARGO_BIN_EXE_qdgnn-benchmark");
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()) && !per_layer.is_empty());
    for w in workloads(true) {
        let out = Command::new(bin)
            .args([
                "--smoke",
                "--workload",
                w.name,
                "--seed",
                "3",
                "--seconds",
                "1",
            ])
            .args(["--trace", "1", "--obs-bin", bin])
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{} failed: {}\n{stdout}",
            w.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        for name in end_to_end.iter().chain(&per_layer) {
            let v = line_value(&stdout, w.name, name);
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: {name} printed as {v:?}",
                w.name
            );
        }
        for name in &per_layer {
            let v = value(last, name);
            assert!(
                v.is_some_and(f64::is_finite),
                "{}: {name} in the result line: {v:?}",
                w.name
            );
        }
    }
}

#[test]
fn the_seed_alone_fixes_the_stream_and_the_arrivals() {
    let toy = qdgnn_data::presets::toy();
    assert_eq!(stream(&toy, 50, 7), stream(&toy, 50, 7));
    assert_ne!(stream(&toy, 50, 7), stream(&toy, 50, 8));
    let second = Duration::from_secs(1);
    assert_eq!(
        poisson_schedule(400.0, second, 7),
        poisson_schedule(400.0, second, 7)
    );
    assert_ne!(
        poisson_schedule(400.0, second, 7),
        poisson_schedule(400.0, second, 8)
    );
}
