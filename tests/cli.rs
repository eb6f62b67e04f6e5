//! Integration tests driving the `qdgnn` CLI binary end-to-end:
//! generate → stats → train → query → evaluate.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qdgnn"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdgnn_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = workdir();
    let data = dir.join("toy.txt");
    let queries = dir.join("queries.txt");
    let model = dir.join("toy.model");

    // generate
    let out = bin()
        .args(["generate", "--preset", "toy", "--out"])
        .arg(&data)
        .arg("--queries")
        .arg(&queries)
        .args(["--mode", "afc", "--count", "60", "--seed", "3"])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(data.exists() && queries.exists());

    // stats
    let out = bin().args(["stats", "--data"]).arg(&data).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("|V|="), "stats output: {stdout}");

    // train (tiny settings for test speed)
    let out = bin()
        .args(["train", "--data"])
        .arg(&data)
        .arg("--queries")
        .arg(&queries)
        .args(["--model", "aqd", "--epochs", "10", "--hidden", "16", "--split", "30,15,15"])
        .arg("--out")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("held-out test"), "train output: {stdout}");

    // query
    let out = bin()
        .args(["query", "--data"])
        .arg(&data)
        .arg("--model-file")
        .arg(&model)
        .args(["--model", "aqd", "--hidden", "16", "--vertices", "0,1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "query failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("community of"), "query output: {stdout}");

    // evaluate
    let out = bin()
        .args(["evaluate", "--data"])
        .arg(&data)
        .arg("--queries")
        .arg(&queries)
        .arg("--model-file")
        .arg(&model)
        .args(["--model", "aqd", "--hidden", "16", "--split", "30,15,15"])
        .output()
        .unwrap();
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("F1"));
}

#[test]
fn cli_rejects_mismatched_architecture() {
    let dir = workdir();
    let data = dir.join("arch.txt");
    let queries = dir.join("arch_q.txt");
    let model = dir.join("arch.model");
    assert!(bin()
        .args(["generate", "--preset", "toy", "--out"])
        .arg(&data)
        .arg("--queries")
        .arg(&queries)
        .args(["--count", "40"])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["train", "--data"])
        .arg(&data)
        .arg("--queries")
        .arg(&queries)
        .args(["--model", "qd", "--epochs", "2", "--hidden", "16", "--split", "20,10,10"])
        .arg("--out")
        .arg(&model)
        .status()
        .unwrap()
        .success());
    // Loading with a different hidden width must fail cleanly.
    let out = bin()
        .args(["query", "--data"])
        .arg(&data)
        .arg("--model-file")
        .arg(&model)
        .args(["--model", "qd", "--hidden", "32", "--vertices", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatch"));
}

#[test]
fn cli_usage_on_bad_input() {
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["train", "--data"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// A query file whose last (test) query names vertex 99999 of a
/// 47-vertex graph is rejected up front by `train` and `evaluate`: a
/// non-zero exit with a message naming the query, never a panic.
#[test]
fn cli_rejects_malformed_query_file_without_panicking() {
    let dir = workdir();
    let data = dir.join("bad.txt");
    let queries = dir.join("bad_q.txt");
    let model = dir.join("bad.model");
    assert!(bin()
        .args(["generate", "--preset", "toy", "--out"])
        .arg(&data)
        .arg("--queries")
        .arg(&queries)
        .args(["--count", "40"])
        .status()
        .unwrap()
        .success());
    let good = std::fs::read_to_string(&queries).unwrap();
    let train = |queries: &PathBuf| {
        bin()
            .args(["train", "--data"])
            .arg(&data)
            .arg("--queries")
            .arg(queries)
            .args(["--model", "qd", "--epochs", "2", "--hidden", "16", "--split", "20,10,10"])
            .arg("--out")
            .arg(&model)
            .output()
            .unwrap()
    };
    assert!(train(&queries).status.success());

    // Query 40 (file line 41) gets vertex 99999 in place of its first.
    let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
    let last = lines.pop().unwrap();
    let rest = last.split_once([' ', '|']).unwrap().1;
    lines.push(format!("99999 {rest}"));
    let bad = dir.join("bad_q_edited.txt");
    std::fs::write(&bad, lines.join("\n") + "\n").unwrap();

    let evaluate = bin()
        .args(["evaluate", "--data"])
        .arg(&data)
        .arg("--queries")
        .arg(&bad)
        .arg("--model-file")
        .arg(&model)
        .args(["--model", "qd", "--hidden", "16", "--split", "20,10,10"])
        .output()
        .unwrap();
    for (what, out) in [("train", train(&bad)), ("evaluate", evaluate)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
        assert!(stderr.contains("query 40 (line 41)"), "{what}: {stderr}");
        assert!(stderr.contains("99999"), "{what}: {stderr}");
    }
}
