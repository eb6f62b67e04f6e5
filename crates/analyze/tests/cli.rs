//! End-to-end tests for the `qdgnn-analyze` binary: exit codes for bad
//! roots (the `--deny` gate must not pass vacuously), findings under
//! `--deny`, and the catalog/engine self-check.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qdgnn-analyze"))
}

fn unique_tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qdgnn-analyze-cli-{name}-{}", std::process::id()));
    p
}

#[test]
fn nonexistent_root_exits_nonzero_with_clear_error() {
    let out = bin()
        .args(["--deny", "--root", "/definitely/not/a/real/path"])
        .output()
        .expect("spawn qdgnn-analyze");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not exist"), "{err}");
}

#[test]
fn empty_root_exits_nonzero_instead_of_vacuously_clean() {
    let dir = unique_tmp("empty");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = bin()
        .args(["--deny", "--root"])
        .arg(&dir)
        .output()
        .expect("spawn qdgnn-analyze");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no .rs files"), "{err}");
}

#[test]
fn root_with_findings_exits_one_under_deny_and_zero_without() {
    let dir = unique_tmp("findings");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create temp tree");
    std::fs::write(
        src_dir.join("serve.rs"),
        "fn f(x: f32) -> bool { x == 0.0 }\n",
    )
    .expect("write fixture");
    let denied = bin().args(["--deny", "--root"]).arg(&dir).output().expect("spawn");
    let lenient = bin().arg("--root").arg(&dir).output().expect("spawn");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(denied.status.code(), Some(1));
    assert_eq!(lenient.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&denied.stdout);
    assert!(stdout.contains("QD002"), "{stdout}");
}

#[test]
fn self_check_passes_and_lists_rule_count() {
    let out = bin().arg("--self-check").output().expect("spawn qdgnn-analyze");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-check ok"), "{stdout}");
}
