//! `qdgnn-obs-runs` — inspect and compare journaled training runs.
//!
//! ```text
//! qdgnn-obs-runs list   <run-root>               # one line per run
//! qdgnn-obs-runs show   <run-root> <id>          # manifest + per-series summary
//! qdgnn-obs-runs export <run-root> <id>          # raw series NDJSON to stdout
//! qdgnn-obs-runs diff   <run-root> <a> <b>       # compare final series values
//! ```
//!
//! `diff` judges `b` (candidate) against `a` (baseline) with
//! noise-tolerant thresholds (warn above ×1.10, fail above ×1.25 — the
//! `qdgnn_obs::series` constants) and exits nonzero when any gated
//! series regressed past the fail ratio or vanished, so CI can gate on
//! run-to-run drift.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qdgnn_obs::runs::{list_runs, RunManifest};
use qdgnn_obs::series::{self, DiffVerdict, SeriesStore};

fn usage() -> ExitCode {
    eprintln!(
        "usage: qdgnn-obs-runs <command>\n\
         \x20 list   <run-root>          list runs under a root\n\
         \x20 show   <run-root> <id>     manifest and per-series summary\n\
         \x20 export <run-root> <id>     raw series NDJSON to stdout\n\
         \x20 diff   <run-root> <a> <b>  compare runs; nonzero exit on regression"
    );
    ExitCode::from(2)
}

fn load_manifest(root: &Path, id: &str) -> Result<RunManifest, String> {
    let path = root.join(id).join("manifest.json");
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    RunManifest::from_json(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_series(root: &Path, id: &str) -> Result<SeriesStore, String> {
    let path = root.join(id).join("series.ndjson");
    match fs::read_to_string(&path) {
        Ok(text) => SeriesStore::from_ndjson(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SeriesStore::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn cmd_list(root: &Path) -> Result<(), String> {
    let runs = list_runs(root);
    if runs.is_empty() {
        println!("no runs under {}", root.display());
        return Ok(());
    }
    for (id, _) in runs {
        let m = load_manifest(root, &id)?;
        let lineage = match &m.resumed_from {
            Some(p) => format!("  resumed-from {p}"),
            None => String::new(),
        };
        println!(
            "{id}  dataset {}  seed {}  config {}  start {} us{lineage}",
            m.dataset, m.seed, m.config_hash, m.start_us
        );
    }
    Ok(())
}

fn cmd_show(root: &Path, id: &str) -> Result<(), String> {
    let m = load_manifest(root, id)?;
    println!("{}", m.to_json());
    let store = load_series(root, id)?;
    for name in store.names() {
        let points = store.get(name);
        let (last_step, last_value) = points.last().copied().unwrap_or((0, f64::NAN));
        println!("{name}: {} points, last {last_value} @ step {last_step}", points.len());
    }
    let flight = root.join(id).join("flight.ndjson");
    if let Ok(text) = fs::read_to_string(&flight) {
        println!("flight recorder: {} lines in {}", text.lines().count(), flight.display());
    }
    Ok(())
}

fn cmd_export(root: &Path, id: &str) -> Result<(), String> {
    let store = load_series(root, id)?;
    print!("{}", store.to_ndjson());
    Ok(())
}

fn cmd_diff(root: &Path, baseline: &str, candidate: &str) -> Result<DiffVerdict, String> {
    let base = load_series(root, baseline)?;
    let cand = load_series(root, candidate)?;
    let diffs = series::diff_stores(&base, &cand);
    if diffs.is_empty() {
        return Err(format!("neither {baseline} nor {candidate} has any series"));
    }
    println!("diff: baseline {baseline} vs candidate {candidate}");
    for d in &diffs {
        println!("  {}", d.line());
    }
    let verdict = series::overall(&diffs);
    println!(
        "overall: {} (warn above x{}, fail above x{})",
        verdict.tag(),
        series::WARN_RATIO,
        series::FAIL_RATIO
    );
    Ok(verdict)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["list", root] => cmd_list(&PathBuf::from(root)).map(|()| ExitCode::SUCCESS),
        ["show", root, id] => cmd_show(&PathBuf::from(root), id).map(|()| ExitCode::SUCCESS),
        ["export", root, id] => cmd_export(&PathBuf::from(root), id).map(|()| ExitCode::SUCCESS),
        ["diff", root, a, b] => cmd_diff(&PathBuf::from(root), a, b).map(|verdict| {
            if verdict == DiffVerdict::Fail {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qdgnn-obs-runs: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdgnn_obs::runs::RunRecorder;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qdgnn-runs-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp run root");
        dir
    }

    #[test]
    fn diff_passes_self_and_fails_seeded_regression() {
        let root = tmp_root("diff");
        let base = RunRecorder::create(&root, 1, "toy", "h").unwrap();
        for step in 0..4u64 {
            base.record_point("train.loss", step, 1.0 / (step + 1) as f64).unwrap();
            base.record_point("train.val_f1", step, 0.5 + 0.1 * step as f64).unwrap();
        }
        let regressed = RunRecorder::create(&root, 1, "toy", "h").unwrap();
        for step in 0..4u64 {
            // Loss scaled up x2: a regression well past FAIL_RATIO.
            regressed.record_point("train.loss", step, 2.0 / (step + 1) as f64).unwrap();
            regressed.record_point("train.val_f1", step, 0.5 + 0.1 * step as f64).unwrap();
        }
        let self_verdict = cmd_diff(&root, base.id(), base.id()).unwrap();
        assert!(self_verdict < DiffVerdict::Warn, "self-diff must pass: {self_verdict:?}");
        let bad_verdict = cmd_diff(&root, base.id(), regressed.id()).unwrap();
        assert_eq!(bad_verdict, DiffVerdict::Fail);
        // A candidate with no journal at all: every gated series vanished.
        let ghost = cmd_diff(&root, base.id(), "run-999999").unwrap();
        assert_eq!(ghost, DiffVerdict::Fail);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn list_show_export_cover_manifest_and_series() {
        let root = tmp_root("listing");
        let rec = RunRecorder::create(&root, 5, "cora", "abc").unwrap();
        rec.record_point("train.loss", 0, 1.0).unwrap();
        cmd_list(&root).unwrap();
        cmd_show(&root, rec.id()).unwrap();
        cmd_export(&root, rec.id()).unwrap();
        assert!(load_manifest(&root, "run-404404").is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
