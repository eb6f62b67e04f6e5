//! `qdgnn-analyze` CLI: runs the repo lint rules over the workspace.
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 findings under
//! `--deny`, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qdgnn_analyze::{analyze_sources, catalog, collect_sources, rules};

const USAGE: &str = "\
qdgnn-analyze — repo-specific static analysis for the qdgnn workspace

USAGE:
    qdgnn-analyze [OPTIONS]

OPTIONS:
    --deny          exit non-zero if any finding is reported (CI gate)
    --self-check    verify the catalog and the implemented rules agree, then exit
    --root <PATH>   workspace root to scan (default: auto-detected from cwd)
    -h, --help      show this help
";

fn main() -> ExitCode {
    let mut deny = false;
    let mut self_check = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--self-check" => self_check = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if self_check {
        return run_self_check();
    }

    let root = root.unwrap_or_else(find_workspace_root);
    if !root.is_dir() {
        eprintln!(
            "error: workspace root {} does not exist or is not a directory — \
             a `--deny` gate pointed at a bad path would pass vacuously",
            root.display()
        );
        return ExitCode::from(2);
    }
    let files = match collect_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!(
            "error: no .rs files found under {} — refusing to report a vacuously \
             clean tree (wrong --root, or everything skipped?)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let findings = analyze_sources(&files);

    for f in &findings {
        println!("{} {}:{}: {}", f.rule, f.path, f.line, f.message);
        if !f.snippet.is_empty() {
            println!("    {}", f.snippet);
        }
    }

    if findings.is_empty() {
        eprintln!("qdgnn-analyze: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("qdgnn-analyze: {} finding(s)", findings.len());
        if deny {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// `--self-check`: the catalog and the rule engine must agree exactly —
/// every implemented rule id appears in the catalog exactly once and
/// vice versa, so a rule can't land undocumented (or get documented but
/// never enforced).
fn run_self_check() -> ExitCode {
    let catalog_ids: Vec<&str> = catalog::RULES.iter().map(|r| r.id).collect();
    let mut ok = true;
    for id in rules::IMPLEMENTED_IDS {
        match catalog_ids.iter().filter(|c| *c == id).count() {
            1 => {}
            0 => {
                eprintln!("self-check: rule {id} is implemented but missing from the catalog");
                ok = false;
            }
            n => {
                eprintln!("self-check: rule {id} appears {n} times in the catalog");
                ok = false;
            }
        }
    }
    for id in &catalog_ids {
        if !rules::IMPLEMENTED_IDS.contains(id) {
            eprintln!("self-check: rule {id} is in the catalog but not implemented");
            ok = false;
        }
    }
    if ok {
        println!(
            "self-check ok: {} rules, catalog and engine agree",
            rules::IMPLEMENTED_IDS.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`; falls back to the current directory.
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir: &Path = &cwd;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}
