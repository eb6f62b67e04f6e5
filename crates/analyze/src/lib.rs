//! `qdgnn-analyze`: repo-specific static analysis for the qdgnn
//! workspace.
//!
//! A from-scratch, dependency-free lint engine for the invariants clippy
//! cannot express: float-equality sentinels, finite-difference coverage
//! of tape ops, lock and blocking discipline, panic reachability through
//! call chains, and the metric-name catalog. The serving-path panic ban,
//! the library print ban and the wall-clock ban are clippy lints
//! (DESIGN.md §6). [`lexer`] scans Rust sources (comment/string-aware,
//! brace-tracking, `#[cfg(test)]` detection), [`rules`] implements the
//! checks, and [`catalog`] describes them. This module wires the pieces
//! together: filesystem walking, suppression handling, and deterministic
//! ordering of findings.

pub mod callgraph;
pub mod catalog;
pub mod lexer;
pub mod rules;
pub mod symbols;

use std::fs;
use std::io;
use std::path::Path;

use lexer::SourceFile;
pub use rules::Finding;

/// Directories never scanned: vendored shims and build/VCS artifacts.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude", "related"];

/// Recursively collects every `.rs` file under `root` (skipping
/// [`SKIP_DIRS`]) and scans it. Files are returned sorted by path so
/// analysis order — and therefore output — is reproducible across
/// filesystems.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let src = match fs::read_to_string(&path) {
                Ok(s) => s,
                Err(_) => continue, // non-UTF-8: nothing for a Rust lexer to do
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::scan(&rel, &src));
        }
    }
    Ok(())
}

/// Runs every rule over the scanned sources, applies suppressions, adds
/// QD000 meta-findings for reason-less or unknown suppressions and
/// QD012 for suppressions that silenced nothing, and returns findings
/// sorted by `(path, line, rule)` for reproducible CI diffs.
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Finding> {
    let mut raw = Vec::new();
    for sf in files {
        raw.extend(rules::check_file(sf));
    }

    // QD003 is cross-file: tape ops vs. the root property-test suite.
    let tape = files.iter().find(|f| f.path.ends_with("crates/tensor/src/tape.rs"));
    let props = files
        .iter()
        .find(|f| f.path == "tests/properties.rs" || f.path.ends_with("/tests/properties.rs"));
    if let Some(t) = tape {
        raw.extend(rules::qd003(t, props));
    }

    // QD013 is cross-file too: metric-name literals vs. the checked-in
    // catalog in crates/obs/src/names.rs.
    raw.extend(rules::qd013(files));

    // The interprocedural rules run on the whole-workspace call graph.
    let graph = callgraph::CallGraph::build(files);
    raw.extend(rules::qd009(files, &graph));
    raw.extend(rules::qd010(files, &graph));
    raw.extend(rules::qd011(files, &graph));

    // A suppression covers findings of its rule on its own line and the
    // line below, so it can trail the offending expression or sit
    // directly above it. Suppressions that matched at least one raw
    // finding are recorded so QD012 can flag the stale ones.
    let mut used: std::collections::HashSet<(String, u32, String)> =
        std::collections::HashSet::new();
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let matched = files.iter().find(|s| s.path == f.path).and_then(|sf| {
            sf.suppressions.iter().find(|sup| {
                sup.rule == f.rule
                    && (sup.line == f.line || sup.line + 1 == f.line)
                    && catalog::rule(&sup.rule).is_some_and(|r| r.suppressible)
            })
        });
        match matched {
            Some(sup) => {
                used.insert((f.path.clone(), sup.line, sup.rule.clone()));
            }
            None => out.push(f),
        }
    }

    // QD012: a well-formed suppression (known suppressible rule) that
    // silenced nothing is itself stale. An `allow(QD012, …)` on or
    // above the stale suppression's line silences the report — and is
    // counted as used itself, so the meta level terminates.
    for sf in files {
        for sup in &sf.suppressions {
            if sup.rule == "QD012"
                || !catalog::rule(&sup.rule).is_some_and(|r| r.suppressible)
                || used.contains(&(sf.path.clone(), sup.line, sup.rule.clone()))
            {
                continue;
            }
            let silenced = sf.suppressions.iter().any(|s| {
                s.rule == "QD012" && (s.line == sup.line || s.line + 1 == sup.line)
            });
            if silenced {
                continue;
            }
            out.push(Finding {
                rule: "QD012",
                path: sf.path.clone(),
                line: sup.line,
                message: format!(
                    "stale suppression: this `allow({})` silences no finding — delete it, or suppress with `allow(QD012, reason = \"…\")` if it is kept deliberately",
                    sup.rule
                ),
                snippet: sf.snippet(sup.line),
            });
        }
    }

    for sf in files {
        for sup in &sf.suppressions {
            match catalog::rule(&sup.rule) {
                None => out.push(Finding {
                    rule: "QD000",
                    path: sf.path.clone(),
                    line: sup.line,
                    message: format!("suppression names unknown rule `{}`", sup.rule),
                    snippet: sf.snippet(sup.line),
                }),
                Some(r) if !r.suppressible => out.push(Finding {
                    rule: "QD000",
                    path: sf.path.clone(),
                    line: sup.line,
                    message: format!("rule `{}` cannot be suppressed", sup.rule),
                    snippet: sf.snippet(sup.line),
                }),
                Some(_) if sup.reason.is_none() => out.push(Finding {
                    rule: "QD000",
                    path: sf.path.clone(),
                    line: sup.line,
                    message: format!(
                        "suppression of `{}` has no written reason — use `allow({}, reason = \"…\")`",
                        sup.rule, sup.rule
                    ),
                    snippet: sf.snippet(sup.line),
                }),
                Some(_) => {}
            }
        }
    }

    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.path.as_str(), b.line, b.rule, b.message.as_str()))
    });
    out
}

/// Convenience: collect + analyze from a workspace root.
pub fn analyze_root(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_sources(&collect_sources(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_silences_finding() {
        let src = "
fn f(x: f32) -> bool {
    // qdgnn-analyze: allow(QD002, reason = \"exact-zero sentinel, never the result of arithmetic\")
    x == 0.0
}
";
        let files = vec![SourceFile::scan("crates/core/src/serve.rs", src)];
        assert!(analyze_sources(&files).is_empty(), "{:?}", analyze_sources(&files));
    }

    #[test]
    fn suppression_without_reason_yields_qd000() {
        let src = "fn f(x: f32) -> bool {\n    x == 0.0 // qdgnn-analyze: allow(QD002)\n}\n";
        let files = vec![SourceFile::scan("crates/core/src/serve.rs", src)];
        let f = analyze_sources(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "QD000");
    }

    #[test]
    fn suppression_for_other_rule_does_not_silence() {
        let src = "fn f(x: f32) -> bool {\n    // qdgnn-analyze: allow(QD008, reason = \"n/a\")\n    x == 0.0\n}\n";
        let files = vec![SourceFile::scan("crates/core/src/serve.rs", src)];
        let f = analyze_sources(&files);
        assert!(f.iter().any(|f| f.rule == "QD002"), "{f:?}");
    }

    #[test]
    fn findings_are_sorted_by_path_line_rule() {
        let a = SourceFile::scan(
            "crates/serve/src/engine.rs",
            "fn f(rx: &Receiver<u8>, x: f32) { rx.recv(); let _ = x != 1.0; }\n",
        );
        let b = SourceFile::scan(
            "crates/core/src/inputs.rs",
            "fn g(v: &[f32]) -> bool { v[0] == 0.0 }\n",
        );
        let f = analyze_sources(&[a, b]);
        let keys: Vec<(String, u32, &str)> =
            f.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(keys[0].0.contains("inputs"), "{keys:?}");
    }

    #[test]
    fn qd012_stale_suppression_is_reported() {
        let src = "
fn f(x: u32) -> u32 {
    // qdgnn-analyze: allow(QD002, reason = \"was a float sentinel once, burned down\")
    x + 1
}
";
        let files = vec![SourceFile::scan("crates/core/src/serve.rs", src)];
        let f = analyze_sources(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "QD012");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("stale suppression"), "{}", f[0].message);
    }

    #[test]
    fn qd012_not_reported_when_suppression_still_matches() {
        let src = "
fn f(x: f32) -> bool {
    // qdgnn-analyze: allow(QD002, reason = \"exact-zero sentinel\")
    x == 0.0
}
";
        let files = vec![SourceFile::scan("crates/core/src/serve.rs", src)];
        assert!(analyze_sources(&files).is_empty(), "{:?}", analyze_sources(&files));
    }

    #[test]
    fn qd012_can_itself_be_suppressed_for_deliberate_keeps() {
        let src = "
fn f(x: u32) -> u32 {
    // qdgnn-analyze: allow(QD012, reason = \"comparison only exists with feature X\")
    // qdgnn-analyze: allow(QD002, reason = \"feature-gated comparison below\")
    x + 1
}
";
        let files = vec![SourceFile::scan("crates/core/src/serve.rs", src)];
        assert!(analyze_sources(&files).is_empty(), "{:?}", analyze_sources(&files));
    }

    #[test]
    fn interprocedural_findings_flow_through_suppressions() {
        // A cross-crate panic chain silenced at the panic site.
        let serve = || {
            SourceFile::scan("crates/serve/src/engine.rs", "fn handle(q: Query) { score(q); }\n")
        };
        let core = SourceFile::scan(
            "crates/core/src/scoring.rs",
            "
fn score(q: Query) -> f32 {
    // qdgnn-analyze: allow(QD009, reason = \"weights validated at load time\")
    q.weights.unwrap().total()
}
",
        );
        let loud = analyze_sources(&[
            serve(),
            SourceFile::scan(
                "crates/core/src/scoring.rs",
                "fn score(q: Query) -> f32 { q.weights.unwrap().total() }\n",
            ),
        ]);
        assert!(loud.iter().any(|f| f.rule == "QD009"), "{loud:?}");
        let quiet = analyze_sources(&[serve(), core]);
        assert!(quiet.is_empty(), "{quiet:?}");
    }
}
