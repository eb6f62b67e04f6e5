//! Output-stability tests: CI gates on the analyzer's output, so the
//! findings list must be deterministic — sorted by file:line:rule and
//! independent of the order sources are handed to the engine.

use qdgnn_analyze::{analyze_sources, lexer::SourceFile};

fn fixture_files() -> Vec<SourceFile> {
    vec![
        SourceFile::scan(
            "crates/serve/src/engine.rs",
            "fn f(rx: &Receiver<u8>, x: f32) {\n    let a = rx.recv();\n    let b = x != 1.0;\n}\n",
        ),
        SourceFile::scan(
            "crates/core/src/inputs.rs",
            "fn g(v: &[f32]) -> bool { v[0] == 0.0 }\n",
        ),
        SourceFile::scan(
            "crates/core/src/train.rs",
            "fn h() {\n    let a = m1.lock();\n    let b = m2.lock();\n}\n",
        ),
    ]
}

#[test]
fn output_is_sorted_by_file_line_rule() {
    let findings = analyze_sources(&fixture_files());
    assert!(!findings.is_empty());
    let keys: Vec<(String, u32, String)> = findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.rule.to_string()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be ordered for reproducible CI diffs");
}

#[test]
fn output_is_independent_of_input_order() {
    let forward = analyze_sources(&fixture_files());
    let mut reversed_input = fixture_files();
    reversed_input.reverse();
    let reversed = analyze_sources(&reversed_input);
    let render = |fs: &[qdgnn_analyze::Finding]| -> Vec<String> {
        fs.iter()
            .map(|f| format!("{} {}:{}: {}", f.rule, f.path, f.line, f.message))
            .collect()
    };
    assert_eq!(render(&forward), render(&reversed));
}

#[test]
fn repeated_runs_are_identical() {
    let a = analyze_sources(&fixture_files());
    let b = analyze_sources(&fixture_files());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.rule, y.rule);
        assert_eq!(x.path, y.path);
        assert_eq!(x.line, y.line);
        assert_eq!(x.message, y.message);
        assert_eq!(x.snippet, y.snippet);
    }
}
