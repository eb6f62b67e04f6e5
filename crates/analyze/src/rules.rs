//! The lint rules (QD001–QD013).
//!
//! Each rule is a pure function from scanned [`SourceFile`]s to
//! [`Finding`]s; suppression handling and ordering live in
//! [`crate::analyze_sources`]. Every rule carries self-tests on
//! embedded good/bad snippets at the bottom of this file.

use crate::callgraph::{self, CallGraph};
use crate::lexer::{SourceFile, TokKind};
use crate::symbols::FnSym;

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id from the catalog, e.g. `QD001`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed offending source line.
    pub snippet: String,
}

fn finding(rule: &'static str, sf: &SourceFile, line: u32, message: String) -> Finding {
    Finding { rule, path: sf.path.clone(), line, message, snippet: sf.snippet(line) }
}

/// Files where the full QD001 rule (panic family + direct indexing)
/// applies: the online serving and persistence paths.
const QD001_SERVING: &[&str] = &[
    "crates/core/src/serve.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/inputs.rs",
    "crates/core/src/identify.rs",
    // The serving engine runs indefinitely against untrusted callers:
    // every lib file of qdgnn-serve is a serving path.
    "crates/serve/src/lib.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/batcher.rs",
    "crates/serve/src/config.rs",
    "crates/serve/src/error.rs",
    "crates/serve/src/trace.rs",
    "crates/serve/src/http.rs",
];

/// Keywords that may legitimately precede `[` without it being an
/// indexing expression (array literals, types, closures).
const NON_RECEIVER_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break",
    "continue", "in", "let", "mut", "ref", "move", "as", "use", "pub",
    "fn", "impl", "struct", "enum", "trait", "type", "where", "unsafe",
    "dyn", "static", "const", "crate", "super", "mod", "extern",
];

/// QD001: no `unwrap`/`expect`/`panic!`/`unreachable!`/direct indexing
/// on serving and persistence paths; panic-family subset on model code.
pub fn qd001(sf: &SourceFile) -> Vec<Finding> {
    let full = QD001_SERVING.iter().any(|p| sf.path.ends_with(p));
    let models = sf.path.contains("crates/core/src/models/");
    if !full && !models {
        return Vec::new();
    }
    let toks = &sf.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let prev_dot = i > 0 && toks[i - 1].text == ".";
                let next_bang = toks.get(i + 1).is_some_and(|n| n.text == "!");
                match t.text.as_str() {
                    "unwrap" | "expect" if prev_dot => out.push(finding(
                        "QD001",
                        sf,
                        t.line,
                        format!(
                            "`.{}()` on a serving/persistence path — return a typed QdgnnError instead",
                            t.text
                        ),
                    )),
                    "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                        out.push(finding(
                            "QD001",
                            sf,
                            t.line,
                            format!(
                                "`{}!` on a serving/persistence path — the online query path must degrade via typed errors, never abort",
                                t.text
                            ),
                        ))
                    }
                    _ => {}
                }
            }
            TokKind::Punct if full && t.text == "[" && i > 0 => {
                let p = &toks[i - 1];
                let is_receiver = match p.kind {
                    TokKind::Ident => !NON_RECEIVER_KEYWORDS.contains(&p.text.as_str()),
                    TokKind::Punct => p.text == ")" || p.text == "]",
                    _ => false,
                };
                if is_receiver {
                    out.push(finding(
                        "QD001",
                        sf,
                        t.line,
                        format!(
                            "direct indexing `{}[…]` on a serving/persistence path — validate bounds and return a typed error",
                            p.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// Is this token a float literal? (`.`-containing, `f32`/`f64`-suffixed,
/// or decimal-exponent numbers; hex literals are excluded.)
fn is_float_lit(sf: &SourceFile, idx: usize) -> bool {
    let Some(t) = sf.toks.get(idx) else { return false };
    if t.kind != TokKind::Num {
        return false;
    }
    let s = t.text.as_str();
    if s.starts_with("0x") || s.starts_with("0X") {
        return false;
    }
    s.contains('.')
        || s.ends_with("f32")
        || s.ends_with("f64")
        || s.contains('e')
        || s.contains('E')
}

/// QD002: no `==`/`!=` where either operand is a float literal.
pub fn qd002(sf: &SourceFile) -> Vec<Finding> {
    let toks = &sf.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        // Operand on the right may be negated: `== -0.5`.
        let right = if toks.get(i + 1).is_some_and(|n| n.text == "-") { i + 2 } else { i + 1 };
        let float = (i > 0 && is_float_lit(sf, i - 1)) || is_float_lit(sf, right);
        if float {
            out.push(finding(
                "QD002",
                sf,
                t.line,
                format!(
                    "exact float comparison `{}` against a float literal — use a tolerance, or suppress with a reason where an exact sentinel is intended",
                    t.text
                ),
            ));
        }
    }
    out
}

/// QD003: every `enum Op` variant registered on the tape must be
/// referenced by a finite-difference gradient check (an identifier
/// starting with `fd` whose normalized form contains the variant name)
/// in `tests/properties.rs`.
pub fn qd003(tape: &SourceFile, properties: Option<&SourceFile>) -> Vec<Finding> {
    let variants = op_variants(tape);
    let Some(props) = properties else {
        return variants
            .into_iter()
            .map(|(name, line)| {
                finding(
                    "QD003",
                    tape,
                    line,
                    format!(
                        "tape op `{name}` cannot be verified: tests/properties.rs not found"
                    ),
                )
            })
            .collect();
    };
    let fd_idents: Vec<String> = props
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text.starts_with("fd"))
        .map(|t| normalize(&t.text))
        .collect();
    variants
        .into_iter()
        .filter(|(name, _)| {
            let n = normalize(name);
            !fd_idents.iter().any(|id| id.contains(&n))
        })
        .map(|(name, line)| {
            finding(
                "QD003",
                tape,
                line,
                format!(
                    "tape op `{name}` has no finite-difference gradient check (expected an `fd_*` test referencing it in tests/properties.rs)"
                ),
            )
        })
        .collect()
}

fn normalize(s: &str) -> String {
    s.chars().filter(|c| *c != '_').flat_map(char::to_lowercase).collect()
}

/// Extracts `(variant_name, line)` pairs from `enum Op { … }`, skipping
/// the gradient-less `Leaf` variant and `#[…]` attribute contents.
fn op_variants(sf: &SourceFile) -> Vec<(String, u32)> {
    let toks = &sf.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].text == "enum" && toks[i + 1].text == "Op" && toks[i + 2].text == "{" {
            let body_depth = toks[i + 2].depth;
            let mut j = i + 3;
            let mut expect_variant = true;
            // Parens don't change brace depth, so tuple-variant field
            // lists (`Add(usize, usize)`) need their own nesting count
            // to keep their commas from looking like variant separators.
            let mut parens = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.text == "}" && t.depth == body_depth {
                    break;
                }
                match t.text.as_str() {
                    "(" => parens += 1,
                    ")" => parens -= 1,
                    _ => {}
                }
                if t.text == "#" {
                    // Skip attribute bracket group (brackets don't
                    // affect brace depth, so track them here).
                    j += 1;
                    if toks.get(j).map(|n| n.text.as_str()) == Some("[") {
                        let mut brackets = 1;
                        j += 1;
                        while j < toks.len() && brackets > 0 {
                            match toks[j].text.as_str() {
                                "[" => brackets += 1,
                                "]" => brackets -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                    }
                    continue;
                }
                if t.text == "," && t.depth == body_depth + 1 && parens == 0 {
                    expect_variant = true;
                } else if expect_variant
                    && t.kind == TokKind::Ident
                    && t.depth == body_depth + 1
                    && parens == 0
                {
                    if t.text != "Leaf" {
                        out.push((t.text.clone(), t.line));
                    }
                    expect_variant = false;
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    out
}

/// Paths covered by the resume bit-identity guarantee.
const QD004_PATHS: &[&str] = &["crates/core/src/train.rs", "crates/tensor/src/tape.rs"];

/// Identifiers that introduce nondeterminism. `Instant::now` is
/// deliberately absent here: it cannot break replay determinism, but
/// QD007 bans it on library paths anyway so wall timing stays injectable.
const QD004_BANNED: &[&str] = &["SystemTime", "thread_rng", "from_entropy"];

/// QD004: no wall-clock time or entropy-seeded RNG on paths covered by
/// the crash-resume bit-identity guarantee.
pub fn qd004(sf: &SourceFile) -> Vec<Finding> {
    if !QD004_PATHS.iter().any(|p| sf.path.ends_with(p)) {
        return Vec::new();
    }
    sf.toks
        .iter()
        .filter(|t| {
            !t.in_test && t.kind == TokKind::Ident && QD004_BANNED.contains(&t.text.as_str())
        })
        .map(|t| {
            finding(
                "QD004",
                sf,
                t.line,
                format!(
                    "`{}` on a resume-deterministic path — training must replay bit-identically from a checkpoint; seed explicitly instead",
                    t.text
                ),
            )
        })
        .collect()
}

/// Paths where the parallel trainer / tiled matmul use locks.
const QD005_PATHS: &[&str] = &[
    "crates/core/src/train.rs",
    "crates/tensor/src/dense.rs",
    "crates/tensor/src/sparse.rs",
    "crates/tensor/src/kernel.rs",
];

/// QD005: flag a second lock acquisition while a guard is live, and
/// let-bound guards still live when a `crossbeam::thread::scope` join
/// runs.
///
/// Heuristic model: `let`-bound guards live until their enclosing block
/// closes (or an explicit `drop(…)`); guards acquired as temporaries
/// (`m.lock().push(x)`) die at the end of their statement.
pub fn qd005(sf: &SourceFile) -> Vec<Finding> {
    if !QD005_PATHS.iter().any(|p| sf.path.ends_with(p)) {
        return Vec::new();
    }
    // `.read()`/`.write()` only count as lock methods when the file
    // actually uses an RwLock, so io traits don't trip the rule.
    let has_rwlock = sf.toks.iter().any(|t| t.text == "RwLock");

    struct Guard {
        depth: u32,
        temp: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut stmt_has_let = false;
    let mut out = Vec::new();
    let toks = &sf.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "let") => stmt_has_let = true,
            (TokKind::Punct, ";") => {
                guards.retain(|g| !(g.temp && t.depth <= g.depth));
                stmt_has_let = false;
            }
            (TokKind::Punct, "{") => stmt_has_let = false,
            (TokKind::Punct, "}") => {
                guards.retain(|g| g.depth <= t.depth);
                stmt_has_let = false;
            }
            (TokKind::Ident, "drop")
                if toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                guards.pop();
            }
            (TokKind::Ident, m @ ("lock" | "read" | "write"))
                if i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                    && (m == "lock" || has_rwlock) =>
            {
                if !guards.is_empty() {
                    out.push(finding(
                        "QD005",
                        sf,
                        t.line,
                        format!(
                            "`.{m}()` while another lock guard is live — nested acquisitions deadlock under load; narrow the first guard's scope"
                        ),
                    ));
                }
                guards.push(Guard { depth: t.depth, temp: !stmt_has_let });
            }
            (TokKind::Ident, "scope" | "crossbeam") if guards.iter().any(|g| !g.temp) => {
                out.push(finding(
                    "QD005",
                    sf,
                    t.line,
                    "lock guard held across a thread-scope join — worker threads taking the same lock will deadlock".to_string(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Library crates where stdout/stderr printing is banned outside tests:
/// these are linked into servers and harnesses that own their output
/// streams; diagnostics must flow through qdgnn-obs events/counters or
/// typed errors instead.
const QD006_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/graph/src/",
    // The serve library is linked into servers; its binary lives at
    // crates/serve/bin/ (outside src/) and owns its streams.
    "crates/serve/src/",
];

/// The print-family macros QD006 bans.
const QD006_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// QD006: no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` on library
/// paths (core, tensor, nn, graph) outside tests.
pub fn qd006(sf: &SourceFile) -> Vec<Finding> {
    if !QD006_CRATES.iter().any(|p| sf.path.contains(p)) {
        return Vec::new();
    }
    let toks = &sf.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident || !QD006_MACROS.contains(&t.text.as_str()) {
            continue;
        }
        // Macro invocation only: `println` followed by `!`, and not a
        // path segment like `writer::println`.
        if toks.get(i + 1).is_none_or(|n| n.text != "!") {
            continue;
        }
        if i > 0 && toks[i - 1].text == "::" {
            continue;
        }
        out.push(finding(
            "QD006",
            sf,
            t.line,
            format!(
                "`{}!` in library code — record a qdgnn-obs event/counter or return a typed error; binaries own the output streams",
                t.text
            ),
        ));
    }
    out
}

/// Library crates where raw `Instant::now()` is banned outside tests:
/// wall timing there must flow through the injectable qdgnn-obs clock
/// (`qdgnn_obs::clock::wall_micros()` or a `Clock` handle) so fake-clock
/// tests can pin every reported duration. The obs crate itself is exempt
/// by omission — its `MonotonicClock` is the one sanctioned caller.
const QD007_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/graph/src/",
    // Engine batching deadlines must follow the injected Clock, never
    // a raw Instant — that is what makes the fake-clock tests honest.
    "crates/serve/src/",
];

/// QD007: no raw `Instant::now()` on library paths (core, tensor, nn,
/// graph) outside tests.
pub fn qd007(sf: &SourceFile) -> Vec<Finding> {
    if !QD007_CRATES.iter().any(|p| sf.path.contains(p)) {
        return Vec::new();
    }
    let toks = &sf.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident || t.text != "Instant" {
            continue;
        }
        // Call site only: `Instant` followed by `::` `now`. Bare type
        // mentions (struct fields, imports) stay legal so `Instant`-typed
        // plumbing can exist where the value itself is injected.
        if toks.get(i + 1).is_some_and(|n| n.text == "::")
            && toks.get(i + 2).is_some_and(|n| n.text == "now")
        {
            out.push(finding(
                "QD007",
                sf,
                t.line,
                "`Instant::now()` in library code — read the injectable obs wall \
                 clock (`qdgnn_obs::clock::wall_micros()`) so fake-clock tests \
                 can pin this timing"
                    .to_string(),
            ));
        }
    }
    out
}

/// Paths where QD008 bans unbounded blocking primitives: the serving
/// library is the one place threads wait on each other under production
/// load, so every block there must carry a timeout (or a reasoned
/// suppression) — an unbounded `Condvar::wait`, `Receiver::recv`, or
/// bare `Pending::wait` turns one stuck worker into a stuck caller.
const QD008_CRATES: &[&str] = &["crates/serve/src/"];

/// The method names QD008 bans when invoked bare. The bounded variants
/// (`wait_timeout`, `recv_timeout`, `try_recv`, `try_wait`) lex as
/// different identifiers and stay legal.
const QD008_METHODS: &[&str] = &["wait", "recv"];

/// QD008: no unbounded blocking primitives (`Condvar::wait` without a
/// timeout, `Receiver::recv`, bare `Pending::wait`) in serving library
/// code outside tests. Use the `_timeout` variants — or suppress with a
/// reason where indefinite blocking is the documented contract.
pub fn qd008(sf: &SourceFile) -> Vec<Finding> {
    if !QD008_CRATES.iter().any(|p| sf.path.contains(p)) {
        return Vec::new();
    }
    let toks = &sf.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident || !QD008_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        // Invocation only: `.wait(` / `::recv(` — receiver or path call
        // followed by an argument list. Definitions (`fn wait(`) and
        // bare mentions (doc links, field names) stay legal.
        let invoked = i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "::");
        if !invoked || toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        out.push(finding(
            "QD008",
            sf,
            t.line,
            format!(
                "unbounded blocking `{}()` in serving code — a stuck worker becomes a stuck caller; use the `_timeout` variant (or suppress with a reason where indefinite blocking is the documented contract)",
                t.text
            ),
        ));
    }
    out
}

/// Recorder functions whose first string-literal argument is a metric
/// name subject to the QD013 catalog (`span` is the macro form).
const QD013_RECORDERS: &[&str] = &[
    "counter", "counter_with", "event", "flight_event", "gauge", "observe", "observe_with",
    "op_timer", "series_observe", "span", "trace",
];

/// All string literals on one source line, in order. The lexer drops
/// literal contents, so QD013 re-reads them from the raw line; escape
/// pairs are kept verbatim (metric names contain none).
fn string_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur: Option<String> = None;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match (&mut cur, c) {
            (Some(s), '"') => {
                out.push(std::mem::take(s));
                cur = None;
            }
            (Some(s), '\\') => {
                s.push('\\');
                if let Some(e) = chars.next() {
                    s.push(e);
                }
            }
            (Some(s), c) => s.push(c),
            (None, '"') => cur = Some(String::new()),
            (None, _) => {}
        }
    }
    out
}

/// The `METRIC_NAMES` literals from `crates/obs/src/names.rs`: every
/// string between the table opener and its closing `];`.
fn qd013_catalog(nf: &SourceFile) -> std::collections::BTreeSet<String> {
    let mut allowed = std::collections::BTreeSet::new();
    let mut in_table = false;
    for l in &nf.src_lines {
        if !in_table {
            in_table = l.contains("METRIC_NAMES");
            continue;
        }
        if l.trim_start().starts_with("];") {
            break;
        }
        allowed.extend(string_literals(l));
    }
    allowed
}

/// QD013: every metric-name literal handed to a recorder
/// (`counter`/`gauge`/`observe`/`event`/`trace`/`op_timer`/`span!`, the
/// `_with` variants, and the run-registry forms
/// `series_observe`/`flight_event`) must appear in the checked-in catalog
/// (`crates/obs/src/names.rs`). Cross-file: needs the catalog source,
/// so it runs from [`crate::analyze_sources`], not [`check_file`].
/// Method calls (`snap.counter(…)` lookups), test code, files outside
/// `src/`, and dynamically-built names are out of scope.
pub fn qd013(files: &[SourceFile]) -> Vec<Finding> {
    let names = files.iter().find(|f| f.path.ends_with("crates/obs/src/names.rs"));
    // (site, recorder, extracted name) for every literal-named record call.
    let mut sites: Vec<(Finding, String)> = Vec::new();
    for sf in files {
        if !sf.path.contains("/src/") || sf.path.ends_with("crates/obs/src/names.rs") {
            continue;
        }
        let toks = &sf.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.in_test
                || t.kind != TokKind::Ident
                || !QD013_RECORDERS.contains(&t.text.as_str())
            {
                continue;
            }
            if i > 0 && toks[i - 1].text == "." {
                continue; // method call (e.g. snapshot lookups), not a recorder
            }
            // `span` is the macro form `span!(…)`; the rest are calls.
            let open = if t.text == "span" {
                if toks.get(i + 1).is_none_or(|n| n.text != "!") {
                    continue;
                }
                i + 2
            } else {
                i + 1
            };
            if toks.get(open).is_none_or(|o| o.text != "(") {
                continue;
            }
            let Some(arg) = toks.get(open + 1) else { continue };
            if arg.kind != TokKind::Str {
                continue; // dynamically-built name: not statically checkable
            }
            // The lexer drops literal contents; recover the name from the
            // raw source line by position among that line's literals.
            let nth = toks[..=open + 1]
                .iter()
                .filter(|x| x.kind == TokKind::Str && x.line == arg.line)
                .count()
                .saturating_sub(1);
            let Some(name) = sf
                .src_lines
                .get(arg.line as usize - 1)
                .map(|l| string_literals(l))
                .and_then(|ls| ls.get(nth).cloned())
            else {
                continue;
            };
            let f = finding(
                "QD013",
                sf,
                t.line,
                format!(
                    "metric name \"{name}\" recorded by `{}` is not in the catalog — add it to METRIC_NAMES in crates/obs/src/names.rs and to crates/obs/METRICS.md",
                    t.text
                ),
            );
            sites.push((f, name));
        }
    }
    let Some(nf) = names else {
        // No catalog at all: one finding, but only when there is
        // actually a recorded name it would have to vouch for.
        if sites.is_empty() {
            return Vec::new();
        }
        return vec![Finding {
            rule: "QD013",
            path: "crates/obs/src/names.rs".into(),
            line: 1,
            message: "metric-name catalog missing: crates/obs/src/names.rs must define \
                      METRIC_NAMES so recorded names can be checked"
                .into(),
            snippet: String::new(),
        }];
    };
    let allowed = qd013_catalog(nf);
    sites.into_iter().filter(|(_, name)| !allowed.contains(name)).map(|(f, _)| f).collect()
}

/// Runs every per-file rule on one source file.
pub fn check_file(sf: &SourceFile) -> Vec<Finding> {
    let mut out = qd001(sf);
    out.extend(qd002(sf));
    out.extend(qd004(sf));
    out.extend(qd005(sf));
    out.extend(qd006(sf));
    out.extend(qd007(sf));
    out.extend(qd008(sf));
    out
}

/// Every rule id this engine implements, in catalog order. The
/// `--self-check` CLI mode (and CI) asserts this list and the catalog
/// agree exactly, so a rule can't land without documentation or vice
/// versa. QD000 and QD012 are meta-rules implemented in
/// [`crate::analyze_sources`]; QD003 is the cross-file gradient-check
/// rule; QD009–QD011 are the interprocedural rules below.
pub const IMPLEMENTED_IDS: &[&str] = &[
    "QD000", "QD001", "QD002", "QD003", "QD004", "QD005", "QD006", "QD007",
    "QD008", "QD009", "QD010", "QD011", "QD012", "QD013",
];

/// Crates whose panic sites are in scope for QD009. Panics in
/// `crates/tensor` / `crates/nn` are bounded-by-construction shape
/// asserts on the training path and stay QD001's (per-file) problem.
const QD009_PANIC_CRATES: &[&str] = &["crates/serve/", "crates/core/", "crates/obs/"];

/// Is this function a serving-path entry point for QD009?
fn qd009_entry(f: &FnSym) -> bool {
    f.file.starts_with("crates/serve/src/")
        || (f.owner.as_deref() == Some("OnlineStage") && f.name.starts_with("try_"))
        || f.name == "predict_scores_batch"
}

fn snippet_at(files: &[SourceFile], path: &str, line: u32) -> String {
    files
        .iter()
        .find(|s| s.path == path)
        .map(|s| s.snippet(line))
        .unwrap_or_default()
}

/// QD009: transitive panic-reachability. Walks shortest call chains
/// from every serving entry point; a `panic!`-family macro or
/// `unwrap`/`expect` call in any transitively-reached function (in the
/// serve/core/obs crates) is reported at the panic site, carrying one
/// shortest entry chain in the message. Direct panics (chain length 1)
/// are QD001's job and are skipped here.
pub fn qd009(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    use std::collections::BTreeMap;
    // Panic site → (chain labels, panic kind). Keeps the shortest chain
    // over all entries, ties broken lexicographically, so output is
    // deterministic and one suppression at the site covers every chain.
    let mut best: BTreeMap<(String, u32), (Vec<String>, String)> = BTreeMap::new();
    let mut entries: Vec<usize> =
        (0..g.fns.len()).filter(|&i| qd009_entry(&g.fns[i])).collect();
    entries.sort_by_key(|&i| g.label(i));
    for e in entries {
        let pred = g.shortest_chains(e);
        for (&target, _) in pred.iter() {
            if target == e {
                continue;
            }
            let f = &g.fns[target];
            if !QD009_PANIC_CRATES.iter().any(|c| f.file.starts_with(c)) {
                continue;
            }
            for p in &f.panics {
                let chain = g.chain_labels(e, target, &pred);
                let key = (f.file.clone(), p.line);
                let better = match best.get(&key) {
                    None => true,
                    Some((old, _)) => {
                        chain.len() < old.len() || (chain.len() == old.len() && chain < *old)
                    }
                };
                if better {
                    best.insert(key, (chain, p.what.clone()));
                }
            }
        }
    }
    best.into_iter()
        .map(|((path, line), (chain, what))| Finding {
            rule: "QD009",
            snippet: snippet_at(files, &path, line),
            message: format!(
                "`{}` here is reachable from serving entry point `{}` via call chain `{}` — a panic anywhere on this chain aborts the engine; return a typed error instead (or suppress here with the reason this site can in fact never panic)",
                what,
                chain[0],
                chain.join(" → "),
            ),
            path,
            line,
        })
        .collect()
}

/// QD010: static lock-order inversion. Builds the workspace
/// acquired-after graph (including acquisitions reached through calls
/// made while a guard is held) and reports every edge that sits on a
/// cycle, together with a witness edge for the opposite order.
pub fn qd010(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    use std::collections::BTreeSet;
    let edges = callgraph::lock_order_edges(g);
    let reach = callgraph::lock_reachability(&edges);
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for e in &edges {
        if !reach.get(&e.to).is_some_and(|r| r.contains(&e.from)) {
            continue; // this edge is not on a cycle
        }
        let pair = if e.from < e.to {
            (e.from.clone(), e.to.clone())
        } else {
            (e.to.clone(), e.from.clone())
        };
        if !reported.insert(pair) {
            continue;
        }
        // A witness for the reverse direction: an edge out of `e.to`
        // that leads back to `e.from`.
        let witness = edges.iter().find(|w| {
            w.from == e.to
                && (w.to == e.from
                    || reach.get(&w.to).is_some_and(|r| r.contains(&e.from)))
        });
        let via = |v: &Option<String>| match v {
            Some(callee) => format!(" (via call to `{callee}`)"),
            None => String::new(),
        };
        let wtxt = match witness {
            Some(w) => format!(
                "`{}` is acquired while holding `{}` at {}:{}{}",
                w.to, w.from, w.file, w.line, via(&w.via)
            ),
            None => format!("`{}` transitively reaches `{}`", e.to, e.from),
        };
        out.push(Finding {
            rule: "QD010",
            path: e.file.clone(),
            line: e.line,
            message: format!(
                "lock-order inversion: `{}` is acquired while holding `{}` here{}, but {} — two threads interleaving these orders deadlock; impose one global order (or suppress with the reason the orders can never interleave)",
                e.to, e.from, via(&e.via), wtxt
            ),
            snippet: snippet_at(files, &e.file, e.line),
        });
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    out
}

/// QD011: blocking while holding a lock guard — directly, or through a
/// call whose transitive closure contains a blocking site.
pub fn qd011(files: &[SourceFile], g: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &g.fns {
        for b in &f.blocks {
            if b.held.is_empty() {
                continue;
            }
            out.push(Finding {
                rule: "QD011",
                path: f.file.clone(),
                line: b.line,
                message: format!(
                    "blocking `{}()` while holding guard(s) `{}` — every thread needing the lock stalls for the full block; drop the guard first (condvar waits that release the guard are the sanctioned suppression)",
                    b.what,
                    b.held.join("`, `"),
                ),
                snippet: snippet_at(files, &f.file, b.line),
            });
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for callee in
                g.resolve(&call.name, call.qualifier.as_deref(), call.method, f.owner.as_deref())
            {
                // One finding per call site, naming the first (sorted)
                // transitively-reached blocking site as the exemplar.
                if let Some(blk) = g.blocks_transitively(callee).iter().next() {
                    out.push(Finding {
                        rule: "QD011",
                        path: f.file.clone(),
                        line: call.line,
                        message: format!(
                            "call to `{}` while holding guard(s) `{}` reaches blocking `{}()` at {}:{} — every thread needing the lock stalls for the full block; drop the guard before the call",
                            call.name,
                            call.held.join("`, `"),
                            blk.what,
                            blk.file,
                            blk.line,
                        ),
                        snippet: snippet_at(files, &f.file, call.line),
                    });
                    break;
                }
            }
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn scan(path: &str, src: &str) -> SourceFile {
        SourceFile::scan(path, src)
    }

    // ---- QD001 ----

    #[test]
    fn qd001_bad_panic_family_on_serving_path() {
        let sf = scan(
            "crates/core/src/serve.rs",
            r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("msg");
    if a == 0 { panic!("boom"); }
    unreachable!()
}
"#,
        );
        let f = qd001(&sf);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "QD001"));
        assert_eq!(f[0].line, 3);
        assert!(f[0].snippet.contains("unwrap"));
    }

    #[test]
    fn qd001_bad_indexing_on_serving_path() {
        let sf = scan(
            "crates/core/src/persist.rs",
            "fn f(v: &[f32], i: usize) -> f32 { v[i] + g()[0] }\n",
        );
        let f = qd001(&sf);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn qd001_good_no_false_positives() {
        let sf = scan(
            "crates/core/src/serve.rs",
            r#"
#[derive(Debug)]
struct S { xs: Vec<f32> }
fn f(v: &[f32], i: usize) -> Result<f32, ()> {
    // unwrap() discussed in a comment is fine
    let msg = "do not unwrap() in serving";
    let arr = [0u8; 4];
    let y = vec![1, 2];
    let first = v.get(i).copied().ok_or(())?;
    let or = Some(1).unwrap_or(0) + Some(2).unwrap_or_default();
    Ok(first + msg.len() as f32 + arr.len() as f32 + y.len() as f32 + or as f32)
}
"#,
        );
        assert!(qd001(&sf).is_empty(), "{:?}", qd001(&sf));
    }

    #[test]
    fn qd001_models_get_panic_subset_only() {
        let sf = scan(
            "crates/core/src/models/blocks.rs",
            "fn f(v: &[f32]) -> f32 { let x = v[0]; x }\nfn g() { panic!(\"no\"); }\n",
        );
        let f = qd001(&sf);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("panic"));
    }

    #[test]
    fn qd001_test_code_is_exempt() {
        let sf = scan(
            "crates/core/src/serve.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n",
        );
        assert!(qd001(&sf).is_empty());
    }

    #[test]
    fn qd001_not_enforced_elsewhere() {
        let sf = scan("crates/tensor/src/dense.rs", "fn f() { None::<u32>.unwrap(); }\n");
        assert!(qd001(&sf).is_empty());
    }

    // ---- QD002 ----

    #[test]
    fn qd002_bad_float_equality() {
        let sf = scan(
            "crates/x/src/a.rs",
            "fn f(x: f32) -> bool { x == 0.0 || x != 1e-3 || -0.5 == x || x == -2.0f32 }\n",
        );
        assert_eq!(qd002(&sf).len(), 4);
    }

    #[test]
    fn qd002_good_integers_and_tolerances() {
        let sf = scan(
            "crates/x/src/a.rs",
            "fn f(x: f32, n: usize) -> bool { n == 0 || n != 0xFF || (x - 0.5).abs() < 1e-6 }\n",
        );
        assert!(qd002(&sf).is_empty(), "{:?}", qd002(&sf));
    }

    // ---- QD003 ----

    const TAPE_SNIPPET: &str = "
pub enum Op {
    Leaf,
    Matmul { a: usize, b: usize },
    Add(usize, usize),
    #[allow(dead_code)]
    ColMean { x: usize },
}
";

    #[test]
    fn qd003_bad_uncovered_op() {
        let tape = scan("crates/tensor/src/tape.rs", TAPE_SNIPPET);
        let props = scan("tests/properties.rs", "fn fd_matmul() {}\nfn fd_add() {}\n");
        let f = qd003(&tape, Some(&props));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ColMean"));
    }

    #[test]
    fn qd003_good_all_covered() {
        let tape = scan("crates/tensor/src/tape.rs", TAPE_SNIPPET);
        let props = scan(
            "tests/properties.rs",
            "fn fd_matmul() {}\nfn fd_add() {}\nfn fd_col_mean() {}\n",
        );
        assert!(qd003(&tape, Some(&props)).is_empty());
    }

    #[test]
    fn qd003_missing_properties_reports_every_op() {
        let tape = scan("crates/tensor/src/tape.rs", TAPE_SNIPPET);
        assert_eq!(qd003(&tape, None).len(), 3);
    }

    // ---- QD004 ----

    #[test]
    fn qd004_bad_wall_clock_and_entropy() {
        let sf = scan(
            "crates/core/src/train.rs",
            "fn f() {\n    let t = SystemTime::now();\n    let mut r = thread_rng();\n    let s = StdRng::from_entropy();\n}\n",
        );
        assert_eq!(qd004(&sf).len(), 3);
    }

    #[test]
    fn qd004_good_instant_and_seeded() {
        let sf = scan(
            "crates/core/src/train.rs",
            "fn f(seed: u64) {\n    let t = Instant::now();\n    let r = StdRng::seed_from_u64(seed);\n}\n",
        );
        assert!(qd004(&sf).is_empty());
    }

    // ---- QD005 ----

    #[test]
    fn qd005_bad_nested_locks() {
        let sf = scan(
            "crates/core/src/train.rs",
            "fn f() {\n    let a = m1.lock();\n    let b = m2.lock();\n}\n",
        );
        let f = qd005(&sf);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn qd005_bad_guard_across_scope() {
        let sf = scan(
            "crates/core/src/train.rs",
            "fn f() {\n    let g = m.lock();\n    crossbeam::thread::scope(|s| {});\n}\n",
        );
        // Both the `crossbeam` and `scope` tokens fire while the guard is live.
        assert!(!qd005(&sf).is_empty());
    }

    #[test]
    fn qd005_good_sequential_and_temporary() {
        let sf = scan(
            "crates/core/src/train.rs",
            "
fn f() {
    results.lock().push(1);
    results.lock().push(2);
    { let a = m1.lock(); }
    let b = m2.lock();
    drop(b);
    crossbeam::thread::scope(|s| {
        s.spawn(|_| { results.lock().push(3); });
    });
}
",
        );
        assert!(qd005(&sf).is_empty(), "{:?}", qd005(&sf));
    }

    // ---- QD006 ----

    #[test]
    fn qd006_bad_prints_in_library_code() {
        let sf = scan(
            "crates/core/src/train.rs",
            "fn f(x: u32) {\n    println!(\"{x}\");\n    eprintln!(\"warn\");\n    dbg!(x);\n}\n",
        );
        let f = qd006(&sf);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "QD006"));
        assert!(f[1].message.contains("eprintln"));
    }

    #[test]
    fn qd006_good_tests_and_non_invocations() {
        let sf = scan(
            "crates/tensor/src/tape.rs",
            r#"
// println! in a comment is fine
fn f() {
    let s = "eprintln! inside a string";
    custom::println!("path-qualified macro from another crate");
    let _ = s;
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { println!("test output is fine"); }
}
"#,
        );
        assert!(qd006(&sf).is_empty(), "{:?}", qd006(&sf));
    }

    #[test]
    fn qd006_not_enforced_outside_library_crates() {
        let sf = scan(
            "crates/experiments/src/bin/table2.rs",
            "fn main() { println!(\"table\"); eprintln!(\"banner\"); }\n",
        );
        assert!(qd006(&sf).is_empty());
    }

    // ---- QD007 ----

    #[test]
    fn qd007_bad_instant_now_in_library_code() {
        let sf = scan(
            "crates/core/src/interactive.rs",
            "use std::time::Instant;\nfn f() -> u64 {\n    let t = Instant::now();\n    std::time::Instant::now().elapsed().as_micros() as u64 + t.elapsed().as_micros() as u64\n}\n",
        );
        let f = qd007(&sf);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "QD007"));
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("wall_micros"));
    }

    #[test]
    fn qd007_good_injected_clock_and_tests() {
        let sf = scan(
            "crates/core/src/train.rs",
            r#"
// Instant::now() in a comment is fine
fn f() -> u64 {
    qdgnn_obs::clock::wall_micros()
}
struct Holder { at: std::time::Instant }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = std::time::Instant::now(); }
}
"#,
        );
        assert!(qd007(&sf).is_empty(), "{:?}", qd007(&sf));
    }

    #[test]
    fn qd007_not_enforced_outside_library_crates() {
        for path in ["crates/obs/src/clock.rs", "crates/experiments/src/bin/table2.rs"] {
            let sf = scan(path, "fn f() { let _ = std::time::Instant::now(); }\n");
            assert!(qd007(&sf).is_empty(), "{path} should be exempt");
        }
    }

    // ---- QD008 ----

    #[test]
    fn qd008_bad_unbounded_blocking_in_serving_code() {
        let sf = scan(
            "crates/serve/src/engine.rs",
            "fn f(cv: &Condvar, g: G, rx: &Receiver<u8>, p: Pending) {\n    let _g = cv.wait(g);\n    let _v = rx.recv();\n    let _r = p.wait();\n}\n",
        );
        let f = qd008(&sf);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "QD008"));
        assert!(f[0].message.contains("_timeout"));
        assert_eq!((f[0].line, f[1].line, f[2].line), (2, 3, 4));
    }

    #[test]
    fn qd008_good_bounded_variants_definitions_and_tests() {
        let sf = scan(
            "crates/serve/src/engine.rs",
            r#"
// cv.wait(g) in a comment is fine
pub fn wait(self) -> Reply { todo!() }
fn f(cv: &Condvar, g: G, rx: &Receiver<u8>) {
    let _ = cv.wait_timeout(g, d);
    let _ = rx.recv_timeout(d);
    let _ = rx.try_recv();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t(p: Pending, rx: Receiver<u8>) { let _ = p.wait(); let _ = rx.recv(); }
}
"#,
        );
        assert!(qd008(&sf).is_empty(), "{:?}", qd008(&sf));
    }

    #[test]
    fn qd008_not_enforced_outside_serving_library() {
        for path in ["crates/core/src/train.rs", "crates/serve/bin/main.rs"] {
            let sf = scan(path, "fn f(rx: &Receiver<u8>) { let _ = rx.recv(); }\n");
            assert!(qd008(&sf).is_empty(), "{path} should be exempt");
        }
    }

    #[test]
    fn qd005_io_write_not_flagged_without_rwlock() {
        let sf = scan(
            "crates/tensor/src/dense.rs",
            "fn f(w: &mut W) {\n    let g = m.lock();\n    w.write(b\"x\");\n}\n",
        );
        assert!(qd005(&sf).is_empty(), "{:?}", qd005(&sf));
    }

    // ---- QD009 (interprocedural) ----

    fn interproc(files: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let sfs: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::scan(p, s)).collect();
        let g = CallGraph::build(&sfs);
        (sfs, g)
    }

    #[test]
    fn qd009_bad_panic_reached_across_crates_carries_full_chain() {
        let (files, g) = interproc(&[
            (
                "crates/serve/src/engine.rs",
                "fn handle(q: Query) { route(q); }\n",
            ),
            (
                "crates/core/src/dispatch.rs",
                "fn route(q: Query) { score(q); }\n",
            ),
            (
                "crates/core/src/scoring.rs",
                "fn score(q: Query) -> f32 { q.weights.unwrap().total() }\n",
            ),
        ]);
        let f = qd009(&files, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "QD009");
        assert_eq!(f[0].path, "crates/core/src/scoring.rs");
        assert!(
            f[0].message.contains("`handle → route → score`"),
            "full chain must be in the message: {}",
            f[0].message
        );
        assert!(f[0].message.contains("`unwrap`"), "{}", f[0].message);
    }

    #[test]
    fn qd009_bad_online_stage_try_entry_is_covered() {
        let (files, g) = interproc(&[(
            "crates/core/src/serve.rs",
            "
impl OnlineStage {
    pub fn try_query(&self) { helper(); }
}
fn helper() { panic!(\"boom\"); }
",
        )]);
        let f = qd009(&files, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`OnlineStage::try_query`"), "{}", f[0].message);
        assert!(f[0].message.contains("`panic!`"), "{}", f[0].message);
    }

    #[test]
    fn qd009_good_direct_panics_and_non_entry_chains_are_not_its_job() {
        let (files, g) = interproc(&[
            // Direct panic in an entry: QD001's finding, not QD009's.
            ("crates/serve/src/lib.rs", "fn direct(x: Option<u8>) { x.unwrap(); }\n"),
            // Chain rooted outside any entry point.
            ("crates/core/src/train.rs", "fn train_step() { offline(); }\n"),
            ("crates/core/src/util.rs", "fn offline() { panic!(\"offline only\"); }\n"),
        ]);
        assert!(qd009(&files, &g).is_empty(), "{:?}", qd009(&files, &g));
    }

    #[test]
    fn qd009_good_panics_outside_domain_crates_are_ignored() {
        let (files, g) = interproc(&[
            ("crates/serve/src/engine.rs", "fn handle() { shape_check(); }\n"),
            ("crates/tensor/src/dense.rs", "fn shape_check() { assert_shapes(); x.unwrap(); }\n"),
        ]);
        assert!(qd009(&files, &g).is_empty(), "{:?}", qd009(&files, &g));
    }

    // ---- QD010 (interprocedural) ----

    #[test]
    fn qd010_bad_seeded_inversion_two_locks_opposite_orders() {
        // The static twin of the runtime lockcheck seeded-inversion test:
        // thread 1 takes alpha then beta, thread 2 takes beta then alpha.
        let (files, g) = interproc(&[(
            "crates/core/src/state.rs",
            "
fn thread_one(s: &Shared) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
}
fn thread_two(s: &Shared) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
}
",
        )]);
        let f = qd010(&files, &g);
        assert_eq!(f.len(), 1, "one finding per inverted pair: {f:?}");
        assert_eq!(f[0].rule, "QD010");
        assert!(f[0].message.contains("lock-order inversion"), "{}", f[0].message);
        // Both acquisition sites must be named.
        assert!(f[0].message.contains("crates/core/src/state.rs:8"), "{}", f[0].message);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn qd010_bad_inversion_through_a_call_is_caught() {
        let (files, g) = interproc(&[(
            "crates/core/src/state.rs",
            "
fn one(s: &Shared) {
    let a = s.alpha.lock();
    grab_beta(s);
}
fn grab_beta(s: &Shared) { let b = s.beta.lock(); }
fn two(s: &Shared) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
}
",
        )]);
        let f = qd010(&files, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("via call to `grab_beta`")
                || f[0].message.contains("crates/core/src/state.rs:4"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn qd010_good_consistent_global_order_is_clean() {
        let (files, g) = interproc(&[(
            "crates/core/src/state.rs",
            "
fn one(s: &Shared) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
}
fn two(s: &Shared) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
}
",
        )]);
        assert!(qd010(&files, &g).is_empty(), "{:?}", qd010(&files, &g));
    }

    // ---- QD011 (interprocedural) ----

    #[test]
    fn qd011_bad_direct_blocking_while_holding_guard() {
        let (files, g) = interproc(&[(
            "crates/core/src/state.rs",
            "
fn f(s: &Shared, rx: &Receiver<u8>) {
    let g = s.state.lock();
    let _ = rx.recv_timeout(d);
}
",
        )]);
        let f = qd011(&files, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`recv_timeout()`"), "{}", f[0].message);
        assert!(f[0].message.contains("`state`"), "{}", f[0].message);
    }

    #[test]
    fn qd011_bad_blocking_reached_through_call_chain() {
        let (files, g) = interproc(&[(
            "crates/core/src/state.rs",
            "
fn f(s: &Shared) {
    let g = s.state.lock();
    drain(s);
}
fn drain(s: &Shared) { s.rx.recv_timeout(d); }
",
        )]);
        let f = qd011(&files, &g);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("call to `drain`"), "{}", f[0].message);
        assert!(f[0].message.contains("recv_timeout"), "{}", f[0].message);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn qd011_good_guard_dropped_before_blocking() {
        let (files, g) = interproc(&[(
            "crates/core/src/state.rs",
            "
fn f(s: &Shared, rx: &Receiver<u8>) {
    let g = s.state.lock();
    drop(g);
    let _ = rx.recv_timeout(d);
}
fn scoped(s: &Shared, rx: &Receiver<u8>) {
    {
        let g = s.state.lock();
    }
    let _ = rx.recv_timeout(d);
}
",
        )]);
        assert!(qd011(&files, &g).is_empty(), "{:?}", qd011(&files, &g));
    }

    // ---- catalog/rules drift ----

    #[test]
    fn implemented_ids_match_catalog_exactly() {
        let catalog_ids: Vec<&str> = crate::catalog::RULES.iter().map(|r| r.id).collect();
        assert_eq!(IMPLEMENTED_IDS, catalog_ids.as_slice());
    }

    fn qd013_names_file() -> SourceFile {
        SourceFile::scan(
            "crates/obs/src/names.rs",
            "pub const METRIC_NAMES: &[&str] = &[\n    \"serve.good\",\n];\n",
        )
    }

    #[test]
    fn qd013_flags_uncatalogued_names_and_accepts_catalogued_ones() {
        let bad = SourceFile::scan(
            "crates/serve/src/engine.rs",
            "fn f() { qdgnn_obs::counter(\"serve.evil\").inc(); let _s = qdgnn_obs::span!(\"serve.good\"); }\n",
        );
        let f = qd013(&[qd013_names_file(), bad]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "QD013");
        assert!(f[0].message.contains("serve.evil"), "{}", f[0].message);
    }

    #[test]
    fn qd013_extracts_the_right_literal_when_several_share_a_line() {
        let bad = SourceFile::scan(
            "crates/serve/src/engine.rs",
            "fn f() { qdgnn_obs::counter_with(\"serve.bad\", &[(\"tenant\", \"acme\")]).inc(); }\n",
        );
        let f = qd013(&[qd013_names_file(), bad]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("\"serve.bad\""),
            "must name the metric literal, not a label: {}",
            f[0].message
        );
    }

    #[test]
    fn qd013_covers_run_registry_recorders() {
        let bad = SourceFile::scan(
            "crates/core/src/train.rs",
            "fn f() {\n    qdgnn_obs::runs::series_observe(\"train.rogue\", 0, 1.0);\n    qdgnn_obs::runs::flight_event(\"serve.good\", &[]);\n}\n",
        );
        let f = qd013(&[qd013_names_file(), bad]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("train.rogue"), "{}", f[0].message);
        assert!(f[0].message.contains("series_observe"), "{}", f[0].message);
    }

    #[test]
    fn qd013_skips_method_calls_tests_and_dynamic_names() {
        let ok = SourceFile::scan(
            "crates/serve/src/engine.rs",
            "fn f(snap: &S, n: &str) {\n    snap.counter(\"not.a.recorder\");\n    qdgnn_obs::counter(n).inc();\n}\n#[cfg(test)]\nmod tests {\n    fn g() { qdgnn_obs::counter(\"t.test.only\").inc(); }\n}\n",
        );
        let f = qd013(&[qd013_names_file(), ok]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn qd013_reports_a_missing_catalog_file_only_when_names_are_recorded() {
        let quiet = SourceFile::scan("crates/serve/src/engine.rs", "fn f() {}\n");
        assert!(qd013(&[quiet]).is_empty(), "nothing recorded, nothing to vouch for");
        let loud = SourceFile::scan(
            "crates/serve/src/engine.rs",
            "fn f() { qdgnn_obs::counter(\"serve.x\").inc(); }\n",
        );
        let f = qd013(&[loud]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("names.rs"), "{}", f[0].message);
    }
}
