//! A lightweight, comment- and string-aware Rust scanner.
//!
//! This is not a full Rust lexer — it is exactly the subset the lint
//! rules in [`crate::rules`] need to run with ~no false positives on
//! this repository:
//!
//! * comments (line, nested block) and string/char literals are consumed
//!   and never produce rule-visible tokens, so a `panic!` inside a doc
//!   comment or an error message cannot trip a lint;
//! * raw strings (`r"…"`, `r#"…"#`), byte strings and lifetimes
//!   (`'a` vs `'a'`) are disambiguated;
//! * every token carries its line and brace depth, and `{`/`}` pairs
//!   carry *equal* depths so regions can be matched cheaply;
//! * `#[cfg(test)]` / `#[test]` items are detected and their bodies
//!   flagged, so rules can exclude test code;
//! * suppression comments (`// qdgnn-analyze: allow(QDxxx, reason = "…")`)
//!   are parsed into structured [`Suppression`] records.

/// Token classification (only as fine-grained as the rules require).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation; two-char operators (`==`, `!=`, …) are one token.
    Punct,
    /// Numeric literal (including suffix, e.g. `1.5e-3f32`).
    Num,
    /// String literal (content dropped; text is `"`).
    Str,
    /// Char literal (content dropped; text is `'`).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One scanned token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// The token text (empty for string/char literals).
    pub text: String,
    /// Classification.
    pub kind: TokKind,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// Brace depth; a `{` and its matching `}` share the same depth.
    pub depth: u32,
    /// Whether the token sits inside a `#[cfg(test)]` / `#[test]` body.
    pub in_test: bool,
}

/// A parsed `// qdgnn-analyze: allow(QDxxx, reason = "…")` comment.
///
/// The suppression covers findings of `rule` on its own line and on the
/// following line, so it can trail the offending statement or sit
/// directly above it.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Rule id being suppressed, e.g. `QD002`.
    pub rule: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The written reason; `None` is itself reported (QD000).
    pub reason: Option<String>,
}

/// A scanned source file, ready for rule evaluation.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Raw source lines (for finding snippets).
    pub src_lines: Vec<String>,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Suppression comments found in the file.
    pub suppressions: Vec<Suppression>,
    /// Whole file is test code (integration tests under `tests/`).
    pub all_test: bool,
}

impl SourceFile {
    /// Scans `src` as the file at `path` (workspace-relative).
    pub fn scan(path: &str, src: &str) -> SourceFile {
        let path = path.replace('\\', "/");
        let all_test = path.starts_with("tests/") || path.contains("/tests/");
        let (mut toks, suppressions) = lex(src);
        mark_test_regions(&mut toks);
        if all_test {
            for t in &mut toks {
                t.in_test = true;
            }
        }
        SourceFile {
            path,
            src_lines: src.lines().map(str::to_string).collect(),
            toks,
            suppressions,
            all_test,
        }
    }

    /// The trimmed source line (1-based), for finding snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.src_lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Core scanner: produces the token stream and suppression records.
fn lex(src: &str) -> (Vec<Tok>, Vec<Suppression>) {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut sups = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut depth = 0u32;

    macro_rules! push {
        ($text:expr, $kind:expr, $line:expr, $depth:expr) => {
            toks.push(Tok { text: $text, kind: $kind, line: $line, depth: $depth, in_test: false })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment: consume to EOL, checking for suppressions.
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                // Doc comments (`///`, `//!`) only *document* the
                // suppression syntax; a live suppression must be a
                // plain `//` comment.
                let is_doc = text.starts_with('/') || text.starts_with('!');
                if !is_doc {
                    if let Some(s) = parse_suppression(&text, line) {
                        sups.push(s);
                    }
                }
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comment.
                let mut nest = 1;
                let mut j = i + 2;
                while j < chars.len() && nest > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        nest += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        nest -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let tok_line = line;
                i = consume_string(&chars, i + 1, &mut line);
                push!("\"".to_string(), TokKind::Str, tok_line, depth);
            }
            'r' | 'b' if is_raw_or_byte_string(&chars, i) => {
                let tok_line = line;
                i = consume_raw_or_byte(&chars, i, &mut line);
                push!("\"".to_string(), TokKind::Str, tok_line, depth);
            }
            '\'' => {
                // Lifetime vs char literal.
                let next = chars.get(i + 1).copied().unwrap_or(' ');
                if is_ident_start(next) {
                    // Scan the identifier; a closing quote right after
                    // means a char literal like 'a', otherwise lifetime.
                    let mut j = i + 1;
                    while j < chars.len() && is_ident_cont(chars[j]) {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'\'') && j == i + 2 {
                        push!("'".to_string(), TokKind::Char, line, depth);
                        i = j + 1;
                    } else {
                        let text: String = chars[i..j].iter().collect();
                        push!(text, TokKind::Lifetime, line, depth);
                        i = j;
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '('…
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'\\') {
                        j += 2; // skip the escaped char
                        // \u{…} escapes
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                    } else if j < chars.len() {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'\'') {
                        j += 1;
                    }
                    push!("'".to_string(), TokKind::Char, line, depth);
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                let start = i;
                let hex = c == '0' && matches!(chars.get(i + 1), Some('x') | Some('X'));
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    if d.is_alphanumeric() || d == '_' {
                        // exponent sign: 1e-3 / 2.5E+7
                        if !hex && (d == 'e' || d == 'E') {
                            i += 1;
                            if matches!(chars.get(i), Some('+') | Some('-'))
                                && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                            {
                                i += 1;
                            }
                            continue;
                        }
                        i += 1;
                    } else if d == '.'
                        && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && !hex
                    {
                        i += 1; // decimal point (not a `..` range)
                    } else {
                        break;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                push!(text, TokKind::Num, tok_line, depth);
            }
            c if is_ident_start(c) => {
                let start = i;
                // Raw identifier `r#fn` / `r#impl`: one Ident token whose
                // text keeps the `r#` prefix, so keyword-shaped names can
                // never masquerade as the `fn`/`impl` keywords downstream
                // (the call-graph layer keys item detection on those).
                if c == 'r'
                    && chars.get(i + 1) == Some(&'#')
                    && chars.get(i + 2).copied().is_some_and(is_ident_start)
                {
                    i += 2;
                }
                while i < chars.len() && is_ident_cont(chars[i]) {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                push!(text, TokKind::Ident, line, depth);
            }
            '{' => {
                push!("{".to_string(), TokKind::Punct, line, depth);
                depth += 1;
                i += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                push!("}".to_string(), TokKind::Punct, line, depth);
                i += 1;
            }
            _ => {
                // Punctuation; merge the two-char operators rules care about.
                let pair: Option<&str> = match (c, chars.get(i + 1)) {
                    ('=', Some('=')) => Some("=="),
                    ('!', Some('=')) => Some("!="),
                    ('<', Some('=')) => Some("<="),
                    ('>', Some('=')) => Some(">="),
                    (':', Some(':')) => Some("::"),
                    ('-', Some('>')) => Some("->"),
                    ('=', Some('>')) => Some("=>"),
                    ('&', Some('&')) => Some("&&"),
                    ('|', Some('|')) => Some("||"),
                    _ => None,
                };
                match pair {
                    Some(p) => {
                        push!(p.to_string(), TokKind::Punct, line, depth);
                        i += 2;
                    }
                    None => {
                        push!(c.to_string(), TokKind::Punct, line, depth);
                        i += 1;
                    }
                }
            }
        }
    }
    (toks, sups)
}

/// Consumes a regular string body starting after the opening quote;
/// returns the index just past the closing quote.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// `r"…"`, `r#"…"#`, `br"…"`, `b"…"` starting at `i`?
fn is_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            return false; // byte char b'x' handled by the caller's next loop
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    chars.get(j) == Some(&'"') && j > i
}

/// Consumes a raw/byte string starting at its `r`/`b`; returns the index
/// just past the closing delimiter.
fn consume_raw_or_byte(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    if chars[i] == 'b' {
        i += 1;
    }
    let raw = chars.get(i) == Some(&'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    if !raw {
        return consume_string(chars, i, line);
    }
    // Raw string: no escapes; closes at `"` followed by `hashes` #'s.
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Parses one suppression comment body (text after `//`).
fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let rest = comment.split("qdgnn-analyze:").nth(1)?;
    let rest = rest.trim_start();
    let args = rest.strip_prefix("allow(")?;
    let rule: String = args
        .chars()
        .take_while(|c| c.is_alphanumeric())
        .collect();
    if rule.is_empty() {
        return None;
    }
    let reason = args.split_once("reason").and_then(|(_, r)| {
        let r = r.trim_start().strip_prefix('=')?.trim_start();
        let r = r.strip_prefix('"')?;
        let end = r.rfind('"')?;
        let text = r[..end].trim();
        if text.is_empty() {
            None
        } else {
            Some(text.to_string())
        }
    });
    Some(Suppression { rule, line, reason })
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` item bodies.
///
/// An attribute taints the next brace-delimited body — `mod tests { … }`,
/// `fn case() { … }` — when its bracket group mentions the identifier
/// `test` *positively*, i.e. not underneath a `not(…)` scope. That
/// covers `#[test]`, `#[cfg(test)]`, and the combinators
/// `#[cfg(all(test, …))]` / `#[cfg(any(test, …))]` (with or without
/// sibling `not(…)` clauses), while `#[cfg(not(test))]` stays live
/// code. A top-level `;` before the `{` aborts (attribute on a
/// brace-less item).
fn mark_test_regions(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks[i].kind == TokKind::Punct {
            // Skip inner-attribute bang: #![…]
            let mut j = i + 1;
            if j < toks.len() && toks[j].text == "!" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "[" {
                // Collect the attribute's bracket group, tracking paren
                // nesting so `not(…)` scopes can be recognized: `test`
                // counts only outside every `not(…)`.
                let mut brackets = 1;
                let mut has_test = false;
                let mut paren_depth = 0u32;
                let mut not_scopes: Vec<u32> = Vec::new();
                let mut prev_was_not = false;
                let mut k = j + 1;
                while k < toks.len() && brackets > 0 {
                    let was_not = prev_was_not;
                    prev_was_not = false;
                    match toks[k].text.as_str() {
                        "[" => brackets += 1,
                        "]" => brackets -= 1,
                        "(" => {
                            paren_depth += 1;
                            if was_not {
                                not_scopes.push(paren_depth);
                            }
                        }
                        ")" => {
                            if not_scopes.last() == Some(&paren_depth) {
                                not_scopes.pop();
                            }
                            paren_depth = paren_depth.saturating_sub(1);
                        }
                        "test" if toks[k].kind == TokKind::Ident && not_scopes.is_empty() => {
                            has_test = true;
                        }
                        "not" if toks[k].kind == TokKind::Ident => prev_was_not = true,
                        _ => {}
                    }
                    k += 1;
                }
                if has_test {
                    // Find the item body: the first `{` before any
                    // top-level `;`.
                    let mut m = k;
                    let mut parens = 0i32;
                    while m < toks.len() {
                        match toks[m].text.as_str() {
                            "(" | "[" => parens += 1,
                            ")" | "]" => parens -= 1,
                            ";" if parens == 0 => break,
                            "{" if parens == 0 => {
                                let open_depth = toks[m].depth;
                                let mut e = m + 1;
                                while e < toks.len()
                                    && !(toks[e].text == "}" && toks[e].depth == open_depth)
                                {
                                    e += 1;
                                }
                                let end = e.min(toks.len() - 1);
                                for t in &mut toks[m..=end] {
                                    t.in_test = true;
                                }
                                break;
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_produce_no_rule_tokens() {
        let sf = SourceFile::scan(
            "x.rs",
            r##"
// a panic! in a comment
/* unwrap() in /* nested */ block */
fn f() {
    let s = "panic!(\"quoted\")";
    let r = r#"unwrap() raw "str" body"#;
    let c = '\'';
}
"##,
        );
        assert!(sf.toks.iter().all(|t| t.text != "panic" && t.text != "unwrap"));
        // The `(` from the char literal line must not leak.
        assert!(sf.toks.iter().filter(|t| t.kind == TokKind::Str).count() == 2);
    }

    #[test]
    fn depth_pairs_match_and_lines_advance() {
        let sf = SourceFile::scan("x.rs", "fn f() {\n    { let x = 1; }\n}\n");
        let opens: Vec<&Tok> = sf.toks.iter().filter(|t| t.text == "{").collect();
        let closes: Vec<&Tok> = sf.toks.iter().filter(|t| t.text == "}").collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(opens[0].depth, 0);
        assert_eq!(opens[1].depth, 1);
        assert_eq!(closes[0].depth, 1);
        assert_eq!(closes[1].depth, 0);
        assert_eq!(closes[1].line, 3);
    }

    #[test]
    fn cfg_test_bodies_are_marked() {
        let src = "
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn live2() { z.unwrap(); }
";
        let sf = SourceFile::scan("x.rs", src);
        let unwraps: Vec<&Tok> = sf.toks.iter().filter(|t| t.text == "unwrap").collect();
        assert_eq!(unwraps.len(), 3);
        assert!(!unwraps[0].in_test);
        assert!(unwraps[1].in_test);
        assert!(!unwraps[2].in_test);
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let sf = SourceFile::scan("x.rs", src);
        assert!(sf.toks.iter().filter(|t| t.text == "unwrap").all(|t| !t.in_test));
    }

    #[test]
    fn cfg_all_and_any_combinators_are_test_regions() {
        for attr in [
            "#[cfg(all(test, feature = \"chaos\"))]",
            "#[cfg(any(test, feature = \"chaos\"))]",
            "#[cfg(all(test, not(feature = \"chaos\")))]",
        ] {
            let src = format!("{attr}\nmod helpers {{ fn t() {{ x.unwrap(); }} }}\nfn live() {{ y.unwrap(); }}\n");
            let sf = SourceFile::scan("x.rs", &src);
            let unwraps: Vec<&Tok> = sf.toks.iter().filter(|t| t.text == "unwrap").collect();
            assert_eq!(unwraps.len(), 2, "{attr}");
            assert!(unwraps[0].in_test, "{attr}: combinator body must be a test region");
            assert!(!unwraps[1].in_test, "{attr}: following item must stay live");
        }
    }

    #[test]
    fn cfg_not_wrapping_combinators_stays_live() {
        for attr in ["#[cfg(not(all(test, unix)))]", "#[cfg(not(any(test, unix)))]"] {
            let src = format!("{attr}\nfn live() {{ x.unwrap(); }}\n");
            let sf = SourceFile::scan("x.rs", &src);
            assert!(
                sf.toks.iter().filter(|t| t.text == "unwrap").all(|t| !t.in_test),
                "{attr}: negated test cfg must stay live"
            );
        }
    }

    #[test]
    fn raw_identifiers_lex_as_single_tokens() {
        let sf = SourceFile::scan("x.rs", "fn r#fn() { r#impl(); let r#let = 1; }\n");
        let idents: Vec<&str> = sf
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["fn", "r#fn", "r#impl", "let", "r#let"]);
        // No stray `#` token may leak out of a raw identifier, or the
        // test-region scanner could misparse it as an attribute start.
        assert!(sf.toks.iter().all(|t| t.text != "#"));
    }

    #[test]
    fn raw_strings_still_lex_after_raw_identifier_support() {
        let sf = SourceFile::scan("x.rs", "let a = r#\"panic!() inside\"#; let b = r#ident;\n");
        assert_eq!(sf.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(sf.toks.iter().any(|t| t.text == "r#ident"));
        assert!(sf.toks.iter().all(|t| t.text != "panic"));
    }

    #[test]
    fn lifetimes_do_not_swallow_code() {
        let sf = SourceFile::scan("x.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(sf.toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(sf.toks.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn suppressions_parse_with_and_without_reason() {
        let src = "
let a = x.unwrap(); // qdgnn-analyze: allow(QD009, reason = \"bounded by construction\")
// qdgnn-analyze: allow(QD002)
let b = y;
";
        let sf = SourceFile::scan("x.rs", src);
        assert_eq!(sf.suppressions.len(), 2);
        assert_eq!(sf.suppressions[0].rule, "QD009");
        assert_eq!(sf.suppressions[0].reason.as_deref(), Some("bounded by construction"));
        assert_eq!(sf.suppressions[1].rule, "QD002");
        assert!(sf.suppressions[1].reason.is_none());
    }

    #[test]
    fn doc_comments_do_not_register_suppressions() {
        let src = "/// like `// qdgnn-analyze: allow(QD009, reason = \"x\")`\n//! allow(QD002)\nfn f() {}\n";
        let sf = SourceFile::scan("x.rs", src);
        assert!(sf.suppressions.is_empty(), "{:?}", sf.suppressions);
    }

    #[test]
    fn float_exponent_literals_are_single_tokens() {
        let sf = SourceFile::scan("x.rs", "let x = 1.5e-3f32 + 0x1F + 2.0;\n");
        let nums: Vec<&str> = sf
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1.5e-3f32", "0x1F", "2.0"]);
    }

    #[test]
    fn integration_test_files_are_all_test() {
        let sf = SourceFile::scan("tests/end_to_end.rs", "fn f() { x.unwrap(); }\n");
        assert!(sf.all_test);
        assert!(sf.toks.iter().all(|t| t.in_test));
    }
}
