//! A minimal hand-rolled Rust lexer: just enough token structure for the
//! invariant rules, with zero dependencies (same offline discipline as
//! `vendor/`).
//!
//! The lexer understands comments (line, nested block, doc), string/char
//! literals (including raw strings with hash fences), lifetimes, numbers,
//! raw identifiers, and single-character punctuation. Multi-character
//! operators are left as punctuation sequences — the rules match token
//! *sequences* (`.` `lock` `(` `)`), so `::` or `()` never needs to be a
//! single token.
//!
//! Line comments are additionally scanned for `analyze:` directives:
//!
//! - `// analyze:allow(rule-a, rule-b): justification` — suppress the named
//!   rules on this line (or, when the comment stands on its own line, on
//!   the next line of code). An allow without a justification is
//!   malformed and suppresses nothing.
//! - `// analyze:hot-path-begin(label)` … `// analyze:hot-path-end` —
//!   bracket a region checked by the `hot-path-panic` rule.

/// Token classification — deliberately coarse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `HashMap`, …).
    Ident,
    /// String literal (plain, raw, byte, or C). `text` holds the *content*
    /// (escapes left as written, quotes and fences stripped) so rules can
    /// inspect registered names.
    Str,
    /// Char or numeric literal.
    Literal,
    /// A lifetime (`'a`) or loop label.
    Lifetime,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub line: u32,
    pub kind: TokKind,
    pub text: String,
}

/// An `analyze:` control comment.
#[derive(Debug, Clone)]
pub enum Directive {
    /// `analyze:allow(rule, …)`; `own_line` is true when no code precedes
    /// the comment on its line (the allowance then covers the next code
    /// line instead).
    Allow {
        line: u32,
        own_line: bool,
        rules: Vec<String>,
    },
    /// `analyze:hot-path-begin(label)`.
    HotBegin { line: u32, label: String },
    /// `analyze:hot-path-end`.
    HotEnd { line: u32 },
    /// An `analyze:` comment that matched no known form — surfaced as a
    /// diagnostic so typos cannot silently disable a rule.
    Malformed { line: u32, text: String },
}

/// Lexer output: the token stream plus any control directives found in
/// comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub directives: Vec<Directive>,
}

/// Lex `src` into tokens and directives. Never fails: unterminated
/// constructs simply end at EOF (the rules are lint heuristics, not a
/// compiler front-end).
pub fn lex(src: &str) -> Lexed {
    let cs: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_code = false;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments).
        if c == '/' && cs.get(i + 1) == Some(&'/') {
            let start = i;
            while i < cs.len() && cs[i] != '\n' {
                i += 1;
            }
            let text: String = cs[start..i].iter().collect();
            parse_directive(&text, line, !line_has_code, &mut out.directives);
            continue;
        }
        // Block comment, nesting allowed.
        if c == '/' && cs.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            i += 2;
            while i < cs.len() && depth > 0 {
                if cs[i] == '/' && cs.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && cs.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if cs[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        line_has_code = true;
        // Raw strings: r"…", r#"…"#, br"…", br#"…"#, b"…", c"…".
        if let Some((ni, content)) = try_raw_or_prefixed_string(&cs, i, &mut line) {
            out.toks.push(Tok {
                line,
                kind: TokKind::Str,
                text: content,
            });
            i = ni;
            continue;
        }
        if c == '"' {
            let l = line;
            let (ni, content) = scan_quoted(&cs, i + 1, '"', &mut line);
            out.toks.push(Tok {
                line: l,
                kind: TokKind::Str,
                text: content,
            });
            i = ni;
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal: a lifetime is `'` followed by an
            // ident char where the char after the ident run is not `'`.
            let next = cs.get(i + 1).copied().unwrap_or('\0');
            if next != '\\' && is_ident_start(next) {
                let mut j = i + 2;
                while j < cs.len() && is_ident_continue(cs[j]) {
                    j += 1;
                }
                if cs.get(j) != Some(&'\'') {
                    let text: String = cs[i..j].iter().collect();
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Lifetime,
                        text,
                    });
                    i = j;
                    continue;
                }
            }
            let l = line;
            let (ni, content) = scan_quoted(&cs, i + 1, '\'', &mut line);
            out.toks.push(Tok {
                line: l,
                kind: TokKind::Literal,
                text: content,
            });
            i = ni;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < cs.len() && (is_ident_continue(cs[i]) || cs[i] == '.') {
                if cs[i] == '.' {
                    // Consume the dot only for a fractional part; `1..n`
                    // and `1.max(x)` keep their dots as punctuation.
                    if cs.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                        i += 2;
                    } else {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            out.toks.push(Tok {
                line,
                kind: TokKind::Literal,
                text: cs[start..i].iter().collect(),
            });
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            // Raw identifier `r#name`.
            if c == 'r'
                && cs.get(i + 1) == Some(&'#')
                && cs.get(i + 2).copied().is_some_and(is_ident_start)
            {
                i += 2;
            }
            i += 1;
            while i < cs.len() && is_ident_continue(cs[i]) {
                i += 1;
            }
            let text: String = cs[start..i].iter().collect();
            let text = text.strip_prefix("r#").unwrap_or(&text).to_string();
            out.toks.push(Tok {
                line,
                kind: TokKind::Ident,
                text,
            });
            continue;
        }
        out.toks.push(Tok {
            line,
            kind: TokKind::Punct,
            text: c.to_string(),
        });
        i += 1;
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan a `"`/`'`-delimited literal starting just past the opening quote.
/// Returns (index past closing quote, content).
fn scan_quoted(cs: &[char], mut i: usize, quote: char, line: &mut u32) -> (usize, String) {
    let mut content = String::new();
    while i < cs.len() {
        let c = cs[i];
        if c == '\\' {
            content.push(c);
            if let Some(&e) = cs.get(i + 1) {
                content.push(e);
                if e == '\n' {
                    *line += 1;
                }
            }
            i += 2;
            continue;
        }
        if c == quote {
            return (i + 1, content);
        }
        if c == '\n' {
            *line += 1;
        }
        content.push(c);
        i += 1;
    }
    (i, content)
}

/// Handle `r`/`b`/`br`/`c`-prefixed string literals (raw fences included)
/// starting at `i`. Returns the index past the literal and its content, or
/// `None` when the characters at `i` are not a prefixed string.
fn try_raw_or_prefixed_string(cs: &[char], i: usize, line: &mut u32) -> Option<(usize, String)> {
    let c = cs[i];
    let (raw, mut j) = match c {
        'r' => (true, i + 1),
        'c' => (false, i + 1),
        'b' => {
            if cs.get(i + 1) == Some(&'r') {
                (true, i + 2)
            } else {
                (false, i + 1)
            }
        }
        _ => return None,
    };
    let mut hashes = 0usize;
    if raw {
        while cs.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if cs.get(j) != Some(&'"') {
        return None;
    }
    j += 1; // past opening quote
    let mut content = String::new();
    if raw {
        while j < cs.len() {
            if cs[j] == '"' {
                // Need `"` followed by exactly `hashes` hashes to close.
                let mut k = j + 1;
                let mut seen = 0usize;
                while seen < hashes && cs.get(k) == Some(&'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return Some((k, content));
                }
            }
            if cs[j] == '\n' {
                *line += 1;
            }
            content.push(cs[j]);
            j += 1;
        }
        Some((j, content))
    } else {
        let (ni, content) = scan_quoted(cs, j, '"', line);
        Some((ni, content))
    }
}

/// Recognize `analyze:` directives inside a line comment. A directive must
/// *start* the comment (after the `//`/`///`/`//!` marker) — prose that
/// merely mentions `analyze:` is not a directive.
fn parse_directive(comment: &str, line: u32, own_line: bool, out: &mut Vec<Directive>) {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let Some(rest) = body.strip_prefix("analyze:") else {
        return;
    };
    if let Some(r) = rest.strip_prefix("allow(") {
        if let Some(end) = r.find(')') {
            let rules: Vec<String> = r[..end]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let justified = r[end + 1..]
                .trim_start()
                .strip_prefix(':')
                .is_some_and(|why| !why.trim().is_empty());
            if !rules.is_empty() && justified {
                out.push(Directive::Allow {
                    line,
                    own_line,
                    rules,
                });
                return;
            }
        }
    } else if let Some(r) = rest.strip_prefix("hot-path-begin(") {
        if let Some(end) = r.find(')') {
            out.push(Directive::HotBegin {
                line,
                label: r[..end].trim().to_string(),
            });
            return;
        }
    } else if rest.trim_start().starts_with("hot-path-end") {
        out.push(Directive::HotEnd { line });
        return;
    }
    out.push(Directive::Malformed {
        line,
        text: comment.trim().to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let l = lex("fn a() {\n  b::c(1);\n}\n");
        let kinds: Vec<_> = l.toks.iter().map(|t| (t.line, t.text.as_str())).collect();
        assert_eq!(kinds[0], (1, "fn"));
        assert_eq!(kinds[4], (1, "{"));
        assert!(kinds.contains(&(2, "b")));
        assert!(kinds.contains(&(3, "}")));
    }

    #[test]
    fn strings_keep_content_and_swallow_quotes() {
        assert_eq!(
            texts(r#"x("sched.cycle.select")"#),
            vec!["x", "(", "sched.cycle.select", ")"]
        );
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r#\"quoted \"inner\" text\"#; next";
        let t = texts(src);
        assert!(t.contains(&"quoted \"inner\" text".to_string()));
        assert!(t.contains(&"next".to_string()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let t = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = t
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let lits: Vec<_> = t
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lits, vec!["x", "\\n"]);
    }

    #[test]
    fn comments_are_skipped_but_directives_survive() {
        let src = "let a = 1; // analyze:allow(lock-discipline): justified\n/* block\n * spanning */ let b = 2;\n// analyze:hot-path-begin(kernel)\nlet c = 3;\n// analyze:hot-path-end\n";
        let l = lex(src);
        assert!(l.toks.iter().all(|t| !t.text.contains("block")));
        assert_eq!(l.directives.len(), 3);
        match &l.directives[0] {
            Directive::Allow {
                line,
                own_line,
                rules,
            } => {
                assert_eq!(*line, 1);
                assert!(!own_line);
                assert_eq!(rules, &["lock-discipline".to_string()]);
            }
            other => panic!("expected Allow, got {other:?}"),
        }
        assert!(matches!(
            l.directives[1],
            Directive::HotBegin { line: 4, .. }
        ));
        assert!(matches!(l.directives[2], Directive::HotEnd { line: 6 }));
    }

    #[test]
    fn malformed_directive_is_reported() {
        let l = lex("// analyze:alow(typo)\n");
        assert!(matches!(l.directives[0], Directive::Malformed { .. }));
    }

    #[test]
    fn allow_without_justification_is_malformed() {
        for src in [
            "// analyze:allow(dead-pub)\n",
            "// analyze:allow(dead-pub):  \n",
        ] {
            let l = lex(src);
            assert!(
                matches!(l.directives[0], Directive::Malformed { .. }),
                "{src}"
            );
        }
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        assert_eq!(texts("1..n"), vec!["1", ".", ".", "n"]);
        assert_eq!(texts("1.5f64"), vec!["1.5f64"]);
    }

    #[test]
    fn raw_idents_lose_their_prefix() {
        assert_eq!(texts("r#type"), vec!["type"]);
    }
}
