//! The per-file analysis model: lexed tokens plus the three overlays every
//! rule needs — test regions (skipped), hot-path regions (R2 scope), and
//! per-line `analyze:allow` suppressions — and the workspace walker that
//! feeds it.

use crate::diag::{Diag, ALL_RULES, RD_DIRECTIVE};
use crate::lexer::{lex, Directive, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A parsed source file ready for rule passes.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// `crates/<name>/…` → `<name>`; `None` outside `crates/`.
    pub crate_name: Option<String>,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Parallel to `toks`: token is inside a `#[cfg(test)]` / `#[test]`
    /// item (rules skip these).
    pub in_test: Vec<bool>,
    /// Hot-path regions `(first_line, last_line, label)` from
    /// `analyze:hot-path-begin/end` comments.
    pub hot: Vec<(u32, u32, String)>,
    /// line → rules allowed on that line.
    allow: BTreeMap<u32, BTreeSet<String>>,
    /// Directive-hygiene findings produced during parsing.
    pub pre_diags: Vec<Diag>,
}

impl SourceFile {
    /// Lex and annotate one file.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let in_test = test_flags(&lexed.toks);
        let mut allow: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        let mut hot = Vec::new();
        let mut pre_diags = Vec::new();
        let mut open_hot: Option<(u32, String)> = None;
        for d in &lexed.directives {
            match d {
                Directive::Allow {
                    line,
                    own_line,
                    rules,
                } => {
                    for unknown in rules.iter().filter(|r| !ALL_RULES.contains(&r.as_str())) {
                        pre_diags.push(Diag {
                            file: rel.to_string(),
                            line: *line,
                            rule: RD_DIRECTIVE,
                            msg: format!("analyze:allow names no rule: `{unknown}`"),
                            hint: format!("rule ids: {}", ALL_RULES.join(", ")),
                        });
                    }
                    let mut lines = vec![*line];
                    if *own_line {
                        // A standalone allow comment covers the next line
                        // that actually has code.
                        if let Some(next) = lexed
                            .toks
                            .iter()
                            .map(|t| t.line)
                            .find(|&l| l > *line)
                        {
                            lines.push(next);
                        }
                    }
                    for l in lines {
                        allow.entry(l).or_default().extend(rules.iter().cloned());
                    }
                }
                Directive::HotBegin { line, label } => {
                    if let Some((start, lbl)) = open_hot.take() {
                        pre_diags.push(Diag {
                            file: rel.to_string(),
                            line: *line,
                            rule: RD_DIRECTIVE,
                            msg: format!(
                                "hot-path-begin({label}) opened while hot-path-begin({lbl}) from line {start} is still open"
                            ),
                            hint: "close the previous region with // analyze:hot-path-end".into(),
                        });
                    }
                    open_hot = Some((*line, label.clone()));
                }
                Directive::HotEnd { line } => match open_hot.take() {
                    Some((start, label)) => hot.push((start, *line, label)),
                    None => pre_diags.push(Diag {
                        file: rel.to_string(),
                        line: *line,
                        rule: RD_DIRECTIVE,
                        msg: "hot-path-end without a matching hot-path-begin".into(),
                        hint: "remove it, or add // analyze:hot-path-begin(label) above".into(),
                    }),
                },
                Directive::Malformed { line, text } => pre_diags.push(Diag {
                    file: rel.to_string(),
                    line: *line,
                    rule: RD_DIRECTIVE,
                    msg: format!("unrecognized analyze: directive: {text}"),
                    hint: "known forms: analyze:allow(rule,…): justification, analyze:hot-path-begin(label), analyze:hot-path-end".into(),
                }),
            }
        }
        if let Some((start, label)) = open_hot {
            pre_diags.push(Diag {
                file: rel.to_string(),
                line: start,
                rule: RD_DIRECTIVE,
                msg: format!("hot-path-begin({label}) is never closed"),
                hint: "add // analyze:hot-path-end after the region".into(),
            });
        }
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(str::to_string);
        SourceFile {
            rel: rel.to_string(),
            crate_name,
            toks: lexed.toks,
            in_test,
            hot,
            allow,
            pre_diags,
        }
    }

    /// Is `rule` suppressed on `line`?
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allow.get(&line).is_some_and(|set| set.contains(rule))
    }

    /// The hot-path label covering `line`, if any.
    pub fn hot_label(&self, line: u32) -> Option<&str> {
        self.hot
            .iter()
            .find(|(a, b, _)| (*a..=*b).contains(&line))
            .map(|(_, _, l)| l.as_str())
    }

    /// Convenience: token `i` is the identifier `s`.
    pub fn ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    /// Convenience: token `i` is the punctuation `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }
}

/// Mark every token inside a `#[test]`- or `#[cfg(test)]`-attributed item
/// (including `#[cfg(test)] mod tests { … }` bodies). The scan is
/// attribute-driven: on a `#[...]` group containing the ident `test`, the
/// following item — up to its matching closing brace, or to `;` for
/// brace-less items — is flagged.
fn test_flags(toks: &[Tok]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];
    let punct = |i: usize, c: char| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text.starts_with(c))
    };
    let mut i = 0usize;
    while i < toks.len() {
        if !(punct(i, '#') && punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        // Find the matching `]` of the attribute.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut mentions_test = false;
        while j < toks.len() && depth > 0 {
            if punct(j, '[') {
                depth += 1;
            } else if punct(j, ']') {
                depth -= 1;
            } else if toks[j].kind == TokKind::Ident && toks[j].text == "test" {
                mentions_test = true;
            }
            j += 1;
        }
        if !mentions_test {
            i = j;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = j;
        while punct(k, '#') && punct(k + 1, '[') {
            let mut d = 1i32;
            k += 2;
            while k < toks.len() && d > 0 {
                if punct(k, '[') {
                    d += 1;
                } else if punct(k, ']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        // Flag up to the item's end: matching `}` of its first brace, or
        // `;` if one appears first (e.g. `#[cfg(test)] use …;`).
        let start = i;
        let mut d = 0i32;
        let mut end = k;
        while end < toks.len() {
            if punct(end, '{') {
                d += 1;
            } else if punct(end, '}') {
                d -= 1;
                if d == 0 {
                    break;
                }
            } else if d == 0 && punct(end, ';') {
                break;
            }
            end += 1;
        }
        let end = end.min(toks.len().saturating_sub(1));
        for f in flags.iter_mut().take(end + 1).skip(start) {
            *f = true;
        }
        i = end + 1;
    }
    flags
}

/// Walk the workspace collecting the engine source every rule lints
/// (`crates/*/src`), sorted for deterministic reports. Test suites and
/// `vendor/` are out of scope by construction: the rules guard *engine*
/// source, and the vendored shims deliberately mirror external crates'
/// APIs rather than workspace conventions.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk_rs(&src, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, p));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_tokens_are_flagged() {
        let f = SourceFile::parse(
            "crates/x/src/a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { v.unwrap(); }\n}\nfn tail() {}\n",
        );
        let unwrap_idx = f
            .toks
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("token present");
        assert!(f.in_test[unwrap_idx]);
        let tail_idx = f.toks.iter().position(|t| t.text == "tail").unwrap();
        assert!(!f.in_test[tail_idx]);
        let live_idx = f.toks.iter().position(|t| t.text == "live").unwrap();
        assert!(!f.in_test[live_idx]);
    }

    #[test]
    fn test_attribute_on_fn_is_flagged() {
        let f = SourceFile::parse(
            "crates/x/src/a.rs",
            "#[test]\nfn check() { x.unwrap(); }\nfn live() {}\n",
        );
        let unwrap_idx = f.toks.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(f.in_test[unwrap_idx]);
        let live_idx = f.toks.iter().position(|t| t.text == "live").unwrap();
        assert!(!f.in_test[live_idx]);
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let f = SourceFile::parse(
            "crates/x/src/a.rs",
            "// analyze:allow(lock-discipline): reason\nlet g = a.lock();\n",
        );
        assert!(f.allowed(2, "lock-discipline"));
        assert!(!f.allowed(2, "hot-path-panic"));
        assert!(f.pre_diags.is_empty());
    }

    #[test]
    fn an_allow_naming_no_rule_is_a_finding() {
        for (text, name) in [
            (
                "// analyze:allow(no-such-rule): typo\nlet g = a.lock();\n",
                "no-such-rule",
            ),
            (
                "x[0]; // analyze:allow(hot-path-panik): typo\n",
                "hot-path-panik",
            ),
            (
                "// analyze:allow(lock-discipline, all): both\nlet g = a.lock();\n",
                "all",
            ),
        ] {
            let f = SourceFile::parse("crates/x/src/a.rs", text);
            assert_eq!(f.pre_diags.len(), 1, "{text}");
            assert_eq!(f.pre_diags[0].rule, RD_DIRECTIVE);
            assert_eq!(f.pre_diags[0].line, 1);
            assert!(f.pre_diags[0].msg.contains(&format!("`{name}`")), "{text}");
        }
    }

    #[test]
    fn hot_regions_and_unclosed_diag() {
        let f = SourceFile::parse(
            "crates/x/src/a.rs",
            "// analyze:hot-path-begin(kernel)\nfn hot() {}\n// analyze:hot-path-end\n",
        );
        assert_eq!(f.hot_label(2), Some("kernel"));
        assert!(f.pre_diags.is_empty());

        let g = SourceFile::parse("crates/x/src/a.rs", "// analyze:hot-path-begin(kernel)\n");
        assert_eq!(g.pre_diags.len(), 1);
        assert_eq!(g.pre_diags[0].rule, RD_DIRECTIVE);
    }

    #[test]
    fn crate_name_extraction() {
        assert_eq!(
            SourceFile::parse("crates/sched/src/engine.rs", "").crate_name,
            Some("sched".to_string())
        );
        assert_eq!(SourceFile::parse("tests/x.rs", "").crate_name, None);
    }
}
