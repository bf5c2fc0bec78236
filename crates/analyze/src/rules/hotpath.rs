//! R2 `hot-path-panic`: panic-freedom inside annotated hot regions.
//!
//! Regions are bracketed with `// analyze:hot-path-begin(label)` …
//! `// analyze:hot-path-end` around the kernels a scheduling cycle or a
//! credential validation actually executes: the sched placement/shadow
//! kernels, broker / session-table validate, replica lookup, and the ubf
//! match path. Inside a region the rule bans every lexical form that can panic:
//!
//! - `.unwrap()` / `.expect(…)`;
//! - `panic!` / `todo!` / `unimplemented!` / `unreachable!` and the
//!   release-mode `assert!` family (`debug_assert*` stays legal — it
//!   compiles out of release builds);
//! - indexing (`x[i]`, `map[&k]`, slicing) — `.get()` with an explicit
//!   miss path, or a justified `analyze:allow`, instead.

use crate::diag::{Diag, R2_HOT_PATH_PANIC as RULE};
use crate::lexer::TokKind;
use crate::source::SourceFile;

const PANIC_MACROS: &[&str] = &[
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Run R2 over one file (any crate — regions opt in explicitly).
pub fn check(file: &SourceFile, out: &mut Vec<Diag>) {
    if file.hot.is_empty() {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        let t = &toks[i];
        let Some(label) = file.hot_label(t.line) else {
            continue;
        };
        match t.kind {
            TokKind::Ident => {
                if (t.text == "unwrap" || t.text == "expect")
                    && i > 0
                    && file.punct(i - 1, '.')
                    && file.punct(i + 1, '(')
                {
                    out.push(diag(
                        file,
                        t.line,
                        format!("`.{}()` inside hot path `{label}`", t.text),
                        "return the error (or use .get()/if-let with an explicit miss path); \
                         a panic here takes down the whole scheduling cycle",
                    ));
                } else if PANIC_MACROS.contains(&t.text.as_str()) && file.punct(i + 1, '!') {
                    out.push(diag(
                        file,
                        t.line,
                        format!("`{}!` inside hot path `{label}`", t.text),
                        "hot kernels must be panic-free in release builds; use debug_assert! \
                         for invariants or propagate an error",
                    ));
                }
            }
            TokKind::Punct if t.text == "[" && i > 0 => {
                let prev = &toks[i - 1];
                // A `[` indexes only when it follows a value expression. An
                // identifier qualifies unless it is a keyword that can
                // directly precede a slice/array *type* (`&mut [T]`,
                // `dyn [T]`, `as [T; N]`).
                let indexee = (prev.kind == TokKind::Ident
                    && !matches!(prev.text.as_str(), "mut" | "dyn" | "as"))
                    || (prev.kind == TokKind::Punct && (prev.text == "]" || prev.text == ")"));
                if indexee {
                    out.push(diag(
                        file,
                        t.line,
                        format!("indexing expression inside hot path `{label}`"),
                        "indexing panics on a miss; use .get()/.get_mut() with an explicit \
                         miss path, or add a justified analyze:allow if the bound is structural",
                    ));
                }
            }
            _ => {}
        }
    }
}

fn diag(file: &SourceFile, line: u32, msg: String, hint: &str) -> Diag {
    Diag {
        file: file.rel.clone(),
        line,
        rule: RULE,
        msg,
        hint: hint.to_string(),
    }
}
