//! R5 `lock-discipline`: no nested lock scopes.
//!
//! The workspace's locks (vendored `parking_lot` `Mutex`/`RwLock`) guard
//! single subsystems: the scheduler and the user db (each with one owner,
//! the cluster), each realm's credential broker, and each UBF daemon's
//! statistics. Holding one while acquiring another creates an ordering edge,
//! and two code paths with opposite edges deadlock under load. The static
//! rule is a lexical approximation — it flags any `.lock()`/`.read()`/
//! `.write()` (zero-argument, the guard-returning forms) while another
//! guard from the same function scope is still live:
//!
//! - `let g = x.lock();` keeps a guard live until its block closes (or an
//!   explicit `drop(g)`);
//! - `x.lock().method(…)` keeps a temporary guard live to the end of the
//!   statement, so `a.write().f(&b.read())` is one nested scope.
//!
//! Deliberately-nested sites document their global acquisition order with
//! an `analyze:allow(lock-discipline)` comment; the dynamic
//! `lock_order_check` cfg in the vendored parking_lot shim then enforces
//! that the documented order is acyclic at runtime across the whole test
//! suite.

use crate::diag::{Diag, R5_LOCK_DISCIPLINE as RULE};
use crate::lexer::TokKind;
use crate::source::SourceFile;

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Crates whose *purpose* exempts them from the rule: `bench` is a
/// measurement harness, not engine code, and `analyze` is the linter
/// itself (its tests spell out every pattern it flags).
fn engine_scope(file: &SourceFile) -> bool {
    match file.crate_name.as_deref() {
        Some("bench") | Some("analyze") => false,
        Some(_) => true,
        None => false,
    }
}

#[derive(Debug)]
struct LiveGuard {
    /// Binding name when `let`-bound (for `drop(name)` release tracking).
    name: Option<String>,
    method: String,
    line: u32,
    /// Brace depth at acquisition.
    depth: i32,
    /// Temporary (dies at end of statement) vs `let`-bound (dies with the
    /// enclosing block).
    temp: bool,
}

/// Run R5 over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Diag>) {
    if !engine_scope(file) {
        return;
    }
    let toks = &file.toks;
    let mut depth: i32 = 0;
    let mut guards: Vec<LiveGuard> = Vec::new();
    // Statement context: set by `let`, cleared at `;`.
    let mut stmt_let: Option<String> = None;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    // Condition/scrutinee temporaries do not outlive the
                    // expression in the common `if x.lock().y { … }` shape.
                    guards.retain(|g| !(g.temp && g.depth >= depth));
                    stmt_let = None;
                    depth += 1;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    stmt_let = None;
                }
                ";" => {
                    guards.retain(|g| !(g.temp && g.depth >= depth));
                    stmt_let = None;
                }
                _ => {}
            }
            continue;
        }
        if t.kind != TokKind::Ident || file.in_test[i] {
            continue;
        }
        match t.text.as_str() {
            "let" => {
                // Capture the binding name: first ident after `let`,
                // skipping `mut`.
                let mut j = i + 1;
                if file.ident(j, "mut") {
                    j += 1;
                }
                stmt_let = toks
                    .get(j)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone());
            }
            // `drop(name)` releases a let-bound guard early.
            "drop"
                if file.punct(i + 1, '(')
                    && file.punct(i + 3, ')')
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident) =>
            {
                let name = toks[i + 2].text.as_str();
                guards.retain(|g| g.name.as_deref() != Some(name));
            }
            m if ACQUIRE_METHODS.contains(&m)
                && i > 0
                && file.punct(i - 1, '.')
                && file.punct(i + 1, '(')
                && file.punct(i + 2, ')') =>
            {
                if let Some(holder) = guards.first() {
                    if !file.allowed(t.line, RULE) {
                        out.push(Diag {
                            file: file.rel.clone(),
                            line: t.line,
                            rule: RULE,
                            msg: format!(
                                "nested lock scope: .{m}() while the .{}() guard from line {} \
                                 is still held",
                                holder.method, holder.line
                            ),
                            hint: "narrow the first guard's scope (or drop() it) before the \
                                   second acquisition; if the nesting is deliberate, document \
                                   the global acquisition order with \
                                   analyze:allow(lock-discipline)"
                                .into(),
                        });
                    }
                }
                // `let g = x.lock();` — guard itself is the bound value
                // only when the statement ends right after the call AND the
                // receiver chain starts at the `=`: a prefix like the deref
                // in `let v = *x.lock();` copies through the guard, leaving
                // it a temporary.
                let bound = stmt_let.is_some() && file.punct(i + 3, ';') && {
                    let mut j = i - 1; // the `.` before the method name
                    while j > 0 {
                        let p = &toks[j - 1];
                        let chain =
                            matches!(p.kind, TokKind::Ident | TokKind::Literal | TokKind::Str)
                                || (p.kind == TokKind::Punct
                                    && matches!(
                                        p.text.as_str(),
                                        "." | "(" | ")" | "[" | "]" | ":" | ","
                                    ));
                        if !chain {
                            break;
                        }
                        j -= 1;
                    }
                    j > 0 && toks[j - 1].text == "="
                };
                guards.push(LiveGuard {
                    name: if bound { stmt_let.clone() } else { None },
                    method: m.to_string(),
                    line: t.line,
                    depth,
                    temp: !bound,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(body: &str) -> Vec<Diag> {
        let src = format!("fn f() {{\n{body}\n}}\n");
        let f = SourceFile::parse("crates/x/src/a.rs", &src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn sequential_scopes_are_clean() {
        assert!(run("let a = m.lock();\ndo_work(&a);").is_empty());
        assert!(run("{ let a = m.lock(); }\n{ let b = n.lock(); }").is_empty());
        assert!(run("m.lock().push(1);\nn.lock().push(2);").is_empty());
    }

    #[test]
    fn let_guard_then_second_acquisition_flags() {
        let out = run("let a = m.lock();\nlet b = n.lock();");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE);
        assert!(out[0].msg.contains("nested lock scope"));
    }

    #[test]
    fn two_temporaries_in_one_statement_flag() {
        let out = run("b.write().ensure(&db.read(), user);");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn drop_releases_the_guard() {
        assert!(run("let a = m.lock();\ndrop(a);\nlet b = n.lock();").is_empty());
    }

    #[test]
    fn explicit_allow_suppresses() {
        let out = run(
            "let a = m.lock();\n// analyze:allow(lock-discipline): order is m before n everywhere\nlet b = n.lock();",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        assert!(run("let a = m.lock();\nfile.read(&mut buf);").is_empty());
    }

    #[test]
    fn deref_copy_through_guard_is_temporary() {
        // `x` holds the copied value, not the guard.
        assert!(run("let x = *m.lock();\nlet b = n.lock();").is_empty());
    }

    #[test]
    fn let_bound_result_of_guarded_call_is_temporary() {
        // The guard here is a temporary — the binding holds the call
        // result — so a later acquisition in the block is clean.
        assert!(run("let v = m.lock().len();\nlet b = n.lock();").is_empty());
    }
}
