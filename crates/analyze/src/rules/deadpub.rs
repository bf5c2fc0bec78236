//! R6 `dead-pub`: every `pub` item in engine source has a caller outside
//! test code.
//!
//! A `pub fn` / `struct` / `enum` / `trait` / `type` / `const` / `static`
//! defined in `crates/*/src` (outside `#[cfg(test)]`) is a finding when its
//! name appears in no caller apart from its own definition sites. Callers
//! are the non-test tokens of `crates/*/src`, `crates/*/benches`, `src/`,
//! `examples/` and `benchmark/src` (read, never linted). Test code —
//! `tests/`, `crates/*/tests/`, `#[cfg(test)]` regions — keeps nothing
//! alive. Neither do `use` / `pub use` lines (a re-export is not a call),
//! comments, the name token of any item definition, or the self type of an
//! `impl` header.
//!
//! The scan matches names, not paths, so two items sharing a name keep each
//! other alive: it finds what certainly has no caller, never the reverse.
//! Restricted visibility (`pub(crate)`, `pub(super)`) is out of scope — the
//! compiler's own dead-code lint covers it.

use crate::diag::{Diag, R6_DEAD_PUB as RULE};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Keywords that introduce a named item; the next identifier is its name.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

/// Keywords that may sit between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// Do this file's non-test tokens count as callers?
fn is_caller(f: &SourceFile) -> bool {
    let rel = f.rel.as_str();
    f.linted()
        || ["src/", "examples/", "benchmark/src/"]
            .iter()
            .any(|dir| rel.starts_with(dir))
        || f.crate_name
            .as_ref()
            .is_some_and(|c| rel.starts_with(&format!("crates/{c}/benches/")))
}

/// Run R6 across `files`: definitions come from the linted ones
/// ([`SourceFile::linted`]), references from every caller.
pub fn check(files: &[SourceFile], out: &mut Vec<Diag>) {
    let mut referenced = BTreeSet::new();
    for f in files.iter().filter(|f| is_caller(f)) {
        collect_references(f, &mut referenced);
    }
    for f in files.iter().filter(|f| f.linted()) {
        for (line, name) in pub_items(f) {
            if !referenced.contains(name) {
                out.push(Diag {
                    file: f.rel.clone(),
                    line,
                    rule: RULE,
                    msg: format!("pub item `{name}` has no caller outside test code"),
                    hint: "delete it, move it under #[cfg(test)], or keep it with \
                           // analyze:allow(dead-pub): <why a user needs it>"
                        .into(),
                });
            }
        }
    }
}

/// `(line, name)` of every non-test `pub` item defined in `f`.
fn pub_items(f: &SourceFile) -> Vec<(u32, &str)> {
    let mut items = Vec::new();
    for i in 0..f.toks.len() {
        if f.in_test[i] || !f.ident(i, "pub") || f.punct(i + 1, '(') {
            continue;
        }
        let mut k = i + 1;
        while !is_item_start(f, k)
            && f.toks
                .get(k)
                .is_some_and(|t| t.kind == TokKind::Str || QUALIFIERS.contains(&t.text.as_str()))
        {
            k += 1;
        }
        if is_item_start(f, k) && !f.ident(k, "mod") {
            let name = &f.toks[k + 1];
            items.push((name.line, name.text.as_str()));
        }
    }
    items
}

/// Token `k` is an item keyword followed by the item's name (`const` as a
/// qualifier — `const fn` — is followed by `fn`, not a name).
fn is_item_start(f: &SourceFile, k: usize) -> bool {
    f.toks
        .get(k)
        .is_some_and(|t| t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()))
        && f.toks
            .get(k + 1)
            .is_some_and(|t| t.kind == TokKind::Ident && !ITEM_KEYWORDS.contains(&t.text.as_str()))
}

/// Add every identifier `f` uses outside test code, `use` lines, item
/// names and `impl` self types.
fn collect_references(f: &SourceFile, out: &mut BTreeSet<String>) {
    let toks = &f.toks;
    let mut i = 0;
    while i < toks.len() {
        if f.in_test[i] || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match toks[i].text.as_str() {
            "use" => i = statement_end(f, i),
            "impl" if is_item_impl(f, i) => i = skip_impl_self_type(f, i, out),
            _ if is_item_start(f, i) => i += 2,
            name => {
                out.insert(name.to_string());
                i += 1;
            }
        }
    }
}

/// Index just past the `;` closing the statement that starts at `i`.
fn statement_end(f: &SourceFile, mut i: usize) -> usize {
    while i < f.toks.len() && !f.punct(i, ';') {
        i += 1;
    }
    i + 1
}

/// Token `i` (an `impl`) opens an impl block, not an `impl Trait` type.
fn is_item_impl(f: &SourceFile, i: usize) -> bool {
    i == 0 || ['{', '}', ';', ']'].iter().any(|&c| f.punct(i - 1, c)) || f.ident(i - 1, "unsafe")
}

/// Walk an `impl` header up to its `{`: record the trait and generic
/// bounds as references, skip the self type (after `for`, or the whole
/// path when there is no `for`). Returns the index of the `{`.
fn skip_impl_self_type(f: &SourceFile, i: usize, out: &mut BTreeSet<String>) -> usize {
    let toks = &f.toks;
    let mut end = i + 1;
    let mut angle = 0i32;
    let mut generics_end = i + 1;
    let mut for_at = None;
    while end < toks.len() && !f.punct(end, '{') && !f.ident(end, "where") {
        if f.punct(end, '<') {
            angle += 1;
        } else if f.punct(end, '>') && !f.punct(end.wrapping_sub(1), '-') {
            angle -= 1;
            if angle == 0 && generics_end == i + 1 && f.punct(i + 1, '<') {
                generics_end = end + 1;
            }
        } else if angle == 0 && f.ident(end, "for") {
            for_at = Some(end);
        }
        end += 1;
    }
    let self_type_start = for_at.map_or(generics_end, |at| at + 1);
    for t in &toks[i + 1..self_type_start.min(end)] {
        if t.kind == TokKind::Ident && t.text != "for" {
            out.insert(t.text.clone());
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(src: &str) -> Vec<String> {
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        pub_items(&f)
            .into_iter()
            .map(|(_, n)| n.to_string())
            .collect()
    }

    fn refs(src: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        collect_references(&SourceFile::parse("crates/x/src/a.rs", src), &mut out);
        out
    }

    #[test]
    fn finds_pub_items_of_every_kind() {
        let src = "pub fn a() {}\npub const fn b() {}\npub struct C;\npub enum D {}\n\
                   pub trait E {}\npub type F = u8;\npub const G: u8 = 0;\npub static H: u8 = 0;\n\
                   pub unsafe fn i() {}\npub(crate) fn j() {}\npub mod k {}\npub use l::M;\n\
                   struct N { pub o: u8 }\n#[cfg(test)]\npub fn p() {}\n";
        assert_eq!(names(src), ["a", "b", "C", "D", "E", "F", "G", "H", "i"]);
    }

    #[test]
    fn definitions_uses_and_impl_self_types_are_not_references() {
        let r = refs(
            "use a::Used;\npub use b::Reexported;\nfn defined() {}\n\
             impl<T: Bound> Trait for SelfTy<T> {}\nimpl Inherent {}\nfn f() { callee(); }\n\
             fn g(x: impl Into<Arg>) -> impl Iterator<Item = Ret> { x }\n",
        );
        for absent in ["Used", "Reexported", "defined", "SelfTy", "Inherent"] {
            assert!(!r.contains(absent), "{absent} counted: {r:?}");
        }
        for present in ["Bound", "Trait", "callee", "T", "Arg", "Ret"] {
            assert!(r.contains(present), "{present} missed: {r:?}");
        }
    }

    #[test]
    fn caller_scope() {
        for rel in [
            "crates/x/src/a.rs",
            "crates/bench/benches/b.rs",
            "src/lib.rs",
            "examples/e.rs",
            "benchmark/src/main.rs",
        ] {
            assert!(is_caller(&SourceFile::parse(rel, "")), "{rel}");
        }
        for rel in ["tests/t.rs", "crates/x/tests/t.rs", "benchmark/tests/t.rs"] {
            assert!(!is_caller(&SourceFile::parse(rel, "")), "{rel}");
        }
    }
}
