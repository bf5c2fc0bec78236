//! R6 `dead-pub`: every `pub` item in engine source has a user outside
//! test code, as the compiler judges it.
//!
//! The rule never touches the tree. It copies the workspace to a temp
//! directory (without `target/` and `.git/`) and empties the crates in
//! `TEST_CRATES` (`eus-chaos`), then:
//!
//! 1. demotes to `pub(crate)` every free and inherent `pub fn` in
//!    `crates/*/src`, and every `pub use`, `struct`, `enum`, `trait`,
//!    `type`, `const` and `static` outside the `GLOB_REEXPORTED` crate
//!    (`eus-core`, whose root the root package glob re-exports: a glob
//!    silently drops a demoted name, so its users would see "not found",
//!    not a privacy error naming it) — outside `#[cfg(test)]`, and except
//!    the ones marked `// analyze:allow(dead-pub): <why>`, which stay
//!    roots. A flat `pub use path::{a, b};` list is first split into one
//!    `pub use` per name, so each re-export is judged alone. Trait impl
//!    methods carry no `pub` and stay as they are;
//! 2. runs `cargo check` over every non-test target (`--workspace --lib
//!    --bins --examples --bench '*'`, plus `benchmark/` when present);
//! 3. re-promotes each definition a privacy error names — E0624 (private
//!    method), E0603 (private item; for a re-export, one note names the
//!    `use` and another the item behind it) and E0446 (private type in a
//!    public interface) point at it; E0364 / E0365 (a kept `pub use` of a
//!    demoted item) and "type `…` is private" (a value of a demoted type
//!    used in another crate) name it only, so every demoted item of that
//!    name goes back, conservatively — and repeats until a round compiles;
//! 4. reports what rustc's own `dead_code` lint then flags in the library
//!    targets: each demoted item no non-test code reaches, every private
//!    item only such items use, and each field or variant of a demoted
//!    type that nothing reads or constructs.
//!
//! Paths resolve by type, so an uncalled method keeps no cover from a
//! called one that shares its name. A re-export nobody outside uses, of an
//! item that is live anyway, is not reported (a type named in a `pub fn`'s
//! signature may need it to be nameable at all); nor is a type, const or
//! `pub use` of `eus-core`.

use crate::diag::{Diag, R6_DEAD_PUB as RULE};
use crate::json::Json;
use crate::lexer::TokKind;
use crate::source::{collect_sources, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

/// Crates only tests depend on. Their code is test code: the copy empties
/// their `src/lib.rs`, so their calls keep nothing alive and their own
/// items are not judged.
const TEST_CRATES: &[&str] = &["chaos"];

/// Crates the root package glob re-exports (`pub use eus_core::*`). They
/// keep their `pub use`s: the glob would silently drop a demoted one, and
/// its users would see "not found", not a privacy error naming it.
const GLOB_REEXPORTED: &[&str] = &["core"];

/// Privacy errors whose spans point at the demoted definition.
const PRIVATE_ITEM: &[&str] = &["E0446", "E0603", "E0624"];

/// Privacy errors for a `pub use` of a crate-visible fn (E0364) or type
/// (E0365).
const PRIVATE_REEXPORT: &[&str] = &["E0364", "E0365"];

/// The item kinds demoted besides `fn` and `use`.
const ITEMS: &[&str] = &["struct", "enum", "trait", "type", "const", "static"];

/// Keywords that may sit between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// A demoted item, keyed by `(file, line)` of its `pub`.
struct Demoted {
    /// What the visibility governs: `<kind> <name>`, or `use`.
    anchor: String,
    /// The name it defines or imports.
    name: String,
}

/// The still-demoted definitions.
type Demotions = BTreeMap<(String, u32), Demoted>;

/// Run R6 on the workspace at `root`. `Err` means the check itself could
/// not run (cargo missing, or the demoted copy fails on something no
/// promotion fixes), not that something is dead.
pub fn check(root: &Path) -> io::Result<Vec<Diag>> {
    let scratch = Scratch::new()?;
    let ws = scratch.0.join("ws");
    copy_tree(root, &ws)?;
    for c in TEST_CRATES {
        let lib = ws.join("crates").join(c).join("src/lib.rs");
        if lib.is_file() {
            std::fs::write(lib, "")?;
        }
    }
    let mut files = BTreeMap::new();
    let mut origins = Origins::new();
    for (rel, path) in collect_sources(&ws)? {
        let text = std::fs::read_to_string(&path)?;
        let mut f = SourceFile::parse(&rel, &text);
        let krate = f.crate_name.clone().unwrap_or_default();
        if TEST_CRATES.contains(&krate.as_str()) {
            continue;
        }
        if !GLOB_REEXPORTED.contains(&krate.as_str()) {
            if let Some((split, origin)) = split_uses(&f, &text) {
                std::fs::write(&path, &split)?;
                f = SourceFile::parse(&rel, &split);
                origins.insert(rel.clone(), origin);
            }
        }
        files.insert(rel, f);
    }
    let mut demoted = demotions(&files);
    rewrite(&ws, &demoted, "pub", "pub(crate)")?;

    let target = scratch.0.join("target");
    let messages = loop {
        let messages = cargo_check(&ws, &target)?;
        let errors: Vec<&Json> = messages.iter().filter(|m| level(m) == "error").collect();
        if errors.is_empty() {
            break messages;
        }
        let found = named_definitions(&errors, &ws, &demoted);
        if found.is_empty() {
            let rendered = errors[0]
                .get("message")
                .and_then(|m| m.get("rendered"))
                .and_then(Json::str)
                .unwrap_or("(no rendering)");
            return Err(io::Error::other(format!(
                "cargo check of the demoted copy fails where no promotion helps:\n{rendered}"
            )));
        }
        let promoted: Demotions = found
            .iter()
            .filter_map(|k| demoted.remove_entry(k))
            .collect();
        rewrite(&ws, &promoted, "pub(crate)", "pub")?;
    };
    Ok(dead_code(&messages, &ws, &files, &origins))
}

/// Per rewritten file, the line of the tree each line of the copy came
/// from.
type Origins = BTreeMap<String, Vec<u32>>;

/// Rewrite each one-level `pub use path::{a, b as c};` list in `f` (whose
/// text is `text`) as one `pub use` per name, each on its own line, so each
/// re-export is demoted and promoted alone. Returns the new text and, per
/// line of it, the line it came from; `None` when nothing splits. A list
/// with an attribute or other code on its lines stays as it is.
fn split_uses(f: &SourceFile, text: &str) -> Option<(String, Vec<u32>)> {
    let t = &f.toks;
    let mut splits = BTreeMap::new();
    for i in 0..t.len() {
        if f.in_test[i]
            || !f.ident(i, "pub")
            || !f.ident(i + 1, "use")
            || f.allowed(t[i].line, RULE)
            || i > 0 && (t[i - 1].line == t[i].line || f.punct(i - 1, ']'))
        {
            continue;
        }
        let open = (i + 2..t.len())
            .find(|&j| t[j].kind != TokKind::Ident && !f.punct(j, ':'))
            .unwrap_or(t.len());
        let Some(close) = (open..t.len()).find(|&j| f.punct(j, '}')) else {
            continue;
        };
        let names = &t[open + 1..close];
        if !f.punct(open, '{')
            || !f.punct(close + 1, ';')
            || t.get(close + 2)
                .is_some_and(|n| n.line == t[close + 1].line)
            || names
                .iter()
                .any(|n| n.kind != TokKind::Ident && n.text != ",")
        {
            continue;
        }
        let prefix: String = t[i + 2..open].iter().map(|t| t.text.as_str()).collect();
        let first = text.lines().nth(t[i].line as usize - 1).unwrap_or("");
        let indent = &first[..first.len() - first.trim_start().len()];
        let lines: Vec<(String, u32)> = names
            .split(|n| n.text == ",")
            .filter_map(|words| {
                let item: Vec<&str> = words.iter().map(|w| w.text.as_str()).collect();
                let line = format!("{indent}pub use {prefix}{};\n", item.join(" "));
                Some((line, words.first()?.line))
            })
            .collect();
        splits.insert(t[i].line, (t[close + 1].line, lines));
    }
    if splits.is_empty() {
        return None;
    }
    let (mut out, mut origin, mut skip_to) = (String::new(), Vec::new(), 0);
    for (n, line) in (1..).zip(text.split_inclusive('\n')) {
        if let Some((last, lines)) = splits.remove(&n) {
            for (split, from) in lines {
                out.push_str(&split);
                origin.push(from);
            }
            skip_to = last;
        } else if n > skip_to {
            out.push_str(line);
            origin.push(n);
        }
    }
    Some((out, origin))
}

/// Every `pub fn` in `files`, and outside the `GLOB_REEXPORTED` crates
/// every one-line `pub use` of one name and every `pub` item of the
/// `ITEMS` kinds — outside test code and not allowed.
fn demotions(files: &BTreeMap<String, SourceFile>) -> Demotions {
    let mut out = Demotions::new();
    for (rel, f) in files {
        let uses = !GLOB_REEXPORTED.contains(&f.crate_name.as_deref().unwrap_or(""));
        for i in 0..f.toks.len() {
            if f.in_test[i] || !f.ident(i, "pub") || f.punct(i + 1, '(') {
                continue;
            }
            let mut k = i + 1;
            while f
                .toks
                .get(k)
                .is_some_and(|t| QUALIFIERS.contains(&t.text.as_str()) || t.kind == TokKind::Str)
            {
                k += 1;
            }
            let line = f.toks[i].line;
            let one_use = (i..f.toks.len())
                .find(|&j| f.punct(j, ';'))
                .filter(|&e| uses && f.ident(i + 1, "use") && f.toks[e].line == line)
                .filter(|&e| !(i..e).any(|j| f.punct(j, '{')));
            let demoted = if let Some(name) = f.toks.get(k + 1).filter(|_| f.ident(k, "fn")) {
                Demoted {
                    anchor: format!("fn {}", name.text),
                    name: name.text.clone(),
                }
            } else if let Some(end) = one_use {
                Demoted {
                    anchor: "use".into(),
                    name: f.toks[end - 1].text.clone(),
                }
            } else if let Some(name) = f
                .toks
                .get(i + 2)
                .filter(|n| uses && n.kind == TokKind::Ident && n.text != "fn")
                .filter(|_| ITEMS.iter().any(|kind| f.ident(i + 1, kind)))
            {
                Demoted {
                    anchor: format!("{} {}", f.toks[i + 1].text, name.text),
                    name: name.text.clone(),
                }
            } else {
                continue;
            };
            if !f.allowed(line, RULE) {
                out.insert((rel.clone(), line), demoted);
            }
        }
    }
    out
}

/// In the copy at `ws`, replace `from` with `to` as the visibility of each
/// entry.
fn rewrite(ws: &Path, entries: &Demotions, from: &str, to: &str) -> io::Result<()> {
    let mut by_file: BTreeMap<&str, Vec<(u32, &str)>> = BTreeMap::new();
    for ((rel, line), d) in entries {
        by_file.entry(rel).or_default().push((*line, &d.anchor));
    }
    for (rel, items) in by_file {
        let path = ws.join(rel);
        let text = std::fs::read_to_string(&path)?;
        let mut lines: Vec<String> = text.split_inclusive('\n').map(str::to_string).collect();
        for (line, anchor) in items {
            if let Some(l) = lines.get_mut(line as usize - 1) {
                if let Some(at) = visibility_of(l, anchor, from) {
                    l.replace_range(at..at + from.len(), to);
                }
            }
        }
        std::fs::write(&path, lines.concat())?;
    }
    Ok(())
}

/// Byte offset of the `vis` keyword that governs `anchor` (`fn <name>` or
/// `use`) on `line`: the last one before it.
fn visibility_of(line: &str, anchor: &str, vis: &str) -> Option<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let (at, _) = line.match_indices(anchor).find(|(at, m)| {
        !line[at + m.len()..].starts_with(ident) && !line[..*at].ends_with(ident)
    })?;
    line[..at].rfind(vis)
}

/// `cargo check` every non-test target of the copy, and of its
/// `benchmark/` package; returns the compiler messages.
fn cargo_check(ws: &Path, target: &Path) -> io::Result<Vec<Json>> {
    let mut workspace = vec!["--workspace", "--lib", "--bins", "--examples"];
    // `--benches` would also check each library as a bench harness, i.e.
    // with its `#[cfg(test)]` code; name the bench targets instead.
    if has_benches(ws)? {
        workspace.extend(["--bench", "*"]);
    }
    let mut runs = vec![(ws.join("Cargo.toml"), workspace)];
    let benchmark = ws.join("benchmark/Cargo.toml");
    if benchmark.is_file() {
        runs.push((benchmark, vec!["--lib", "--bins"]));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut messages = Vec::new();
    for (manifest, targets) in runs {
        let out = Command::new(&cargo)
            .args([
                "check",
                "--offline",
                "--keep-going",
                "--message-format=json",
            ])
            .arg("--manifest-path")
            .arg(&manifest)
            .args(targets)
            .env("CARGO_TARGET_DIR", target)
            // Lint levels in the source neither fail the build nor hide
            // dead code.
            .env(
                "CARGO_ENCODED_RUSTFLAGS",
                "--cap-lints=warn\x1f--force-warn=dead_code",
            )
            .env_remove("RUSTFLAGS")
            .output()?;
        let before = messages.len();
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            if let Some(m) = Json::parse(line)
                .filter(|m| m.get("reason").and_then(Json::str) == Some("compiler-message"))
            {
                messages.push(m);
            }
        }
        let errors = messages[before..].iter().any(|m| level(m) == "error");
        if !out.status.success() && !errors {
            return Err(io::Error::other(format!(
                "cargo check --manifest-path {} failed:\n{}",
                manifest.display(),
                String::from_utf8_lossy(&out.stderr)
            )));
        }
    }
    Ok(messages)
}

fn has_benches(ws: &Path) -> io::Result<bool> {
    for entry in std::fs::read_dir(ws.join("crates"))? {
        if entry?.path().join("benches").is_dir() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// A compiler message's level (`error`, `warning`, …).
fn level(m: &Json) -> &str {
    m.get("message")
        .and_then(|d| d.get("level"))
        .and_then(Json::str)
        .unwrap_or("")
}

/// The still-demoted definitions the privacy `errors` name.
fn named_definitions(errors: &[&Json], ws: &Path, demoted: &Demotions) -> BTreeSet<(String, u32)> {
    let mut found = BTreeSet::new();
    for m in errors.iter().filter_map(|m| m.get("message")) {
        let code = m
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::str)
            .unwrap_or("");
        let spans = m.get("spans").map(Json::items).unwrap_or(&[]);
        if PRIVATE_ITEM.contains(&code) {
            // The primary span is the call; the definition is a secondary
            // span (E0624, E0446) or a child note's span (E0603).
            let children = m.get("children").map(Json::items).unwrap_or(&[]);
            let secondary = spans
                .iter()
                .filter(|s| s.get("is_primary") != Some(&Json::Bool(true)));
            let notes = children
                .iter()
                .flat_map(|c| c.get("spans").map(Json::items).unwrap_or(&[]));
            // A demoted re-export is named by its note, and the demoted
            // item behind it by a second one.
            for s in secondary.chain(notes) {
                if let Some(key) = span_key(s, ws).filter(|k| demoted.contains_key(k)) {
                    found.insert(key);
                }
            }
        } else {
            // E0364 / E0365 (a kept `pub use` of a demoted item) and "type
            // `…` is private" (a value of a demoted type used in another
            // crate) name the item only: every demoted item of that name
            // goes back, conservatively.
            let text = m.get("message").and_then(Json::str).unwrap_or("");
            let private_type = text.starts_with("type `") && text.ends_with("` is private");
            if !PRIVATE_REEXPORT.contains(&code) && !private_type {
                continue;
            }
            let name = text
                .split('`')
                .nth(1)
                .and_then(|p| p.split('<').next()?.rsplit("::").next());
            found.extend(
                demoted
                    .iter()
                    .filter(|(_, d)| Some(d.name.as_str()) == name)
                    .map(|(k, _)| k.clone()),
            );
        }
    }
    found
}

/// `(workspace-relative file, line)` of a compiler span. Cargo names a
/// workspace member's file relative to the root and a path dependency's
/// (the benchmark's view) absolutely.
fn span_key(span: &Json, ws: &Path) -> Option<(String, u32)> {
    let file = span.get("file_name").and_then(Json::str)?;
    let path = PathBuf::from(file);
    let rel = path.strip_prefix(ws).unwrap_or(&path);
    let line = span.get("line_start").and_then(Json::u32)?;
    Some((rel.to_string_lossy().replace('\\', "/"), line))
}

/// The findings: rustc `dead_code` warnings on library targets, at lines
/// of the judged files (mapped back through `origins`).
fn dead_code(
    messages: &[Json],
    ws: &Path,
    files: &BTreeMap<String, SourceFile>,
    origins: &Origins,
) -> Vec<Diag> {
    let mut found = BTreeMap::new();
    for m in messages {
        let lib = m
            .get("target")
            .and_then(|t| t.get("kind"))
            .is_some_and(|k| k.items().iter().any(|k| k.str() == Some("lib")));
        let Some(msg) = m.get("message") else {
            continue;
        };
        let code = msg
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::str);
        if !lib || code != Some("dead_code") {
            continue;
        }
        let what = msg.get("message").and_then(Json::str).unwrap_or("");
        for s in msg.get("spans").map(Json::items).unwrap_or(&[]) {
            if s.get("is_primary") != Some(&Json::Bool(true)) {
                continue;
            }
            let Some((rel, line)) = span_key(s, ws) else {
                continue;
            };
            if files.get(&rel).is_none_or(|f| f.allowed(line, RULE)) {
                continue;
            }
            let name = highlighted(s).unwrap_or_default();
            let line = origins
                .get(&rel)
                .and_then(|o| o.get(line as usize - 1))
                .copied()
                .unwrap_or(line);
            found.insert(
                (rel.clone(), line, name.clone()),
                Diag {
                    file: rel,
                    line,
                    rule: RULE,
                    msg: format!(
                        "`{name}` has no user outside test code (rustc, with every \
                         pub item demoted: {what})"
                    ),
                    hint: "delete it, move it under #[cfg(test)], or keep it with \
                           // analyze:allow(dead-pub): <the user or operator capability it serves>"
                        .into(),
                },
            );
        }
    }
    found.into_values().collect()
}

/// The source text a span highlights (the item's name, for `dead_code`).
fn highlighted(span: &Json) -> Option<String> {
    let t = span.get("text")?.items().first()?;
    let text = t.get("text").and_then(Json::str)?;
    let (a, b) = (
        t.get("highlight_start").and_then(Json::u32)? as usize,
        t.get("highlight_end").and_then(Json::u32)? as usize,
    );
    Some(text.chars().skip(a - 1).take(b.saturating_sub(a)).collect())
}

/// Copy `from` to `to`, leaving out build output and version control.
fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        let (src, dst) = (entry.path(), to.join(&name));
        if entry.file_type()?.is_dir() {
            if name != "target" && name != ".git" {
                copy_tree(&src, &dst)?;
            }
        } else {
            std::fs::copy(&src, &dst)?;
        }
    }
    Ok(())
}

/// A temp directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eus-analyze-dead-pub-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demotes_pub_items_and_one_name_pub_uses() {
        let src = "pub fn a() {}\npub const fn b() {}\npub unsafe extern \"C\" fn c() {}\n\
                   pub(crate) fn d() {}\npub struct E;\nimpl E { pub fn f(&self) {} }\n\
                   // analyze:allow(dead-pub): kept on purpose\npub fn g() {}\n\
                   #[cfg(test)]\npub fn h() {}\npub use m::x as y;\npub use m::{p::q, r};\n";
        let judged = |rel: &str| -> Vec<(u32, String, String)> {
            let files = BTreeMap::from([(rel.to_string(), SourceFile::parse(rel, src))]);
            demotions(&files)
                .into_iter()
                .map(|((_, line), d)| (line, d.anchor, d.name))
                .collect()
        };
        let fns = [(1, "a"), (2, "b"), (3, "c"), (6, "f")]
            .map(|(l, n)| (l, format!("fn {n}"), n.to_string()));
        let mut all = fns.to_vec();
        all.insert(3, (5, "struct E".into(), "E".into()));
        all.push((11, "use".into(), "y".into()));
        assert_eq!(judged("crates/x/src/a.rs"), all);
        assert_eq!(
            judged("crates/core/src/a.rs"),
            fns,
            "a glob re-exported crate keeps its uses"
        );
    }

    #[test]
    fn splits_a_flat_use_list_one_name_per_line() {
        let src = "//! m\npub use a::{b, c as d};\n  pub use e::{\n    f,\n    g,\n  };\n\
                   pub use h::{i::j, k};\nfn z() {}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        let (text, origin) = split_uses(&f, src).expect("two lists split");
        assert_eq!(
            text,
            "//! m\npub use a::b;\npub use a::c as d;\n  pub use e::f;\n  pub use e::g;\n\
             pub use h::{i::j, k};\nfn z() {}\n"
        );
        assert_eq!(origin, [1, 2, 2, 4, 5, 7, 8]);
    }

    #[test]
    fn finds_the_visibility_of_the_anchor() {
        let line = "    pub fn xy() {} pub(crate) unsafe fn x() {}\n";
        assert_eq!(
            visibility_of(line, "fn x", "pub(crate)"),
            line.find("pub(crate)")
        );
        assert_eq!(visibility_of(line, "fn xy", "pub"), Some(4));
        assert_eq!(visibility_of(line, "fn z", "pub"), None);
        assert_eq!(visibility_of("pub use user::reuse;", "use", "pub"), Some(0));
    }
}
