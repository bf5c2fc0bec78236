//! `eus-analyze` — the workspace invariant linter.
//!
//! The repo's value rests on invariants no compiler checks: panic-free hot
//! kernels, the `plane.subsystem.name` obs convention, ARCHITECTURE.md
//! tables that match the code, deadlock-free lock nesting, and a public
//! surface that something outside the tests calls. This crate
//! machine-checks all five: four with a self-contained scanner — a
//! hand-rolled lexer ([`lexer`]), a per-file model with
//! test/hot/suppression overlays ([`source`]) and the rule passes in
//! [`rules`] — and the fifth by asking the compiler, on a copy of the
//! workspace with every `pub fn` demoted ([`rules::deadpub`]). No
//! dependencies, same offline discipline as `vendor/`. Replay determinism
//! (no wall clock, no sleeps, no hash-order iteration) is not a rule
//! here: the types and clippy enforce it (`crates/clippy.toml`,
//! `eus_simcore::{KeyedMap, KeyedSet}`).
//!
//! | rule id | invariant |
//! |---|---|
//! | `hot-path-panic` | no unwrap/expect/panic!/indexing in annotated hot regions |
//! | `obs-naming` | dotted obs names, registered exactly once |
//! | `docs-sync` | ARCHITECTURE.md audit/span/SLO/fault tables match the code |
//! | `lock-discipline` | no nested lock scopes (static half of the check) |
//! | `dead-pub` | every `pub` item is reached by non-test code, by rustc's `dead_code` verdict on a demoted copy |
//!
//! Suppress a finding on one line with
//! `// analyze:allow(rule-id): justification` (the justification is
//! required, and an id that names no rule is itself a `directive`
//! finding); bracket hot regions with
//! `// analyze:hot-path-begin(label)` … `// analyze:hot-path-end`.
//! CI runs `cargo run -p eus-analyze -- --deny`, which exits non-zero on
//! any finding. The dynamic half of the lock rule lives in the vendored
//! `parking_lot` shim behind `--cfg lock_order_check`.

pub mod diag;
mod json;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::{render_json, Diag};

use rules::obsnames::Registration;
use source::SourceFile;
use std::path::Path;

/// Result of a workspace scan.
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub diags: Vec<Diag>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Scan the workspace rooted at `root` (the directory holding
/// `ARCHITECTURE.md` and `crates/`) with every rule. `dead-pub` runs
/// `cargo check` on a temp copy (about a minute); an `Err` also reports a
/// copy that does not build.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut parsed = Vec::new();
    for (rel, path) in source::collect_sources(root)? {
        let text = std::fs::read_to_string(path)?;
        parsed.push(SourceFile::parse(&rel, &text));
    }
    let (mut diags, regs) = lint_files(&parsed);

    let arch_path = root.join("ARCHITECTURE.md");
    let channels_path = root.join("crates/core/src/audit/channels.rs");
    let faults_path = root.join("crates/chaos/src/fault.rs");
    let arch = std::fs::read_to_string(&arch_path).unwrap_or_default();
    let channels = std::fs::read_to_string(&channels_path).unwrap_or_default();
    let faults = std::fs::read_to_string(&faults_path).unwrap_or_default();
    rules::docsync::check(
        &arch,
        "ARCHITECTURE.md",
        &channels,
        "crates/core/src/audit/channels.rs",
        &faults,
        "crates/chaos/src/fault.rs",
        &regs,
        &mut diags,
    );
    diags.extend(rules::deadpub::check(root)?);

    let diags = finish(diags, &parsed);
    Ok(Report {
        diags,
        files_scanned: parsed.len(),
    })
}

/// Lint a single source text as if it lived at `rel` in the workspace —
/// the per-file rules only (R2, R5, plus R3 name-format and in-file
/// uniqueness). Used by the fixture tests and handy for editor
/// integration.
// analyze:allow(dead-pub): the library entry point for fixture suites and editor integration
pub fn lint_source(rel: &str, text: &str) -> Vec<Diag> {
    let f = SourceFile::parse(rel, text);
    let mut diags = f.pre_diags.clone();
    rules::hotpath::check(&f, &mut diags);
    rules::locks::check(&f, &mut diags);
    let regs = rules::obsnames::collect(&f, &mut diags);
    rules::obsnames::check_unique(&regs, &mut diags);
    finish(diags, std::slice::from_ref(&f))
}

/// The per-file rules and R3's uniqueness check over `files`. Returns the
/// findings and R3's registrations (R4 reads them).
fn lint_files(files: &[SourceFile]) -> (Vec<Diag>, Vec<Registration>) {
    let mut diags = Vec::new();
    let mut regs = Vec::new();
    for f in files {
        diags.extend(f.pre_diags.iter().cloned());
        rules::hotpath::check(f, &mut diags);
        rules::locks::check(f, &mut diags);
        regs.extend(rules::obsnames::collect(f, &mut diags));
    }
    rules::obsnames::check_unique(&regs, &mut diags);
    (diags, regs)
}

/// Apply per-line suppressions and sort deterministically.
fn finish(diags: Vec<Diag>, files: &[SourceFile]) -> Vec<Diag> {
    let mut out: Vec<Diag> = diags
        .into_iter()
        .filter(|d| {
            !files
                .iter()
                .find(|f| f.rel == d.file)
                .is_some_and(|f| f.allowed(d.line, d.rule))
        })
        .collect();
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NESTED: &str = "fn f() { let g = a.lock(); let h = b.lock(); }\n";

    #[test]
    fn lint_source_runs_per_file_rules() {
        let diags = lint_source("crates/sched/src/x.rs", NESTED);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, diag::R5_LOCK_DISCIPLINE);
    }

    #[test]
    fn suppressions_filter_findings() {
        let allowed = NESTED.replace(
            "\n",
            " // analyze:allow(lock-discipline): a before b, the documented order\n",
        );
        let diags = lint_source("crates/sched/src/x.rs", &allowed);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn out_of_scope_crates_are_exempt() {
        assert!(lint_source("crates/bench/src/x.rs", NESTED).is_empty());
    }
}
