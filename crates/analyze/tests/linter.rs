//! Fixture tests: every rule fires on its bad fixture with the right rule
//! id, and stays quiet on the good twin.

use eus_analyze::rules::deadpub;
use eus_analyze::{diag, lint_source};
use std::path::{Path, PathBuf};

/// Fixtures lint as if they lived in an engine crate.
const REL: &str = "crates/sched/src/fixture.rs";

fn rule_ids(text: &str) -> Vec<&'static str> {
    lint_source(REL, text).into_iter().map(|d| d.rule).collect()
}

fn assert_all(found: &[&'static str], rule: &str, at_least: usize) {
    assert!(
        found.len() >= at_least && found.iter().all(|r| *r == rule),
        "expected >= {at_least} findings of `{rule}`, got {found:?}"
    );
}

#[test]
fn r2_hot_path_panic_fixture() {
    assert_all(
        &rule_ids(include_str!("fixtures/r2_bad.rs")),
        diag::R2_HOT_PATH_PANIC,
        3,
    );
    let good = rule_ids(include_str!("fixtures/r2_good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn r5_lock_discipline_fixture() {
    assert_all(
        &rule_ids(include_str!("fixtures/r5_bad.rs")),
        diag::R5_LOCK_DISCIPLINE,
        1,
    );
    let good = rule_ids(include_str!("fixtures/r5_good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

/// The R6 fixture: a workspace of its own (`fixtures/dead_pub_ws`) that
/// the rule copies and checks with cargo.
fn dead_pub_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub_ws")
}

/// `(line, name)` of every `dead-pub` finding in the fixture's judged crate.
fn dead_pub(root: &Path) -> Vec<(u32, String)> {
    let diags = deadpub::check(root).expect("cargo checks the fixture copy");
    assert!(
        diags
            .iter()
            .all(|d| d.rule == diag::R6_DEAD_PUB && d.file == "crates/demo/src/lib.rs"),
        "{diags:?}"
    );
    diags
        .iter()
        .map(|d| (d.line, d.msg.split('`').nth(1).unwrap_or("").to_string()))
        .collect()
}

#[test]
fn r6_dead_pub_is_judged_by_type_not_by_name() {
    let dead = dead_pub(&dead_pub_ws());
    let expected = [
        // `pub struct Sister`, which nothing constructs, and
        // `Sister::validate_token_at`; `Home::validate_token_at` (line 15)
        // shares the name and has a caller.
        (11, "Sister"),
        (23, "validate_token_at"),
        (29, "digest"),
        (34, "only_integration_tested"),
        (39, "only_unit_tested"),
        (44, "only_chaos"),
        // A `pub const`; `USED_LIMIT` below it has a reader.
        (59, "UNUSED_LIMIT"),
        // Reached only through the `pub use` list, whose other name
        // (`reexported_used`) has a user in another library.
        (77, "reexported_only"),
        (88, "ReexportedOnly"),
    ];
    assert_eq!(dead, expected.map(|(l, n)| (l, n.to_string())));
}

#[test]
fn r6_allow_needs_a_justification() {
    let root = std::env::temp_dir().join(format!("eus-analyze-r6-allow-{}", std::process::id()));
    copy_dir(&dead_pub_ws(), &root);
    let lib = root.join("crates/demo/src/lib.rs");
    let text = std::fs::read_to_string(&lib).expect("fixture lib");
    let stripped = text.replace(
        "// analyze:allow(dead-pub): a user-facing capability with no caller yet",
        "// analyze:allow(dead-pub)",
    );
    assert_ne!(stripped, text);
    let directive = lint_source("crates/demo/src/lib.rs", &stripped);
    assert!(
        directive.iter().any(|d| d.rule == diag::RD_DIRECTIVE),
        "{directive:?}"
    );
    std::fs::write(&lib, stripped).expect("write fixture copy");
    let dead = dead_pub(&root);
    std::fs::remove_dir_all(&root).expect("remove fixture copy");
    for name in ["allowed_capability", "kept_helper"] {
        assert!(dead.iter().any(|(_, n)| n == name), "{name}: {dead:?}");
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read fixture") {
        let path = entry.expect("entry").path();
        let dst = to.join(path.file_name().expect("name"));
        if path.is_dir() {
            copy_dir(&path, &dst);
        } else {
            std::fs::copy(&path, &dst).expect("copy");
        }
    }
}
