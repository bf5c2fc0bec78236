//! Fixture tests: every rule fires on its bad fixture with the right rule
//! id, and stays quiet on the good twin.

use eus_analyze::rules::{docsync, obsnames::Registration};
use eus_analyze::{diag, lint_source};

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
fn r1_sim_determinism_fixture() {
    assert_all(
        &rule_ids(include_str!("fixtures/r1_bad.rs")),
        diag::R1_SIM_DETERMINISM,
        4,
    );
    let good = rule_ids(include_str!("fixtures/r1_good.rs"));
    assert!(good.is_empty(), "{good:?}");
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
fn r3_obs_naming_fixture() {
    assert_all(
        &rule_ids(include_str!("fixtures/r3_bad.rs")),
        diag::R3_OBS_NAMING,
        3,
    );
    let good = rule_ids(include_str!("fixtures/r3_good.rs"));
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

fn span_reg(name: &str) -> Registration {
    Registration {
        name: name.into(),
        kind: "span".into(),
        file: "crates/sched/src/obs.rs".into(),
        line: 1,
    }
}

#[test]
fn r4_docs_sync_fixture() {
    let channels = include_str!("fixtures/r4_channels.rs");
    let faults = include_str!("fixtures/r4_faults.rs");
    let regs = [
        span_reg("sched.cycle.select"),
        span_reg("sched.cycle.dispatch"),
    ];

    let mut clean = Vec::new();
    docsync::check(
        include_str!("fixtures/r4_arch_good.md"),
        "fixtures/r4_arch_good.md",
        channels,
        "fixtures/r4_channels.rs",
        faults,
        "fixtures/r4_faults.rs",
        &regs,
        &mut clean,
    );
    assert!(clean.is_empty(), "{clean:?}");

    let mut drift = Vec::new();
    docsync::check(
        include_str!("fixtures/r4_arch_drift.md"),
        "fixtures/r4_arch_drift.md",
        channels,
        "fixtures/r4_channels.rs",
        faults,
        "fixtures/r4_faults.rs",
        &regs,
        &mut drift,
    );
    assert!(drift.iter().all(|d| d.rule == diag::R4_DOCS_SYNC));
    // All drift directions: code channel missing a row, doc row with no
    // variant, registered span missing a row, doc span never registered,
    // code fault missing a row, doc fault with no variant.
    for needle in [
        "`NetTcp`",
        "`GhostChannel`",
        "`sched.cycle.dispatch`",
        "`sched.ghost.span`",
        "`IdpOutage`",
        "`GhostFault`",
    ] {
        assert!(
            drift.iter().any(|d| d.msg.contains(needle)),
            "no finding mentioning {needle}: {drift:?}"
        );
    }
}
