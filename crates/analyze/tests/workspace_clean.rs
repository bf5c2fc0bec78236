//! Meta-test: the linter's own workspace must be clean — the same check CI
//! runs as `cargo run -p eus-analyze -- --deny`.

use eus_analyze::analyze_workspace;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_has_zero_findings() {
    let report = analyze_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.files_scanned > 100, "scan saw the whole workspace");
    let rendered: Vec<String> = report.diags.iter().map(|d| d.human()).collect();
    assert!(
        report.diags.is_empty(),
        "the committed workspace must lint clean (CI runs --deny):\n{}",
        rendered.join("\n")
    );
}
