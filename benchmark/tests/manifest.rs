//! `BENCHMARK.json` at the repository root is `spec` rendered.

use eus_benchmark::spec;
use std::path::Path;

#[test]
fn committed_manifest_matches_the_declarations_in_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        committed,
        spec::benchmark_json().pretty(),
        "BENCHMARK.json is stale: regenerate it with \
         `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
    );
}
