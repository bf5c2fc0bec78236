//! R6 fixture: the benchmark, placed at `benchmark/src/main.rs`. Read for
//! callers, never linted.

pub fn never_linted() {}

fn main() {
    println!("{}", demo::called_by_benchmark());
}
