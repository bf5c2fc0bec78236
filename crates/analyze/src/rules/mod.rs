//! The rule passes. R2/R5 are per-file token scans; R3 collects obs
//! registrations per file and checks uniqueness across the workspace; R4
//! cross-checks ARCHITECTURE.md tables against the code; R6 asks the
//! compiler which `pub fn`s only tests reach.

pub mod deadpub;
pub mod docsync;
pub mod hotpath;
pub mod locks;
pub mod obsnames;

use crate::source::SourceFile;

/// Crates whose *purpose* exempts them from the engine-invariant rules
/// (R3, R5): `bench` is a measurement harness, not engine code, and
/// `analyze` is the linter itself (its tests spell out every pattern it
/// flags).
pub fn engine_scope(file: &SourceFile) -> bool {
    match file.crate_name.as_deref() {
        Some("bench") | Some("analyze") => false,
        Some(_) => true,
        None => false,
    }
}
