//! R6 fixture: the crate under lint, placed at `crates/demo/src/lib.rs`.

pub use inner::reexported_only;

/// Called only from this file's `#[cfg(test)]` module: reported.
pub fn only_unit_tested() -> u32 {
    1
}

/// Called only from `tests/`: reported.
pub fn only_integration_tested() -> u32 {
    2
}

mod inner {
    /// Reachable only through the `pub use` above: reported.
    pub fn reexported_only() -> u32 {
        3
    }
}

/// Called from `benchmark/src`: kept.
pub fn called_by_benchmark() -> u32 {
    4
}

/// Called from `examples/`: kept.
pub fn called_by_example() -> u32 {
    5
}

// analyze:allow(dead-pub): a user-facing capability with no caller yet
pub fn allowed_capability() -> u32 {
    6
}

/// Crate-visible only: out of R6's scope.
pub(crate) fn crate_only() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit() {
        assert_eq!(only_unit_tested() + crate_only(), 8);
    }
}
