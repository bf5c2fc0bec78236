//! The crate under judgment.

pub use inner::{
    reexported_only,
    reexported_used,
    ReexportedOnly,
};

pub struct Home;

pub struct Sister;

impl Home {
    /// Called by the example: kept.
    pub fn validate_token_at(&self) -> u32 {
        1
    }
}

impl Sister {
    /// Shares its name with `Home::validate_token_at`, but nothing calls
    /// it: reported.
    pub fn validate_token_at(&self) -> u32 {
        digest(2)
    }
}

/// Private, and used only by a reported method: reported with it.
fn digest(x: u32) -> u32 {
    x + 1
}

/// Called only from `tests/`: reported.
pub fn only_integration_tested() -> u32 {
    3
}

/// Called only from this file's unit tests: reported.
pub fn only_unit_tested() -> u32 {
    4
}

/// Called only from the chaos crate, which is test code: reported.
pub fn only_chaos() -> u32 {
    5
}

/// Called from another library: kept.
pub fn called_by_library() -> u32 {
    6
}

/// Called from the benchmark: kept.
pub fn called_by_benchmark() -> u32 {
    7
}

/// Read only from `tests/`: reported.
pub const UNUSED_LIMIT: u32 = 11;

/// Read by another library: kept.
pub const USED_LIMIT: u32 = 12;

// analyze:allow(dead-pub): a user-facing capability with no caller yet
pub fn allowed_capability() -> u32 {
    kept_helper()
}

/// Private, used by an allowed item: kept.
fn kept_helper() -> u32 {
    8
}

mod inner {
    /// Reached only through the `pub use` above, and nothing uses it there:
    /// reported, with its re-export.
    pub fn reexported_only() -> u32 {
        9
    }

    /// Called from another library through the `pub use` above: kept.
    pub fn reexported_used() -> u32 {
        10
    }

    /// A type reached only through the `pub use` above, which nothing
    /// uses: reported, with its re-export.
    pub struct ReexportedOnly;
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::only_unit_tested(), 4);
    }
}
