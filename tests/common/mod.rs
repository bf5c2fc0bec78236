//! Helpers shared by the root test suites.

/// A property's case count: `default`, or the number the environment
/// variable `var` holds — the CI property jobs raise each suite's count
/// through its own variable.
pub fn cases(var: &str, default: u32) -> u32 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
