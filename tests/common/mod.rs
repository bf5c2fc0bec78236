//! Helpers shared by the root test suites. Each suite compiles this module
//! on its own and uses a subset of it, hence the `dead_code` allow.
#![allow(dead_code)]

use hpc_user_separation::fedauth::CredError;

pub mod reference;

/// A property's case count: `default`, or the number the environment
/// variable `var` holds — the CI property jobs raise each suite's count
/// through its own variable.
pub fn cases(var: &str, default: u32) -> u32 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Collapse a credential outcome to its observable shape.
pub fn shape<T>(r: &Result<T, CredError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => format!("{e:?}"),
    }
}
