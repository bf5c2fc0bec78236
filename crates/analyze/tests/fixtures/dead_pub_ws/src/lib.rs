//! The root package: a caller, never judged.
