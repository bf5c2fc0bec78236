//! The rule passes. R2/R5 are per-file token scans; R6 asks the compiler
//! which `pub` items only tests reach.

pub mod deadpub;
pub mod hotpath;
pub mod locks;
