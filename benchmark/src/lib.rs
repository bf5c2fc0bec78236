//! # eus-benchmark — the repository's one benchmark
//!
//! Drives `eus_core::SecureCluster` through its public methods and public
//! fields only, from one process on one thread, closed loop with one
//! client, on inputs generated in the harness from `--seed`. Five
//! workloads (see [`workloads::Workload`]); five end-to-end metrics every
//! workload reports, measured with observability off; and a separate
//! traced run that attributes the wall time to layers (see [`spec`]).
//!
//! It claims no gain: it is the instrument later performance claims are
//! measured with.

#![warn(missing_docs)]

pub mod drive;
pub mod harness;
pub mod json;
pub mod provenance;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
