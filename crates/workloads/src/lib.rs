//! # eus-workloads — synthetic HPC workloads
//!
//! LLSC's production traces are not public, so the scheduler and separation
//! experiments run on synthetic workloads shaped like the environment the
//! paper describes (Secs. I–II): interactive, diverse, dominated by many
//! short bulk-synchronous jobs, with MPI gangs and notebook sessions mixed
//! in.
//!
//! * [`population`] — users + steward-managed project groups with Zipf
//!   activity.
//! * [`jobs`] — generators: parameter sweeps, Monte Carlo batches, MPI gang
//!   jobs, interactive sessions.
//! * [`mix`] — categorical batch mixes with Poisson arrivals →
//!   deterministic, seeded [`mix::Trace`]s.

#![warn(missing_docs)]

pub mod jobs;
pub mod mix;
pub mod population;

pub use jobs::{interactive_session, monte_carlo, mpi_job, parameter_sweep};
pub use mix::{
    interactive_vs_bulk, multi_partition_storm, submission_storm, SharedTrace, Trace, TraceEntry,
    WorkloadMix,
};
pub use population::UserPopulation;
