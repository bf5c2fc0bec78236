//! # hpc-user-separation
//!
//! Reproduction of *"HPC with Enhanced User Separation"* (Prout et al., MIT
//! Lincoln Laboratory Supercomputing Center, 2024): a simulated multi-tenant
//! HPC cluster in which every mechanism from the paper is implemented and
//! measurable — `hidepid`/`seepid`, Slurm `PrivateData` and whole-node
//! user-based scheduling, `pam_slurm`, the File Permission Handler (`smask`
//! kernel patches + per-session smask + `smask_relax`), the User-Based
//! Firewall, the authenticated web portal, scheduler-managed GPU device
//! permissions with epilog scrubbing, Apptainer-style containers with host
//! security passthrough, and the companion paper's federated identity plane
//! (short-lived broker-issued credentials replacing raw-uid trust and
//! long-lived keys; see [`eus_core::fedauth`]).
//!
//! This crate is a facade over the workspace; see [`eus_core`] for the
//! primary API ([`SecureCluster`], [`SeparationConfig`], [`audit`]).
//!
//! ```
//! use hpc_user_separation::{audit, ClusterSpec, SeparationConfig};
//!
//! // Stock Linux + Slurm leaks broadly; the paper's configuration leaks
//! // only the three residual paths it names.
//! let baseline = audit::run_audit(&SeparationConfig::baseline(), &ClusterSpec::tiny());
//! let llsc = audit::run_audit(&SeparationConfig::llsc(), &ClusterSpec::tiny());
//! assert!(baseline.open_count() > llsc.open_count());
//! assert!(llsc.only_expected_residuals());
//! ```

pub use eus_core::*;
