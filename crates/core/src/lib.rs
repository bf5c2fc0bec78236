//! # eus-core — Enhanced User Separation for HPC
//!
//! The paper's primary contribution as a deployable library: assemble a
//! multi-tenant HPC cluster whose users "cannot observe or interact with
//! each other" across processes, the scheduler, filesystems, the network,
//! the web portal, accelerators, and containers — so that "for users, it
//! looks like they're the only one on the HPC system" (Sec. V).
//!
//! * [`config::SeparationConfig`] — one toggle per mechanism; presets
//!   [`config::SeparationConfig::baseline`] (stock Linux+Slurm) and
//!   [`config::SeparationConfig::llsc`] (the paper's deployment); each
//!   [`config::Mechanism`] `m` gives the single-mechanism ablation
//!   `llsc().without(m)`.
//! * [`cluster::SecureCluster`] — the assembled system: nodes, shared
//!   filesystems, scheduler, firewall daemons, GPUs, portal.
//! * [`audit`] — the channel sweep that *measures* separation: which of the
//!   21 cross-user channels are open under a given configuration, and
//!   whether only the paper's three residual paths remain.
//! * the federated credential plane ([`eus_fedauth`], toggled by
//!   [`config::SeparationConfig::federated_auth`]) — the companion paper's
//!   identity layer (*Securing HPC using Federated Authentication*, Prout
//!   et al. 2019): a per-realm broker mints short-lived signed bearer
//!   tokens and SSH certificates that sshd (PAM account phase), the job
//!   submission gate, and the portal all consult, with O(1) revocation.
//!   Three audit channels measure it: stolen-token replay, expired-cert
//!   ssh, and cross-realm impersonation.
//!
//! ```
//! use eus_core::{audit, ClusterSpec, SeparationConfig};
//!
//! let report = audit::run_audit(&SeparationConfig::llsc(), &ClusterSpec::tiny());
//! assert!(report.only_expected_residuals());
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod cluster;
pub mod config;
pub mod obs;
pub mod support;

pub use audit::{expected_residuals, run_audit, AuditReport, Channel, Outcome};
pub use cluster::{ClusterSpec, DepHealth, Dependency, Residue, SecureCluster, HOME_REALM};
pub use config::{Mechanism, SeparationConfig};
pub use obs::CoreObs;
pub use support::{attribute_load, LoadReport};

// Re-export the substrate crates so downstream users need one dependency.
pub use eus_accel as accel;
pub use eus_containers as containers;
pub use eus_fedauth as fedauth;
pub use eus_fsperm as fsperm;
pub use eus_portal as portal;
pub use eus_revsync as revsync;
pub use eus_sched as sched;
pub use eus_simcore as simcore;
pub use eus_simnet as simnet;
pub use eus_simos as simos;
pub use eus_ubf as ubf;
pub use eus_workloads as workloads;
