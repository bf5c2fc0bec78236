//! The five workloads. Each module owns three steps the harness calls in
//! order — `generate` (inputs from the seed, nothing else), `build` (a
//! provisioned `SecureCluster`), `run` (the measured closed loop) — and a
//! `Size` with a full and a smoke preset of the same shape.

pub mod cred_churn;
pub mod net_wireup;
pub mod sched_storm;
pub mod session_mix;

use crate::drive::Driver;
use eus_core::simos::Uid;
use eus_core::{SecureCluster, SeparationConfig};

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The whole personal-HPC session path.
    SessionMix,
    /// Submission storm, policy knobs off.
    SchedStorm,
    /// Multi-partition storm, policy plane on.
    SchedPolicy,
    /// MPI-style wire-ups through the UBF.
    NetWireup,
    /// Credential validation beside revocation churn.
    CredChurn,
}

impl Workload {
    /// All five, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::SessionMix,
        Workload::SchedStorm,
        Workload::SchedPolicy,
        Workload::NetWireup,
        Workload::CredChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionMix => "session_mix",
            Workload::SchedStorm => "sched_storm",
            Workload::SchedPolicy => "sched_policy",
            Workload::NetWireup => "net_wireup",
            Workload::CredChurn => "cred_churn",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why this workload exists (one line, ≤ 200 chars: `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SessionMix => {
                "The paper's personal-HPC path (login, files, submit, prolog, UBF connects, \
                 epilog/scrub): every layer takes part, none dominates, so any single-layer \
                 change must at least not lose here."
            }
            Workload::SchedStorm => {
                "Submission storm, policy knobs off: sched and core.reconcile do almost all the \
                 work, portal/simnet/ubf/fsperm none - the no-change control for network and \
                 login work."
            }
            Workload::SchedPolicy => {
                "Multi-partition storm with fair-share, preemption and reservations on: the \
                 same layer used differently; a policy-plane change must show here and not \
                 move sched_storm."
            }
            Workload::NetWireup => {
                "All-to-all MPI wire-ups: simnet and the UBF do nearly all the work, sched \
                 none; inspected connection set-up sits beside conntrack-accepted traffic, so \
                 trading one for the other shows."
            }
            Workload::CredChurn => {
                "Token validations (home and cross-realm via the CRL replica) beside logins, \
                 revocations and feed pumps: reads beside writes on fedauth/revsync; sched, \
                 simnet, fsperm idle."
            }
        }
    }

    /// What one operation is (the unit of `throughput_per_s`) and what one
    /// latency sample covers (the unit of `op_p50_us` / `op_p95_us`).
    pub fn units(self) -> (&'static str, &'static str) {
        match self {
            Workload::SessionMix => ("session", "session"),
            Workload::SchedStorm | Workload::SchedPolicy => {
                ("completed job", "advance_to boundary")
            }
            Workload::NetWireup => ("attempted connect", "wire-up"),
            Workload::CredChurn => ("credential op", "round"),
        }
    }

    /// Can the same inputs run under `SeparationConfig::baseline()`? Not
    /// `cred_churn`: the baseline has no credential plane to validate
    /// against.
    pub fn runs_under_baseline(self) -> bool {
        self != Workload::CredChurn
    }
}

/// Full-size runs or the same shapes at a fraction of the counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed numbers use.
    Full,
    /// Small counts, same shapes: the whole suite in a few seconds.
    Smoke,
}

/// `llsc()` or `baseline()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// The paper's full deployment.
    Llsc,
    /// Stock Linux + Slurm.
    Baseline,
}

impl Deployment {
    /// The preset.
    pub fn config(self) -> SeparationConfig {
        match self {
            Deployment::Llsc => SeparationConfig::llsc(),
            Deployment::Baseline => SeparationConfig::baseline(),
        }
    }
}

/// Simulated-clock outcomes users feel. Deterministic per seed; `0.0`
/// where a workload has no such event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOutcome {
    /// Median job queue wait, seconds.
    pub job_wait_p50_s: f64,
    /// 95th-percentile job queue wait, seconds.
    pub job_wait_p95_s: f64,
    /// First submission to last completion, seconds.
    pub makespan_s: f64,
    /// Mean modeled connection set-up latency, microseconds.
    pub connect_setup_us: f64,
    /// Mean revoke-at-issuer → first deny at home, seconds.
    pub revoke_to_deny_s: f64,
    /// Largest revoke → deny, seconds.
    pub revoke_to_deny_max_s: f64,
}

/// What one measured repetition did.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Operations completed (the numerator of `throughput_per_s`).
    pub ops: u64,
    /// Wall nanoseconds per latency sample.
    pub op_ns: Vec<u64>,
    /// Simulated-clock outcomes.
    pub sim: SimOutcome,
    /// Largest CRL-replica lag seen at a boundary, simulated seconds.
    pub replica_lag_max_s: f64,
}

/// Generated inputs for any workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// See [`session_mix`].
    SessionMix(session_mix::Inputs),
    /// See [`sched_storm`] (both scheduler workloads).
    Sched(sched_storm::Inputs),
    /// See [`net_wireup`].
    NetWireup(net_wireup::Inputs),
    /// See [`cred_churn`].
    CredChurn(cred_churn::Inputs),
}

/// A provisioned cluster plus the handles `cred_churn` needs beside it.
pub struct World {
    /// The system under test.
    pub cluster: SecureCluster,
    /// `cred_churn` only: sister planes and token tables built at set-up.
    pub realms: Option<cred_churn::Realms>,
}

/// Generate the inputs of `w` from `seed` alone.
pub fn generate(w: Workload, seed: u64, scale: Scale) -> Inputs {
    match w {
        Workload::SessionMix => {
            Inputs::SessionMix(session_mix::generate(seed, session_mix::Size::of(scale)))
        }
        Workload::SchedStorm => {
            Inputs::Sched(sched_storm::generate(seed, sched_storm::Size::storm(scale)))
        }
        Workload::SchedPolicy => Inputs::Sched(sched_storm::generate(
            seed,
            sched_storm::Size::policy(scale),
        )),
        Workload::NetWireup => {
            Inputs::NetWireup(net_wireup::generate(seed, net_wireup::Size::of(scale)))
        }
        Workload::CredChurn => {
            Inputs::CredChurn(cred_churn::generate(seed, cred_churn::Size::of(scale)))
        }
    }
}

/// Build and provision the cluster the inputs run against.
pub fn build(inputs: &Inputs, dep: Deployment) -> World {
    let plain = |cluster| World {
        cluster,
        realms: None,
    };
    match inputs {
        Inputs::SessionMix(i) => plain(session_mix::build(i, dep)),
        Inputs::Sched(i) => plain(sched_storm::build(i, dep)),
        Inputs::NetWireup(i) => plain(net_wireup::build(i, dep)),
        Inputs::CredChurn(i) => cred_churn::build(i, dep),
    }
}

/// Run the measured loop.
pub fn run(drv: &mut Driver, inputs: &Inputs, realms: Option<&mut cred_churn::Realms>) -> RunStats {
    match inputs {
        Inputs::SessionMix(i) => session_mix::run(drv, i),
        Inputs::Sched(i) => sched_storm::run(drv, i),
        Inputs::NetWireup(i) => net_wireup::run(drv, i),
        Inputs::CredChurn(i) => cred_churn::run(
            drv,
            i,
            realms.expect("cred_churn builds its realms at set-up"),
        ),
    }
}

/// The sizes a workload ran at, for the provenance block.
pub fn describe_size(inputs: &Inputs) -> String {
    match inputs {
        Inputs::SessionMix(i) => format!("{:?}", i.size),
        Inputs::Sched(i) => format!("{:?}", i.size),
        Inputs::NetWireup(i) => format!("{:?}", i.size),
        Inputs::CredChurn(i) => format!("{:?}", i.size),
    }
}

/// Create `n` accounts `user0000…` (home directory, first federated login
/// when the credential plane is deployed). Uids are dense and ascending.
pub fn add_users(c: &mut SecureCluster, n: usize) -> Vec<Uid> {
    (0..n)
        .map(|i| c.add_user(&user_name(i)).expect("fresh account name"))
        .collect()
}

/// Account name of user `i`.
pub fn user_name(i: usize) -> String {
    format!("user{i:04}")
}

/// Uid of `user0000`. Accounts are created first and in order, so user `i`
/// is `Uid(first.0 + i)` — the same dense numbering a scratch `UserDb`
/// gives `UserPopulation::build`.
pub fn first_uid(c: &SecureCluster) -> Uid {
    c.db.read()
        .user_by_name(&user_name(0))
        .expect("accounts were provisioned")
        .uid
}
