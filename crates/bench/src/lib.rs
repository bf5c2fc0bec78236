//! # eus-bench — experiment harness and benchmarks
//!
//! One binary per experiment in DESIGN.md's index (`exp_*` under
//! `src/bin/`), each printing the table(s) recorded in EXPERIMENTS.md, plus
//! Criterion benchmark groups under `benches/`. Shared scenario builders
//! live here so binaries and benches measure the same code paths.

pub mod table;

/// Assert with forensics: when `cond` fails, print the prepared dump (a
/// rendered [`eus_obs::FlightRecorder::render_tail`], typically) to stderr
/// before panicking, so a failed acceptance gate ships with the event
/// history that led to it instead of a bare number mismatch.
#[macro_export]
macro_rules! assert_or_dump {
    ($cond:expr, $forensics:expr, $($arg:tt)+) => {
        if !$cond {
            eprintln!("{}", $forensics);
            panic!($($arg)+);
        }
    };
}

use eus_core::{ClusterSpec, SecureCluster, SeparationConfig};
use eus_sched::{NodeSharing, SchedConfig, Scheduler};
use eus_simcore::{SimRng, SimTime};
use eus_simos::{Uid, UserDb};
use eus_workloads::{SharedTrace, Trace, UserPopulation, WorkloadMix};
use std::sync::Arc;

/// Build a hardened (or baseline) cluster with two users, ready for probes.
pub fn two_user_cluster(config: SeparationConfig) -> (SecureCluster, Uid, Uid) {
    let mut c = SecureCluster::new(config, ClusterSpec::default());
    let a = c.add_user("alice").expect("fresh db");
    let b = c.add_user("bob").expect("fresh db");
    (c, a, b)
}

/// Results of one scheduler-policy run.
#[derive(Debug, Clone, Copy)]
pub struct PolicyStats {
    /// Jobs completed.
    pub completed: u64,
    /// Claimed-core utilization.
    pub claimed_util: f64,
    /// Used-core utilization.
    pub effective_util: f64,
    /// Median queue wait (seconds).
    pub p50_wait: f64,
    /// 95th percentile queue wait (seconds).
    pub p95_wait: f64,
    /// Workload makespan (seconds).
    pub makespan: f64,
}

/// Run the LLSC-like workload under a policy. Same seed ⇒ identical trace,
/// so policies are compared on identical offered load.
pub fn run_policy_sim(
    policy: NodeSharing,
    nodes: u32,
    cores: u32,
    horizon_hours: u64,
    users: usize,
    seed: u64,
) -> PolicyStats {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, users, users / 5 + 1, 1.1, &mut rng);
    let trace =
        WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(horizon_hours * 3600), &mut rng);
    run_policy_on_trace(policy, nodes, cores, &trace)
}

/// Run a pre-generated trace under a policy.
pub fn run_policy_on_trace(
    policy: NodeSharing,
    nodes: u32,
    cores: u32,
    trace: &Trace,
) -> PolicyStats {
    let mut sched = Scheduler::new(SchedConfig {
        policy,
        ..SchedConfig::default()
    });
    for _ in 0..nodes {
        sched.add_node(cores, 65_536, 0);
    }
    trace.submit_all(&mut sched);
    let end = sched.run_to_completion();
    let wait = sched
        .metrics
        .wait_times
        .summary()
        .expect("workload is non-empty");
    PolicyStats {
        completed: sched.metrics.completed.get(),
        claimed_util: sched.utilization(),
        effective_util: sched.effective_utilization(),
        p50_wait: wait.p50,
        p95_wait: wait.p95,
        makespan: end.as_secs_f64(),
    }
}

/// Generate the standard LLSC-like trace used by several experiments.
pub fn standard_trace(users: usize, horizon_hours: u64, seed: u64) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, users, users / 5 + 1, 1.1, &mut rng);
    WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(horizon_hours * 3600), &mut rng)
}

/// Re-decorate a shared trace's jobs round-robin across partition names —
/// `exp_sched_scale`'s fair-share rows use this to keep every scheduling
/// class populated (multi-class head selection only engages with more
/// than one schedulable class). Deterministic: decoration depends only on
/// entry order, so the same trace always yields the same classes.
pub fn partition_round_robin(mut trace: SharedTrace, parts: &[&str]) -> SharedTrace {
    assert!(!parts.is_empty(), "need at least one partition name");
    trace.entries = trace
        .entries
        .into_iter()
        .enumerate()
        .map(|(i, (at, spec))| {
            let part = parts[i % parts.len()];
            (at, Arc::new((*spec).clone().with_partition(part)))
        })
        .collect();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_sim_smoke() {
        let s = run_policy_sim(NodeSharing::Shared, 8, 16, 1, 10, 1);
        assert!(s.completed > 0);
        assert!(s.effective_util > 0.0 && s.effective_util <= 1.0);
        assert!((s.claimed_util - s.effective_util).abs() < 1e-9);
    }

    #[test]
    fn two_user_cluster_smoke() {
        let (c, a, b) = two_user_cluster(SeparationConfig::llsc());
        assert_ne!(a, b);
        assert!(!c.compute_ids.is_empty());
    }
}

/// Replication support: run a seeded measurement across seeds in parallel
/// and summarize with a 95% confidence interval, so experiment tables can
/// report `mean ± ci` instead of single-run numbers.
pub mod replicate {
    use rayon::prelude::*;

    /// Mean, spread, and bounds over replications.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Replication {
        /// Number of replications.
        pub n: usize,
        /// Sample mean.
        pub mean: f64,
        /// Half-width of the 95% confidence interval (normal approximation).
        pub ci95: f64,
        /// Smallest observation.
        pub min: f64,
        /// Largest observation.
        pub max: f64,
    }

    impl std::fmt::Display for Replication {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{:.2} ± {:.2}", self.mean, self.ci95)
        }
    }

    /// Run `f(seed)` for every seed in parallel and summarize.
    pub fn replicate(
        seeds: impl IntoIterator<Item = u64>,
        f: impl Fn(u64) -> f64 + Sync + Send,
    ) -> Replication {
        let xs: Vec<f64> = seeds
            .into_iter()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(f)
            .collect();
        assert!(!xs.is_empty(), "replication needs at least one seed");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let se = (var / n as f64).sqrt();
        Replication {
            n,
            mean,
            ci95: 1.96 * se,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn summarizes_constant_and_varying_samples() {
            let c = replicate(0..5, |_| 7.0);
            assert_eq!(c.mean, 7.0);
            assert_eq!(c.ci95, 0.0);
            assert_eq!((c.min, c.max), (7.0, 7.0));

            let v = replicate(0..100, |s| s as f64);
            assert!((v.mean - 49.5).abs() < 1e-9);
            assert!(v.ci95 > 0.0);
            assert_eq!(v.n, 100);
            assert_eq!(format!("{v}"), format!("{:.2} ± {:.2}", v.mean, v.ci95));
        }

        #[test]
        #[should_panic(expected = "at least one seed")]
        fn empty_seeds_panic() {
            replicate(std::iter::empty(), |_| 0.0);
        }
    }
}

pub use replicate::{replicate, Replication};
