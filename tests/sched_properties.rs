//! Property-based scheduler invariants over random workloads: resource
//! conservation, job accounting, and the whole-node isolation guarantee must
//! hold for every trace the generator can produce.

use hpc_user_separation::sched::{JobState, NodeSharing, SchedConfig, Scheduler};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::UserDb;
use hpc_user_separation::workloads::{UserPopulation, WorkloadMix};
use proptest::prelude::*;

fn run_random_workload(seed: u64, policy: NodeSharing, nodes: u32, backfill: bool) -> Scheduler {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 12, 3, 1.0, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(1200), &mut rng);
    let mut sched = Scheduler::new(SchedConfig {
        policy,
        backfill,
        ..SchedConfig::default()
    });
    for _ in 0..nodes {
        sched.add_node(16, 65_536, 2);
    }
    trace.submit_all(&mut sched);
    sched
}

fn policy_from(i: u8) -> NodeSharing {
    match i % 3 {
        0 => NodeSharing::Shared,
        1 => NodeSharing::Exclusive,
        _ => NodeSharing::WholeNodeUser,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every submitted job reaches a terminal state, resources return to
    /// zero, and counters agree with states.
    #[test]
    fn conservation_of_jobs_and_resources(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        backfill in any::<bool>(),
    ) {
        let mut sched = run_random_workload(seed, policy_from(policy_idx), 8, backfill);
        sched.run_to_completion();

        let total = sched.jobs.len() as u64;
        let completed = sched
            .jobs
            .values()
            .filter(|j| j.state == JobState::Completed)
            .count() as u64;
        prop_assert_eq!(completed, total, "all jobs complete on a healthy cluster");
        prop_assert_eq!(sched.metrics.completed.get(), completed);
        prop_assert_eq!(sched.pending_count(), 0);
        prop_assert_eq!(sched.running_count(), 0);
        for node in sched.nodes.values() {
            prop_assert!(node.is_idle(), "node {} not drained", node.id);
            prop_assert_eq!(node.free_cores(), node.cores);
            prop_assert_eq!(node.free_gpus(), node.gpus);
            prop_assert_eq!(node.free_mem_mib(), node.mem_mib);
        }
        // The busy integral must have stopped growing: nothing is charged
        // any more.
        let (now, later) = (sched.now(), sched.now() + SimDuration::from_secs(1));
        for tw in [&sched.metrics.busy_cores, &sched.metrics.used_cores] {
            prop_assert_eq!(tw.integral(later), tw.integral(now));
        }
    }

    /// At every sampled instant, no node is overcommitted and whole-node
    /// never mixes users.
    #[test]
    fn no_overcommit_at_any_instant(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
    ) {
        let policy = policy_from(policy_idx);
        let mut sched = run_random_workload(seed, policy, 8, true);
        let mut t = 0u64;
        while sched.pending_count() > 0 || sched.running_count() > 0 || t == 0 {
            t += 37;
            sched.run_until(SimTime::from_secs(t));
            for node in sched.nodes.values() {
                let used: u32 = node.running.values().map(|a| a.cores).sum();
                prop_assert!(used <= node.cores);
                let mem: u64 = node.running.values().map(|a| a.mem_mib).sum();
                prop_assert!(mem <= node.mem_mib);
                if policy == NodeSharing::WholeNodeUser {
                    prop_assert!(node.users_present().len() <= 1);
                }
                if policy == NodeSharing::Exclusive {
                    prop_assert!(node.running.len() <= 1, "exclusive = one job per node");
                }
            }
            prop_assert!(t < 2_000_000, "must drain eventually");
        }
    }

    /// Waits are non-negative and every started job started at or after its
    /// submission; accounting core-seconds are non-negative and consistent.
    #[test]
    fn causality_and_accounting(seed in 0u64..10_000) {
        let mut sched = run_random_workload(seed, NodeSharing::WholeNodeUser, 8, true);
        sched.run_to_completion();
        for job in sched.jobs.values() {
            let started = job.started.expect("all complete");
            let ended = job.ended.expect("all complete");
            prop_assert!(started >= job.submitted);
            prop_assert!(ended >= started);
            prop_assert!(job.core_seconds() >= 0.0);
            // Duration honored exactly (no preemption in the model).
            prop_assert_eq!(ended.since(started), job.spec.duration);
        }
    }
}

#[test]
fn backfill_never_loses_jobs_vs_fcfs() {
    // Deterministic cross-check on a handful of seeds: same job set
    // completes under both queue disciplines.
    for seed in [1u64, 7, 42] {
        let mut with = run_random_workload(seed, NodeSharing::Shared, 8, true);
        let mut without = run_random_workload(seed, NodeSharing::Shared, 8, false);
        with.run_to_completion();
        without.run_to_completion();
        assert_eq!(
            with.metrics.completed.get(),
            without.metrics.completed.get()
        );
    }
}
