//! Scheduler-policy integration tests (paper Sec. IV-B): the qualitative
//! orderings the paper asserts must hold on the synthetic LLSC-like workload.

use hpc_user_separation::sched::{JobSpec, NodeSharing, SchedConfig, Scheduler};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::{Uid, UserDb};
use hpc_user_separation::workloads::{UserPopulation, WorkloadMix};

struct PolicyResult {
    policy: NodeSharing,
    effective_util: f64,
    claimed_util: f64,
    p50_wait: f64,
    makespan: f64,
}

fn run_policy(policy: NodeSharing, seed: u64) -> PolicyResult {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 24, 4, 1.0, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(2 * 3600), &mut rng);
    let mut sched = Scheduler::new(SchedConfig {
        policy,
        ..SchedConfig::default()
    });
    for _ in 0..24 {
        sched.add_node(16, 65_536, 0);
    }
    trace.submit_all(&mut sched);
    let end = sched.run_to_completion();
    let wait = sched.metrics.wait_times.summary().expect("jobs ran");
    PolicyResult {
        policy,
        effective_util: sched.effective_utilization(),
        claimed_util: sched.utilization(),
        p50_wait: wait.p50,
        makespan: end.as_secs_f64(),
    }
}

#[test]
fn paper_ordering_holds_on_llsc_like_workload() {
    let shared = run_policy(NodeSharing::Shared, 7);
    let exclusive = run_policy(NodeSharing::Exclusive, 7);
    let whole = run_policy(NodeSharing::WholeNodeUser, 7);

    // Whole-node must land within 20% of shared on effective utilization...
    assert!(
        whole.effective_util > shared.effective_util * 0.8,
        "whole-node {:.3} vs shared {:.3}",
        whole.effective_util,
        shared.effective_util
    );
    // ...while exclusive is strictly worse AND wastes most of what it
    // claims (whole nodes held by single-task jobs).
    assert!(
        exclusive.effective_util < shared.effective_util * 0.8,
        "exclusive {:.3} vs shared {:.3}",
        exclusive.effective_util,
        shared.effective_util
    );
    assert!(
        exclusive.effective_util < exclusive.claimed_util * 0.5,
        "exclusive wastes most of its claim: used {:.3} of claimed {:.3}",
        exclusive.effective_util,
        exclusive.claimed_util
    );
    // Shared and whole-node claim only what they use.
    assert!((shared.claimed_util - shared.effective_util).abs() < 1e-9);
    assert!((whole.claimed_util - whole.effective_util).abs() < 1e-9);
    // Median waits: exclusive is catastrophically worse for this mix.
    assert!(
        exclusive.p50_wait > whole.p50_wait * 10.0 + 60.0,
        "exclusive p50 {} vs whole-node {}",
        exclusive.p50_wait,
        whole.p50_wait
    );
    // Makespans: whole-node within 25% of shared; exclusive beyond it.
    assert!(whole.makespan < shared.makespan * 1.25);
    assert!(exclusive.makespan > whole.makespan);
    assert_eq!(shared.policy, NodeSharing::Shared);
}

#[test]
fn whole_node_never_mixes_users() {
    // The invariant that gives the policy its name, checked continuously
    // over a stochastic run.
    let mut rng = SimRng::seed_from_u64(99);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 16, 3, 1.0, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(3600), &mut rng);
    let mut sched = Scheduler::new(SchedConfig {
        policy: NodeSharing::WholeNodeUser,
        ..SchedConfig::default()
    });
    for _ in 0..8 {
        sched.add_node(16, 65_536, 0);
    }
    trace.submit_all(&mut sched);
    let mut t = 0;
    loop {
        t += 13; // odd step to land at varied instants
        sched.run_until(SimTime::from_secs(t));
        for node in sched.nodes.values() {
            assert!(
                node.users_present().len() <= 1,
                "node {} mixed users at t={t}",
                node.id
            );
        }
        if sched.pending_count() == 0 && sched.running_count() == 0 && t > 3600 {
            break;
        }
        assert!(t < 500_000, "workload should drain");
    }
}

#[test]
fn blast_radius_shared_vs_whole_node() {
    // Sec. IV-B: on a shared node an OOM kill fails *everyone's* jobs.
    // Build the co-residency explicitly, then fail the node.
    for (policy, expected_victims) in [
        (NodeSharing::Shared, 2usize),
        (NodeSharing::WholeNodeUser, 1usize),
    ] {
        let mut sched = Scheduler::new(SchedConfig {
            policy,
            ..SchedConfig::default()
        });
        sched.add_node(16, 65_536, 0);
        sched.add_node(16, 65_536, 0);
        // Two users, each half a node of work.
        for u in [1u32, 2] {
            sched.submit_at(
                SimTime::ZERO,
                JobSpec::new(Uid(u), "half", SimDuration::from_secs(1000))
                    .with_tasks(8)
                    .with_mem_per_task(64),
            );
        }
        sched.schedule_node_failure(SimTime::from_secs(10), eus_simos::NodeId(1));
        sched.run_until(SimTime::from_secs(20));
        assert_eq!(sched.failures.len(), 1);
        assert_eq!(
            sched.failures[0].affected_users().len(),
            expected_victims,
            "policy {policy}"
        );
    }
}

#[test]
fn backfill_improves_throughput_without_starving_head() {
    // With and without backfill on a bursty trace: backfill must not be
    // slower, and the head job of any backlog must start no later.
    let build = |backfill: bool| {
        let mut sched = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            backfill,
            ..SchedConfig::default()
        });
        sched.add_node(8, 65_536, 0);
        // A wall of work then a wide job then trickle.
        sched.submit_at(
            SimTime::ZERO,
            JobSpec::new(Uid(1), "wall", SimDuration::from_secs(100)).with_tasks(6),
        );
        let head = sched.submit_at(
            SimTime::from_secs(1),
            JobSpec::new(Uid(2), "wide", SimDuration::from_secs(50)).with_tasks(8),
        );
        for i in 0..10 {
            sched.submit_at(
                SimTime::from_secs(2 + i),
                JobSpec::new(Uid(3), "small", SimDuration::from_secs(20)).with_tasks(2),
            );
        }
        let end = sched.run_to_completion();
        (sched.jobs[&head].started.unwrap(), end)
    };
    let (head_with, end_with) = build(true);
    let (head_without, end_without) = build(false);
    assert!(head_with <= head_without, "EASY must not delay the head");
    assert!(end_with <= end_without, "backfill must not hurt makespan");
}

#[test]
fn deterministic_across_identical_runs() {
    let a = run_policy(NodeSharing::WholeNodeUser, 1234);
    let b = run_policy(NodeSharing::WholeNodeUser, 1234);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.p50_wait, b.p50_wait);
    assert_eq!(a.effective_util, b.effective_util);
}

/// One reduced E4 replay (paper Sec. IV-B): the LLSC-like mix over a 1 h
/// horizon from a `users`-strong population (seed 42, as E4), on `nodes`
/// 16-core nodes. Returns (useful utilization, claimed utilization,
/// makespan in seconds).
fn e4(policy: NodeSharing, users: usize, nodes: u32) -> (f64, f64, f64) {
    let mut rng = SimRng::seed_from_u64(42);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, users, users / 5 + 1, 1.1, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(3600), &mut rng);
    let mut sched = Scheduler::new(SchedConfig {
        policy,
        ..SchedConfig::default()
    });
    for _ in 0..nodes {
        sched.add_node(16, 65_536, 0);
    }
    trace.submit_all(&mut sched);
    let end = sched.run_to_completion();
    (
        sched.effective_utilization(),
        sched.utilization(),
        end.as_secs_f64(),
    )
}

#[test]
fn whole_node_tax_stays_at_its_recorded_gap() {
    // Whole-node's cost is lost packing, not CPU time: a user's lone small
    // job claims a whole idle node. These are its gaps to shared on
    // reduced E4 traces, recorded from the engine as it stands, so a
    // regression in either direction (a bigger tax, or an unexplained
    // smaller one) shows. Full-size E4 (32 nodes) read -1.3 points /
    // +3.0 % makespan at light load and -6.6 points / +14.9 % at heavy.
    const UTIL_MARGIN_POINTS: f64 = 0.5;
    const MAKESPAN_MARGIN_PCT: f64 = 1.0;
    // (load, users, nodes, whole-node useful-util gap in points,
    //  whole-node makespan gap in %)
    for (load, users, nodes, util_gap, makespan_gap) in [
        ("light", 25, 12, -1.06, 2.65),
        ("heavy", 40, 16, -3.56, 7.38),
    ] {
        let (shared_util, _, shared_end) = e4(NodeSharing::Shared, users, nodes);
        let (whole_util, whole_claimed, whole_end) = e4(NodeSharing::WholeNodeUser, users, nodes);
        let (excl_util, excl_claimed, _) = e4(NodeSharing::Exclusive, users, nodes);

        let got_util_gap = 100.0 * (whole_util - shared_util);
        let got_makespan_gap = 100.0 * (whole_end / shared_end - 1.0);
        assert!(
            (got_util_gap - util_gap).abs() <= UTIL_MARGIN_POINTS,
            "{load}: whole-node useful utilization {got_util_gap:+.2} points vs shared, \
             recorded {util_gap:+.2} ± {UTIL_MARGIN_POINTS}"
        );
        assert!(
            (got_makespan_gap - makespan_gap).abs() <= MAKESPAN_MARGIN_PCT,
            "{load}: whole-node makespan {got_makespan_gap:+.2} % vs shared, \
             recorded {makespan_gap:+.2} ± {MAKESPAN_MARGIN_PCT}"
        );
        // Whole-node claims only what it uses; exclusive wastes whole
        // nodes on single-task jobs.
        assert!((whole_claimed - whole_util).abs() < 1e-9, "{load}");
        assert!(
            excl_claimed - excl_util >= 0.40,
            "{load}: exclusive waste {:.3} fell below 40 %",
            excl_claimed - excl_util
        );
    }
}
