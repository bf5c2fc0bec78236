//! Observational equivalence: the optimized scheduler (incremental
//! placement index, capacity-vector EASY shadow, order-indexed queue) must
//! behave **identically** to the retained scan-the-world reference
//! implementation — same start times, same placements, same epilogs, same
//! squeue views — over random traces × every `NodeSharing` policy, with
//! backfill on and off, node failures injected, partitions configured, and
//! per-job `--exclusive` requests mixed in.
//!
//! The two engines share job/node/policy types, so any divergence is in the
//! scheduling data structures themselves — exactly what this suite guards.

mod common;

use hpc_user_separation::obs::ObsConfig;
use hpc_user_separation::sched::{
    JobSpec, JobState, NodeSharing, PrivateData, QosClass, ReferenceScheduler, SchedConfig,
    Scheduler,
};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::{Credentials, Gid, NodeId, Uid, UserDb};
use hpc_user_separation::workloads::{UserPopulation, WorkloadMix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

fn policy_from(i: u8) -> NodeSharing {
    match i % 3 {
        0 => NodeSharing::Shared,
        1 => NodeSharing::Exclusive,
        _ => NodeSharing::WholeNodeUser,
    }
}

/// A randomized trace decorated with the request shapes the engines must
/// agree on: per-job `--exclusive`, tight wall-time limits (Timeout path +
/// backfill bounds), QoS classes (carried but inert with the policy plane
/// off — the default config under test), and partition routing (including
/// a submit-time reject).
fn decorated_trace(seed: u64, with_partitions: bool) -> Vec<(SimTime, Arc<JobSpec>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 10, 3, 1.0, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(900), &mut rng);
    trace
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut spec = e.spec.clone();
            if i % 7 == 3 {
                spec.request_exclusive = true;
            }
            spec.qos = match i % 9 {
                0..=4 => QosClass::Bulk,
                5 | 6 => QosClass::Normal,
                7 => QosClass::Interactive,
                _ => QosClass::Urgent,
            };
            if i % 11 == 5 {
                // Requested limit under the true runtime: slurmstepd kills
                // at the limit (and backfill reasons over the limit).
                spec.time_limit =
                    SimDuration::from_secs_f64((spec.duration.as_secs_f64() / 2.0).max(1.0));
            }
            if with_partitions {
                spec.partition = match i % 6 {
                    0 => Some("batch".to_string()),
                    1 => Some("debug".to_string()),
                    2 if i % 36 == 2 => Some("nope".to_string()), // rejected at submit
                    _ => None,
                };
            }
            (e.at, Arc::new(spec))
        })
        .collect()
}

struct Pair {
    opt: Scheduler,
    reference: ReferenceScheduler,
}

fn build_pair(
    policy: NodeSharing,
    nodes: u32,
    cores: u32,
    gpus: u32,
    backfill: bool,
    with_partitions: bool,
    private_data: PrivateData,
) -> Pair {
    let config = SchedConfig {
        policy,
        backfill,
        private_data,
        ..SchedConfig::default()
    };
    let mut opt = Scheduler::new(config.clone());
    let mut reference = ReferenceScheduler::new(config);
    for _ in 0..nodes {
        opt.add_node(cores, 65_536, gpus);
        reference.add_node(cores, 65_536, gpus);
    }
    if with_partitions {
        let half = nodes / 2;
        let batch: Vec<NodeId> = (1..=half).map(NodeId).collect();
        let debug: Vec<NodeId> = (half + 1..=nodes).map(NodeId).collect();
        opt.partitions_mut()
            .add("batch", batch.clone(), true)
            .unwrap();
        opt.partitions_mut()
            .add("debug", debug.clone(), false)
            .unwrap();
        reference.partitions.add("batch", batch, true).unwrap();
        reference.partitions.add("debug", debug, false).unwrap();
    }
    Pair { opt, reference }
}

/// Drive both schedulers through the same trace + failure schedule and
/// assert identical observable behavior, both in lockstep (squeue views,
/// counts) and at the end (states, start/end times, placements, epilogs).
///
/// Both engines run with their flight recorders on (the optimized engine
/// via full `enable_obs`, so every green run here is also a proof that
/// instrumentation does not perturb scheduling decisions). On any
/// divergence the last events of **both** recorders are printed —
/// replayable forensics instead of an opaque mismatch. Set
/// `SCHED_EQUIV_FORCE_FAIL=1` to force a failure and see the tails.
fn assert_equivalent(
    seed: u64,
    policy: NodeSharing,
    nodes: u32,
    backfill: bool,
    failures: u32,
    with_partitions: bool,
) -> Result<(), TestCaseError> {
    // Odd seeds run with the paper's PrivateData filtering, so the squeue
    // comparison also covers whole-row redaction.
    let private_data = if seed % 2 == 1 {
        PrivateData::llsc()
    } else {
        PrivateData::open()
    };
    let mut pair = build_pair(
        policy,
        nodes,
        16,
        2,
        backfill,
        with_partitions,
        private_data,
    );
    pair.opt.enable_obs(ObsConfig {
        flight_capacity: 256,
        ..ObsConfig::enabled()
    });
    pair.reference.enable_flight(256);
    let result = drive_pair(&mut pair, seed, nodes, failures, with_partitions);
    if result.is_err() {
        eprintln!(
            "{}",
            pair.opt.obs.rec.flight.render_tail("optimized engine", 48)
        );
        if let Some(fr) = &pair.reference.flight {
            eprintln!("{}", fr.render_tail("reference engine", 48));
        }
    }
    result
}

fn drive_pair(
    pair: &mut Pair,
    seed: u64,
    nodes: u32,
    failures: u32,
    with_partitions: bool,
) -> Result<(), TestCaseError> {
    let trace = decorated_trace(seed, with_partitions);
    for (at, spec) in &trace {
        let a = pair.opt.submit_at_shared(*at, Arc::clone(spec));
        let b = pair.reference.submit_at_shared(*at, Arc::clone(spec));
        prop_assert_eq!(a, b, "job ids assigned in lockstep");
    }
    let mut frng = SimRng::seed_from_u64(seed ^ 0xfa11);
    for _ in 0..failures {
        let at = SimTime::from_secs(frng.range_u64(1, 900));
        let node = NodeId(frng.range_u64(1, nodes as u64 + 1) as u32);
        pair.opt.schedule_node_failure(at, node);
        pair.reference.schedule_node_failure(at, node);
    }

    // Lockstep advance, comparing live views along the way.
    let viewers = [Credentials::new(Uid(1001), Gid(2001)), Credentials::root()];
    let mut t = 0u64;
    loop {
        t += 157;
        let horizon = SimTime::from_secs(t);
        pair.opt.run_until(horizon);
        pair.reference.run_until(horizon);
        prop_assert_eq!(pair.opt.pending_count(), pair.reference.pending_count());
        prop_assert_eq!(pair.opt.running_count(), pair.reference.running_count());
        for v in &viewers {
            prop_assert_eq!(pair.opt.squeue(v), pair.reference.squeue(v), "squeue views");
        }
        if pair.opt.pending_count() == 0 && pair.opt.running_count() == 0 && t > 900 {
            break;
        }
        // A job too big for its (Exclusive-policy) partition pends forever
        // — in both schedulers. All genuine activity is over long before
        // this horizon (arrivals ≤900s, durations ≤4h, repairs 600s).
        if t > 40_000 {
            prop_assert_eq!(pair.opt.running_count(), 0, "no runaway jobs");
            break;
        }
    }
    let end_opt = pair.opt.run_to_completion();
    let end_ref = pair.reference.run_to_completion();
    prop_assert_eq!(end_opt, end_ref, "identical makespan");

    // Full per-job comparison: states, times, placements.
    prop_assert_eq!(pair.opt.jobs.len(), pair.reference.jobs.len());
    for (id, a) in &pair.opt.jobs {
        let b = &pair.reference.jobs[id];
        prop_assert_eq!(a.state, b.state, "state of {}", id);
        prop_assert_eq!(a.submitted, b.submitted);
        prop_assert_eq!(a.started, b.started, "start time of {}", id);
        prop_assert_eq!(a.ended, b.ended, "end time of {}", id);
        prop_assert_eq!(&a.allocations, &b.allocations, "placement of {}", id);
    }
    // Epilog streams (order matters: the cluster layer consumes them).
    prop_assert_eq!(pair.opt.drain_epilogs(), pair.reference.drain_epilogs());
    // Failure records.
    prop_assert_eq!(pair.opt.failures.len(), pair.reference.failures.len());
    for (fa, fb) in pair.opt.failures.iter().zip(pair.reference.failures.iter()) {
        prop_assert_eq!(fa.node, fb.node);
        prop_assert_eq!(fa.at, fb.at);
        prop_assert_eq!(&fa.failed_jobs, &fb.failed_jobs);
    }
    // Aggregate metrics.
    prop_assert_eq!(
        pair.opt.metrics.completed.get(),
        pair.reference.metrics.completed.get()
    );
    prop_assert_eq!(
        pair.opt.metrics.failed.get(),
        pair.reference.metrics.failed.get()
    );
    prop_assert_eq!(
        pair.opt.metrics.timed_out.get(),
        pair.reference.metrics.timed_out.get()
    );
    prop_assert_eq!(
        pair.opt.metrics.wait_times.summary().map(|s| s.count),
        pair.reference.metrics.wait_times.summary().map(|s| s.count)
    );
    // Forced-failure hook: proves the flight tails actually print on a red
    // run (`SCHED_EQUIV_FORCE_FAIL=1 cargo test --test sched_equivalence`).
    if std::env::var_os("SCHED_EQUIV_FORCE_FAIL").is_some() {
        prop_assert!(
            false,
            "forced failure via SCHED_EQUIV_FORCE_FAIL — flight-recorder tails follow"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: common::cases("SCHED_PROPTEST_CASES", 12), ..ProptestConfig::default() })]

    /// Random traces × policy × backfill on/off on a healthy cluster.
    #[test]
    fn equivalent_on_healthy_cluster(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        backfill in any::<bool>(),
    ) {
        assert_equivalent(seed, policy_from(policy_idx), 12, backfill, 0, false)?;
    }

    /// Same, with node failures injected mid-run (kills + repairs + the
    /// index rebuild paths).
    #[test]
    fn equivalent_under_node_failures(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        failures in 1u32..4,
    ) {
        assert_equivalent(seed, policy_from(policy_idx), 10, true, failures, false)?;
    }

    /// Same, with partitions configured (eligible-set-filtered placement,
    /// submit-time rejects) and backfill on/off.
    #[test]
    fn equivalent_with_partitions(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        backfill in any::<bool>(),
    ) {
        assert_equivalent(seed, policy_from(policy_idx), 12, backfill, 0, true)?;
    }
}

/// EASY invariant pinned at 1k-node scale: a backfilled job may never delay
/// the head job's shadow start. 999 nodes run full-width long jobs; node
/// 1000 has a 2-core hole. The head needs a whole node, so its shadow start
/// is the first release (t=100). A short filler fits the hole and ends
/// before the shadow → backfills; a long filler would overrun the shadow →
/// must wait behind the head.
#[test]
fn backfill_never_delays_head_at_1k_nodes() {
    let mut s = Scheduler::new(SchedConfig {
        policy: NodeSharing::Shared,
        backfill: true,
        ..SchedConfig::default()
    });
    for _ in 0..1000 {
        s.add_node(8, 65_536, 0);
    }
    let wall = |user: u32, name: &str, tasks: u32, secs: u64| {
        JobSpec::new(Uid(user), name, SimDuration::from_secs(secs))
            .with_tasks(tasks)
            .with_cpus_per_task(1)
            .with_mem_per_task(64)
    };
    // Fill nodes 1..=999 completely for 100s; node 1000 gets 6/8 cores.
    for _ in 0..999 {
        s.submit_at(SimTime::ZERO, wall(1, "wall", 8, 100));
    }
    s.submit_at(SimTime::ZERO, wall(1, "hole", 6, 100));
    // Head wants a full node → shadow = 100.
    let head = s.submit_at(SimTime::from_secs(1), wall(2, "head", 8, 10).exclusive());
    // Short filler: 2 cores, ends 2+50 < 100 → may backfill into the hole.
    let short = s.submit_at(SimTime::from_secs(2), wall(3, "short", 2, 50));
    // Long filler: 2 cores, 2+500 > 100 → would delay the head; must wait.
    let long = s.submit_at(SimTime::from_secs(3), wall(4, "long", 2, 500));
    s.run_until(SimTime::from_secs(5));
    assert_eq!(s.jobs[&head].state, JobState::Pending, "head blocked");
    assert_eq!(s.jobs[&short].state, JobState::Running, "short backfilled");
    assert_eq!(s.jobs[&long].state, JobState::Pending, "long refused");
    s.run_to_completion();
    assert_eq!(
        s.jobs[&head].started,
        Some(SimTime::from_secs(100)),
        "head started exactly at its shadow time — backfill delayed nothing"
    );
    assert!(s.jobs[&long].started.unwrap() >= SimTime::from_secs(100));
}
