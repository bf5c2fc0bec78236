//! Property tests for the scheduler policy plane: fair-share, preemption,
//! and reservations may reorder *when* jobs run, but they must never
//! weaken the paper's separation story or the scheduler's accounting:
//!
//! * **scrub-before-reassignment** — every preempted allocation emits its
//!   separation epilog (the scrub/cleanup hook) at preemption time, and no
//!   different-user job is ever observed on that node at an earlier
//!   instant; the epilog stream stays chronologically ordered (the cluster
//!   layer consumes it in order, epilogs before prologs);
//! * **no lost or duplicated work** — every submitted job still reaches a
//!   terminal state exactly once, preempted jobs rerun their full
//!   duration, and node capacity is never overcommitted;
//! * **reservations never double-book cores** — at any sampled instant,
//!   the capacity promised by overlapping reservations plus the capacity
//!   still held by running jobs fits inside every node;
//! * **knobs off = reference** — with the whole plane disabled, traces
//!   decorated with QoS classes replay bit-identically on the optimized
//!   engine and the retained `ReferenceScheduler` (QoS is carried, not
//!   acted on);
//! * **replay determinism** — the same decorated trace and node-failure
//!   schedule replayed twice yields identical placements, epilogs,
//!   preemption records and flight-recorder event stream.

mod common;

use common::reference::ReferenceScheduler;
use hpc_user_separation::obs::ObsConfig;
use hpc_user_separation::sched::{
    JobSpec, JobState, NodeSharing, QosClass, SchedConfig, Scheduler,
};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::{NodeId, UserDb};
use hpc_user_separation::workloads::{
    interactive_vs_bulk, multi_partition_storm, UserPopulation, WorkloadMix,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;

fn qos_from(i: usize) -> QosClass {
    match i % 10 {
        0..=4 => QosClass::Bulk,
        5..=7 => QosClass::Normal,
        8 => QosClass::Interactive,
        _ => QosClass::Urgent,
    }
}

/// A mixed-QoS trace over two partitions.
fn qos_trace(seed: u64, with_partitions: bool) -> Vec<(SimTime, Arc<JobSpec>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 8, 2, 1.0, &mut rng);
    (0..120)
        .map(|i| {
            let at = SimTime::from_secs(rng.range_u64(0, 600));
            let tasks = 1 + (rng.range_u64(0, 12) as u32);
            let secs = 30 + rng.range_u64(0, 900);
            let mut spec = JobSpec::new(
                pop.active_user(&mut rng),
                format!("q{i}"),
                SimDuration::from_secs(secs),
            )
            .with_tasks(tasks)
            .with_mem_per_task(512)
            .with_qos(qos_from(i));
            if with_partitions {
                spec.partition = match i % 3 {
                    0 => Some("batch".to_string()),
                    1 => Some("debug".to_string()),
                    _ => None,
                };
            }
            (at, Arc::new(spec))
        })
        .collect()
}

/// The full plane over `nodes` nodes, the last `late` of which are left
/// for [`run_plane_invariants`] to add mid-run: the partitions name them
/// before they join.
fn plane_scheduler(policy: NodeSharing, nodes: u32, with_partitions: bool, late: u32) -> Scheduler {
    let mut s = Scheduler::new(SchedConfig {
        policy,
        fair_share: true,
        preemption: true,
        reservations: 4,
        ..SchedConfig::default()
    });
    for _ in 0..nodes - late {
        s.add_node(8, 16_384, 2);
    }
    if with_partitions {
        // `batch` (the default, and the first class a cycle visits) holds
        // the upper ids, so a late node joins the partition whose blocked
        // head the next cycle reads first.
        let half = nodes / 2;
        let debug: Vec<_> = (1..=half).map(NodeId).collect();
        let batch: Vec<_> = (half + 1..=nodes).map(NodeId).collect();
        s.partitions_mut().add("batch", batch, true).unwrap();
        s.partitions_mut().add("debug", debug, false).unwrap();
    }
    s
}

/// Separation + accounting invariants under the full plane.
///
/// Runs with the flight recorder on (so every green case also re-proves
/// that instrumentation does not perturb the policy plane); on failure the
/// recorder tail is printed for forensics.
fn assert_plane_invariants(
    seed: u64,
    policy: NodeSharing,
    with_partitions: bool,
    late: u32,
) -> Result<(), TestCaseError> {
    let mut s = plane_scheduler(policy, 8, with_partitions, late);
    s.enable_obs(ObsConfig::enabled());
    let result = run_plane_invariants(&mut s, seed, with_partitions, late);
    if result.is_err() {
        eprintln!("{}", s.obs.rec.flight.render_tail("policy plane", 48));
    }
    result
}

/// Runs the trace, adding the `late` nodes one per step from t = 300 s,
/// while heads are blocked and calendars planned.
fn run_plane_invariants(
    s: &mut Scheduler,
    seed: u64,
    with_partitions: bool,
    mut late: u32,
) -> Result<(), TestCaseError> {
    for (at, spec) in qos_trace(seed, with_partitions) {
        s.submit_at_shared(at, spec);
    }

    // Advance in steps, draining epilogs and recording job starts as the
    // cluster layer would observe them.
    let mut epilogs = Vec::new();
    let mut starts: Vec<(SimTime, hpc_user_separation::sched::JobId)> = Vec::new();
    let mut seen_started: BTreeMap<hpc_user_separation::sched::JobId, SimTime> = BTreeMap::new();
    let mut t = 0u64;
    while t < 50_000 {
        t += 97;
        if late > 0 && t >= 300 {
            s.add_node(8, 16_384, 2);
            late -= 1;
        }
        s.run_until(SimTime::from_secs(t));
        epilogs.extend(s.drain_epilogs());
        for j in s.jobs.values() {
            if let Some(st) = j.started {
                let prev = seen_started.insert(j.id, st);
                if prev != Some(st) {
                    starts.push((st, j.id));
                }
            }
        }
        if s.pending_count() == 0 && s.running_count() == 0 && t > 2000 {
            break;
        }
    }
    s.run_to_completion();
    epilogs.extend(s.drain_epilogs());

    // Epilog stream is chronological (the cluster consumes it in order).
    prop_assert!(
        epilogs.windows(2).all(|w| w[0].at <= w[1].at),
        "epilogs out of order"
    );

    // Every preempted allocation got its epilog at preemption time, and no
    // different-user job observed on that node started earlier than the
    // victim's scrub instant while overlapping it.
    for p in &s.preemptions {
        for &node in &p.nodes {
            prop_assert!(
                epilogs
                    .iter()
                    .any(|e| e.job == p.victim && e.node == node && e.at == p.at),
                "missing epilog for preempted {} on {}",
                p.victim,
                node
            );
        }
        // The preemptor starts at the same instant, never before.
        let preemptor_start = s.jobs[&p.preempted_by].started;
        if let Some(st) = preemptor_start {
            // Started may be later if it was itself requeued; it is never
            // before the scrub instant of the capacity it took.
            prop_assert!(st >= p.at, "preemptor ran before the victim's epilog");
        }
    }

    // No lost/duplicated work: every non-cancelled job terminal, counters
    // add up, and preempted jobs still ran their full duration.
    let mut terminal = 0u64;
    for j in s.jobs.values() {
        prop_assert!(j.state.is_terminal(), "{} not terminal", j.id);
        if j.state != JobState::Cancelled {
            terminal += 1;
        }
        if j.state == JobState::Completed {
            let ran = j.ended.unwrap().since(j.started.unwrap());
            prop_assert!(
                ran == j.spec.duration.min(j.spec.time_limit),
                "{} ran {:?} of {:?}",
                j.id,
                ran,
                j.spec.duration
            );
        }
    }
    prop_assert_eq!(
        terminal,
        s.metrics.completed.get() + s.metrics.failed.get() + s.metrics.timed_out.get()
    );
    // All nodes idle and at full capacity at the end (no leaked claims).
    prop_assert!(s.nodes.values().all(|n| n.is_idle()));
    prop_assert!(s
        .nodes
        .values()
        .all(|n| n.free_cores() == n.cores && n.free_gpus() == n.gpus));
    Ok(())
}

/// Reservations never double-book: sampled mid-trace, for every node the
/// cores promised by time-overlapping reservations plus cores held by
/// running jobs that have not released by that instant fit in the node.
fn assert_no_double_booking(seed: u64) -> Result<(), TestCaseError> {
    let mut s = Scheduler::new(SchedConfig {
        policy: NodeSharing::Shared,
        reservations: 6,
        ..SchedConfig::default()
    });
    s.enable_obs(ObsConfig::enabled());
    for _ in 0..6 {
        s.add_node(8, 16_384, 0);
    }
    let result = run_no_double_booking(&mut s, seed);
    if result.is_err() {
        eprintln!("{}", s.obs.rec.flight.render_tail("reservations", 48));
    }
    result
}

fn run_no_double_booking(s: &mut Scheduler, seed: u64) -> Result<(), TestCaseError> {
    for (at, spec) in qos_trace(seed, false) {
        s.submit_at_shared(at, spec);
    }
    let mut t = 0u64;
    while t < 4000 {
        t += 131;
        s.run_until(SimTime::from_secs(t));
        let held = s.held_reservations();
        // Pairwise time-overlapping reservations + running holds per node.
        for (i, a) in held.iter().enumerate() {
            // Probe at each reservation start: sum capacity promised or
            // held at that instant on each of its nodes.
            let probe = a.start;
            for &(node, alloc) in &a.allocs {
                let mut claimed = alloc.cores as u64;
                for (k, b) in held.iter().enumerate() {
                    if k == i {
                        continue;
                    }
                    if b.start <= probe && probe < b.end {
                        claimed += b
                            .allocs
                            .iter()
                            .filter(|(n, _)| *n == node)
                            .map(|(_, al)| al.cores as u64)
                            .sum::<u64>();
                    }
                }
                // Running jobs that still hold the node at `probe` (they
                // release at started + duration in the EASY model).
                for j in s.jobs.values() {
                    if j.state == JobState::Running {
                        let release = j.started.unwrap() + j.spec.duration;
                        if release > probe {
                            claimed += j
                                .allocations
                                .get(&node)
                                .map(|al| al.cores as u64)
                                .unwrap_or(0);
                        }
                    }
                }
                let cap = s.nodes[&node].cores as u64;
                prop_assert!(
                    claimed <= cap,
                    "node {} promised {} cores of {} at {:?} (seed {})",
                    node,
                    claimed,
                    cap,
                    probe,
                    seed
                );
            }
        }
        if s.pending_count() == 0 && s.running_count() == 0 && t > 1200 {
            break;
        }
    }
    Ok(())
}

/// Knobs off ⇒ QoS-decorated traces replay identically to the reference.
fn assert_off_matches_reference(seed: u64, policy: NodeSharing) -> Result<(), TestCaseError> {
    let config = SchedConfig {
        policy,
        ..SchedConfig::default()
    };
    assert!(!config.fair_share && !config.preemption && config.reservations == 0);
    let mut opt = Scheduler::new(config.clone());
    let mut reference = ReferenceScheduler::new(config);
    opt.enable_obs(ObsConfig::enabled());
    reference.enable_flight(256);
    for _ in 0..8 {
        opt.add_node(8, 16_384, 2);
        reference.add_node(8, 16_384, 2);
    }
    let result = run_off_matches_reference(&mut opt, &mut reference, seed);
    if result.is_err() {
        eprintln!("{}", opt.obs.rec.flight.render_tail("optimized engine", 48));
        if let Some(fr) = &reference.flight {
            eprintln!("{}", fr.render_tail("reference engine", 48));
        }
    }
    result
}

fn run_off_matches_reference(
    opt: &mut Scheduler,
    reference: &mut ReferenceScheduler,
    seed: u64,
) -> Result<(), TestCaseError> {
    for (at, spec) in qos_trace(seed, false) {
        let a = opt.submit_at_shared(at, Arc::clone(&spec));
        let b = reference.submit_at_shared(at, spec);
        prop_assert_eq!(a, b);
    }
    let end_a = opt.run_to_completion();
    let end_b = reference.run_to_completion();
    prop_assert_eq!(end_a, end_b, "identical makespan");
    for (id, a) in &opt.jobs {
        let b = &reference.jobs[id];
        prop_assert_eq!(a.state, b.state);
        prop_assert_eq!(a.started, b.started, "start of {}", id);
        prop_assert_eq!(&a.allocations, &b.allocations);
    }
    prop_assert_eq!(opt.drain_epilogs(), reference.drain_epilogs());
    prop_assert!(opt.preemptions.is_empty(), "no preemption with knobs off");
    prop_assert!(opt.held_reservations().is_empty());
    Ok(())
}

/// The LLSC-like mix decorated with the request shapes `qos_trace` lacks:
/// per-job `--exclusive`, wall-time limits tighter than the run time, and
/// an uneven split over both partitions and the default class.
fn decorated_trace(seed: u64) -> Vec<(SimTime, Arc<JobSpec>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 10, 3, 1.0, &mut rng);
    let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(900), &mut rng);
    trace
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut spec = e.spec.clone().with_qos(qos_from(i));
            spec.request_exclusive = i % 7 == 3;
            if i % 11 == 5 {
                spec.time_limit =
                    SimDuration::from_secs_f64((spec.duration.as_secs_f64() / 2.0).max(1.0));
            }
            spec.partition = match i % 5 {
                0 | 1 => Some("batch".to_string()),
                2 => Some("debug".to_string()),
                _ => None,
            };
            (e.at, Arc::new(spec))
        })
        .collect()
}

/// Same decorated trace and node-failure schedule through two fresh
/// engines ⇒ the same run, down to the flight-recorder event stream.
fn assert_replay_deterministic(
    seed: u64,
    policy: NodeSharing,
    failures: u32,
) -> Result<(), TestCaseError> {
    const NODES: u32 = 8;
    let replay = || {
        let mut s = plane_scheduler(policy, NODES, true, 0);
        s.enable_obs(ObsConfig::enabled());
        for (at, spec) in decorated_trace(seed) {
            s.submit_at_shared(at, spec);
        }
        let mut frng = SimRng::seed_from_u64(seed ^ 0xfa11);
        for _ in 0..failures {
            let at = SimTime::from_secs(frng.range_u64(1, 900));
            let node = NodeId(frng.range_u64(1, NODES as u64 + 1) as u32);
            s.schedule_node_failure(at, node);
        }
        let end = s.run_to_completion();
        let epilogs = s.drain_epilogs();
        (s, end, epilogs)
    };
    let (a, end_a, epilogs_a) = replay();
    let (b, end_b, epilogs_b) = replay();
    prop_assert_eq!(end_a, end_b, "makespan");
    prop_assert_eq!(epilogs_a, epilogs_b, "epilog order");
    prop_assert_eq!(a.jobs.len(), b.jobs.len());
    for (id, ja) in &a.jobs {
        let jb = &b.jobs[id];
        prop_assert_eq!(ja.state, jb.state, "state of {}", id);
        prop_assert_eq!(ja.started, jb.started, "start of {}", id);
        prop_assert_eq!(ja.ended, jb.ended, "end of {}", id);
        prop_assert_eq!(&ja.allocations, &jb.allocations, "placement of {}", id);
    }
    prop_assert_eq!(&a.preemptions, &b.preemptions, "preemption records");
    prop_assert_eq!(
        a.obs.rec.flight.events(),
        b.obs.rec.flight.events(),
        "flight stream"
    );
    Ok(())
}

fn policy_from(i: u8) -> NodeSharing {
    match i % 3 {
        0 => NodeSharing::Shared,
        1 => NodeSharing::Exclusive,
        _ => NodeSharing::WholeNodeUser,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: common::cases("SCHED_PROPTEST_CASES", 10), ..ProptestConfig::default() })]

    /// Separation + accounting invariants with the full plane on, across
    /// node-sharing policies, with and without partitions, with up to two
    /// nodes joining mid-run.
    #[test]
    fn plane_preserves_separation_invariants(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        with_partitions in any::<bool>(),
        late_nodes in 0u32..3,
    ) {
        assert_plane_invariants(seed, policy_from(policy_idx), with_partitions, late_nodes)?;
    }

    /// The reservation calendar never double-books cores.
    #[test]
    fn reservations_never_double_book(seed in 0u64..10_000) {
        assert_no_double_booking(seed)?;
    }

    /// QoS-decorated traces with every knob off are trace-identical to the
    /// reference scheduler.
    #[test]
    fn knobs_off_is_reference_identical(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
    ) {
        assert_off_matches_reference(seed, policy_from(policy_idx))?;
    }

    /// A decorated trace under node failures replays identically.
    #[test]
    fn decorated_trace_under_node_failures_replays_identically(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        failures in 1u32..4,
    ) {
        assert_replay_deterministic(seed, policy_from(policy_idx), failures)?;
    }
}

/// Deterministic companion of the late-node property input: the
/// partitions name two nodes that join mid-run, under every policy. A
/// node joining a partition must widen the maintained head fit (the
/// engine's debug build asserts it against the rows) and the partition's
/// calendar.
#[test]
fn nodes_joining_a_named_partition_keep_the_plane_invariants() {
    for seed in 0..6 {
        let policy = policy_from((seed % 3) as u8);
        assert_plane_invariants(seed, policy, true, 2).unwrap();
    }
}

/// Deterministic regression: under fair-share + preemption, a preempted
/// node is scrubbed (epilog with `user_still_active_on_node == false`)
/// before the preemptor's user can be placed there.
#[test]
fn preempted_node_scrub_precedes_reassignment() {
    let mut s = Scheduler::new(SchedConfig {
        policy: NodeSharing::WholeNodeUser,
        fair_share: true,
        preemption: true,
        ..SchedConfig::default()
    });
    let node = s.add_node(8, 16_384, 2);
    let victim = s.submit_at(
        SimTime::ZERO,
        JobSpec::new(
            hpc_user_separation::simos::Uid(1),
            "bulk",
            SimDuration::from_secs(1000),
        )
        .with_tasks(8)
        .with_gpus_per_task(0)
        .with_mem_per_task(512)
        .with_qos(QosClass::Bulk),
    );
    let urgent = s.submit_at(
        SimTime::from_secs(5),
        JobSpec::new(
            hpc_user_separation::simos::Uid(2),
            "urgent",
            SimDuration::from_secs(30),
        )
        .with_tasks(4)
        .with_mem_per_task(512)
        .with_qos(QosClass::Urgent),
    );
    s.run_until(SimTime::from_secs(6));
    assert_eq!(s.jobs[&urgent].state, JobState::Running);
    assert_eq!(s.preemptions.len(), 1);
    let epilogs = s.drain_epilogs();
    let scrub = epilogs
        .iter()
        .find(|e| e.job == victim && e.node == node)
        .expect("victim epilog emitted");
    assert!(
        !scrub.user_still_active_on_node,
        "victim fully left the node: epilog may scrub"
    );
    assert_eq!(scrub.at, SimTime::from_secs(5));
    assert_eq!(s.jobs[&urgent].started, Some(SimTime::from_secs(5)));
    // The victim reruns to completion afterwards.
    s.run_to_completion();
    assert_eq!(s.jobs[&victim].state, JobState::Completed);
}

/// The workload preemption exists for: a whole-node bulk front owns all
/// 16 nodes for the whole window while short urgent sessions arrive. With
/// the knob on, their mean queue wait drops at least tenfold.
#[test]
fn preemption_cuts_interactive_wait_tenfold_on_the_storm() {
    let mean_urgent_wait = |preemption: bool| {
        let mut rng = SimRng::seed_from_u64(0x9e05);
        let mut db = UserDb::new();
        let pop = UserPopulation::build(&mut db, 60, 10, 1.1, &mut rng);
        let trace = interactive_vs_bulk(&pop, 20, 30, SimTime::from_secs(900), &mut rng);
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::WholeNodeUser,
            preemption,
            ..SchedConfig::default()
        });
        for _ in 0..16 {
            s.add_node(16, 65_536, 0);
        }
        trace.submit_all(&mut s);
        s.run_to_completion();
        let waits: Vec<f64> = s
            .jobs
            .values()
            .filter(|j| j.spec.qos == QosClass::Urgent)
            .map(|j| {
                j.started
                    .expect("storm drains")
                    .since(j.submitted)
                    .as_secs_f64()
            })
            .collect();
        assert_eq!(waits.len(), 30);
        (
            waits.iter().sum::<f64>() / waits.len() as f64,
            s.preemptions.len(),
        )
    };
    let (off_wait, off_preemptions) = mean_urgent_wait(false);
    let (on_wait, on_preemptions) = mean_urgent_wait(true);
    assert_eq!(off_preemptions, 0, "no preemptions with the knob off");
    assert!(on_preemptions > 0, "preemption must actually fire");
    assert!(
        off_wait / on_wait.max(1.0) >= 10.0,
        "urgent mean wait {off_wait:.1} s -> {on_wait:.1} s is under tenfold"
    );
}

/// The workload fair-share exists for: 80 % of a 200-job storm is a deep
/// backlog on `batch`; `short` and `debug` get light work. Replayed in four
/// windows, fair-share starts at least one job in every window for every
/// partition that had pending work when the window opened.
#[test]
fn fair_share_starves_no_partition_on_the_multi_partition_storm() {
    let parts: [(&str, u32); 3] = [("batch", 24), ("short", 4), ("debug", 4)];
    let names: Vec<&str> = parts.iter().map(|(n, _)| *n).collect();
    let window = SimTime::from_secs(900);
    let windows = 4u64;
    let mut rng = SimRng::seed_from_u64(0xfa15);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 80, 12, 1.1, &mut rng);
    let trace = multi_partition_storm(&pop, &names, 200, 0.8, window, &mut rng);
    let mut s = Scheduler::new(SchedConfig {
        policy: NodeSharing::Shared,
        fair_share: true,
        ..SchedConfig::default()
    });
    let mut next = 1u32;
    for (i, (name, count)) in parts.iter().enumerate() {
        let ids: Vec<NodeId> = (next..next + count).map(NodeId).collect();
        next += count;
        for _ in 0..*count {
            s.add_node(16, 65_536, 0);
        }
        s.partitions_mut().add(name, ids, i == 0).unwrap();
    }
    trace.submit_all(&mut s);
    let in_part = |s: &Scheduler, name: &str, state: fn(&JobState) -> bool| {
        s.jobs
            .values()
            .filter(|j| j.spec.partition.as_deref() == Some(name) && state(&j.state))
            .count()
    };
    let not_pending = |st: &JobState| *st != JobState::Pending;
    let win = SimDuration::from_secs_f64(window.as_secs_f64() / windows as f64);
    for w in 1..=windows {
        let pending: Vec<bool> = names
            .iter()
            .map(|n| in_part(&s, n, |st| *st == JobState::Pending) > 0)
            .collect();
        let before: Vec<usize> = names.iter().map(|n| in_part(&s, n, not_pending)).collect();
        s.run_until(SimTime::ZERO + win * w);
        for (i, name) in names.iter().enumerate() {
            assert!(
                !pending[i] || in_part(&s, name, not_pending) > before[i],
                "partition {name} had pending work yet started nothing in window {w}"
            );
        }
    }
}
