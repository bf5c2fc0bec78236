//! Parallel-dispatch equivalence: the sharded scheduler core must be
//! **bit-identical** to the sequential engine at every thread width.
//!
//! Sharded dispatch (`Scheduler::set_shard_threads`) fans per-class head
//! *planning* out over worker threads and consumes the precomputed plans
//! in the sequential class merge, re-validating `(head, state_version)`
//! before use. The determinism contract — a seed may only be consumed at
//! the exact version it was planned for, and consumption order is the
//! sequential class order — means thread count may change *wall time*
//! only, never a scheduling decision. This suite proves it the blunt way:
//!
//! * random traces × every `NodeSharing` policy × every knobs-on policy
//!   config (fair-share alone, + preemption, + reservations, all three)
//!   × node failures, driven in lockstep at widths 1/2/4/8 — identical
//!   squeue views along the way, identical start times / placements /
//!   epilog order / preemption records / **flight-recorder event
//!   streams** at the end;
//! * the knobs-off config raced against the retained
//!   [`ReferenceScheduler`] oracle with sharding requested — the width
//!   knob must be inert outside the policy plane;
//! * a seed-replay determinism check (`BENCH`-style fingerprints plus
//!   decision counters): every counter except the `sched.shard.*` family
//!   is thread-invariant — the split is documented in
//!   `crates/sched/src/obs.rs` and cross-checked by eus-analyze R4.
//!
//! Per-property case count is `SCHED_PAR_PROPTEST_CASES` (CI runs 64).

use hpc_user_separation::obs::ObsConfig;
use hpc_user_separation::sched::{
    JobSpec, NodeSharing, QosClass, ReferenceScheduler, SchedConfig, Scheduler,
};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::{Credentials, Gid, NodeId, Uid, UserDb};
use hpc_user_separation::workloads::{UserPopulation, WorkloadMix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// Sharding widths under test. 1 is the sequential baseline the others
/// must match bit-for-bit.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Per-property case count; CI raises it via `SCHED_PAR_PROPTEST_CASES`.
fn cases(default: u32) -> u32 {
    std::env::var("SCHED_PAR_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn policy_from(i: u8) -> NodeSharing {
    match i % 3 {
        0 => NodeSharing::Shared,
        1 => NodeSharing::Exclusive,
        _ => NodeSharing::WholeNodeUser,
    }
}

/// The knobs-on policy configs the shard plane must not perturb. Fair
/// share is always on — per-partition classes are what sharding fans out.
fn knobs_from(i: u8, policy: NodeSharing) -> SchedConfig {
    let mut cfg = SchedConfig {
        policy,
        fair_share: true,
        ..SchedConfig::default()
    };
    match i % 4 {
        0 => {}
        1 => cfg.preemption = true,
        2 => cfg.reservations = 4,
        _ => {
            cfg.preemption = true;
            cfg.reservations = 4;
        }
    }
    cfg
}

/// A randomized trace with the request shapes that exercise every shard
/// staleness path: mixed QoS (preemption), per-job `--exclusive`, tight
/// wall-time limits, and partition routing across both classes.
fn sharded_trace(seed: u64) -> Vec<(SimTime, Arc<JobSpec>)> {
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
                spec.time_limit =
                    SimDuration::from_secs_f64((spec.duration.as_secs_f64() / 2.0).max(1.0));
            }
            spec.partition = match i % 5 {
                0 | 1 => Some("batch".to_string()),
                2 => Some("debug".to_string()),
                _ => None, // resolves to the default partition's class
            };
            (e.at, Arc::new(spec))
        })
        .collect()
}

/// One engine per width, identical except for `set_shard_threads`.
fn build_fleet(config: &SchedConfig, nodes: u32) -> Vec<Scheduler> {
    WIDTHS
        .iter()
        .map(|&threads| {
            let mut s = Scheduler::new(config.clone());
            s.set_shard_threads(threads);
            assert_eq!(s.shard_threads(), threads);
            s.enable_obs(ObsConfig::enabled().with_flight_capacity(512));
            for _ in 0..nodes {
                s.add_node(16, 65_536, 2);
            }
            let half = nodes / 2;
            let batch: Vec<NodeId> = (1..=half).map(NodeId).collect();
            let debug: Vec<NodeId> = (half + 1..=nodes).map(NodeId).collect();
            s.partitions_mut().add("batch", batch, true).unwrap();
            s.partitions_mut().add("debug", debug, false).unwrap();
            s
        })
        .collect()
}

/// Drive every width through the same trace + failure schedule in
/// lockstep and assert the widths are observationally indistinguishable,
/// live (squeue under PrivateData, counts) and terminally (states, times,
/// placements, epilog order, preemption records, flight streams).
fn assert_widths_identical(
    seed: u64,
    policy: NodeSharing,
    knobs: u8,
    nodes: u32,
    failures: u32,
) -> Result<(), TestCaseError> {
    let config = knobs_from(knobs, policy);
    let mut fleet = build_fleet(&config, nodes);
    let trace = sharded_trace(seed);
    for (at, spec) in &trace {
        let ids: Vec<_> = fleet
            .iter_mut()
            .map(|s| s.submit_at_shared(*at, Arc::clone(spec)))
            .collect();
        prop_assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "job ids assigned in lockstep"
        );
    }
    let mut frng = SimRng::seed_from_u64(seed ^ 0xfa11);
    for _ in 0..failures {
        let at = SimTime::from_secs(frng.range_u64(1, 900));
        let node = NodeId(frng.range_u64(1, nodes as u64 + 1) as u32);
        for s in fleet.iter_mut() {
            s.schedule_node_failure(at, node);
        }
    }

    let viewers = [Credentials::new(Uid(1001), Gid(2001)), Credentials::root()];
    let mut t = 0u64;
    loop {
        t += 157;
        let horizon = SimTime::from_secs(t);
        for s in fleet.iter_mut() {
            s.run_until(horizon);
        }
        let (base, rest) = fleet.split_first().expect("fleet is non-empty");
        for (i, s) in rest.iter().enumerate() {
            prop_assert_eq!(
                base.pending_count(),
                s.pending_count(),
                "pending at t={} width {}",
                t,
                WIDTHS[i + 1]
            );
            prop_assert_eq!(base.running_count(), s.running_count());
            for v in &viewers {
                prop_assert_eq!(
                    base.squeue(v),
                    s.squeue(v),
                    "squeue width {}",
                    WIDTHS[i + 1]
                );
            }
        }
        if base.pending_count() == 0 && base.running_count() == 0 && t > 900 {
            break;
        }
        if t > 40_000 {
            prop_assert_eq!(base.running_count(), 0, "no runaway jobs");
            break;
        }
    }
    let ends: Vec<SimTime> = fleet.iter_mut().map(|s| s.run_to_completion()).collect();
    let epilogs: Vec<_> = fleet.iter_mut().map(|s| s.drain_epilogs()).collect();
    let (base, rest) = fleet.split_first().expect("fleet is non-empty");
    for (i, s) in rest.iter().enumerate() {
        let width = WIDTHS[i + 1];
        prop_assert_eq!(ends[0], ends[i + 1], "makespan at width {}", width);
        prop_assert_eq!(
            &epilogs[0],
            &epilogs[i + 1],
            "epilog order at width {}",
            width
        );
        prop_assert_eq!(base.jobs.len(), s.jobs.len());
        for (id, a) in &base.jobs {
            let b = &s.jobs[id];
            prop_assert_eq!(a.state, b.state, "state of {} at width {}", id, width);
            prop_assert_eq!(a.started, b.started, "start of {} at width {}", id, width);
            prop_assert_eq!(a.ended, b.ended, "end of {} at width {}", id, width);
            prop_assert_eq!(
                &a.allocations,
                &b.allocations,
                "placement of {} at width {}",
                id,
                width
            );
        }
        prop_assert_eq!(
            &base.preemptions,
            &s.preemptions,
            "preemption records at width {}",
            width
        );
        // The flight recorders saw the identical event stream — same
        // kinds, same payloads, same sim times, same sequence numbers.
        prop_assert_eq!(
            base.obs.rec.flight.events(),
            s.obs.rec.flight.events(),
            "flight stream at width {}",
            width
        );
    }
    // The sweep must actually exercise the shard plane, or this file
    // proves nothing: widths > 1 plan, width 1 never does.
    let plans: Vec<u64> = fleet
        .iter()
        .map(|s| s.obs.rec.counter_value(s.obs.c_shard_plans))
        .collect();
    prop_assert_eq!(plans[0], 0, "width 1 never fans out");
    prop_assert!(
        plans[1..].iter().all(|&p| p > 0),
        "every width > 1 planned at least once (got {:?})",
        plans
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(6), ..ProptestConfig::default() })]

    /// Random traces × policy × knobs-on config, healthy cluster.
    #[test]
    fn widths_identical_on_healthy_cluster(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        knobs in 0u8..4,
    ) {
        assert_widths_identical(seed, policy_from(policy_idx), knobs, 12, 0)?;
    }

    /// Same, with node failures injected mid-run (staleness storm: every
    /// failure bumps the state version under planned-but-unconsumed seeds).
    #[test]
    fn widths_identical_under_node_failures(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
        knobs in 0u8..4,
        failures in 1u32..4,
    ) {
        assert_widths_identical(seed, policy_from(policy_idx), knobs, 10, failures)?;
    }

    /// Outside the policy plane the width knob must be inert: a sharded
    /// engine with knobs off is still bit-identical to the reference
    /// oracle (same comparison the main equivalence suite runs).
    #[test]
    fn knobs_off_sharding_matches_reference(
        seed in 0u64..10_000,
        policy_idx in 0u8..3,
    ) {
        let config = SchedConfig {
            policy: policy_from(policy_idx),
            ..SchedConfig::default()
        };
        let mut opt = Scheduler::new(config.clone());
        opt.set_shard_threads(4);
        let mut reference = ReferenceScheduler::new(config);
        for _ in 0..10 {
            opt.add_node(16, 65_536, 2);
            reference.add_node(16, 65_536, 2);
        }
        for (at, spec) in sharded_trace(seed) {
            let mut spec = (*spec).clone();
            spec.partition = None; // no partitions configured here
            let spec = Arc::new(spec);
            let a = opt.submit_at_shared(at, Arc::clone(&spec));
            let b = reference.submit_at_shared(at, spec);
            prop_assert_eq!(a, b);
        }
        let end_opt = opt.run_to_completion();
        let end_ref = reference.run_to_completion();
        prop_assert_eq!(end_opt, end_ref, "identical makespan");
        for (id, a) in &opt.jobs {
            let b = &reference.jobs[id];
            prop_assert_eq!(a.state, b.state);
            prop_assert_eq!(a.started, b.started);
            prop_assert_eq!(a.ended, b.ended);
            prop_assert_eq!(&a.allocations, &b.allocations);
        }
        prop_assert_eq!(opt.drain_epilogs(), reference.drain_epilogs());
        prop_assert_eq!(
            opt.obs.rec.counter_value(opt.obs.c_shard_plans),
            0,
            "knobs off: the shard plane never engages"
        );
    }
}

/// Seed-replay determinism (the BENCH contract): the same `(seed, trace)`
/// replayed at different widths produces identical fingerprints — events,
/// makespan, completion counts — **and identical decision counters**.
/// Only the `sched.shard.*` family may vary with width (it records the
/// planning fan-out itself); the split is documented in the
/// `eus_sched::obs` module docs and mirrored in ARCHITECTURE.md's
/// thread-invariant counter table.
#[test]
fn seed_replay_counters_thread_invariant() {
    let run = |threads: usize| {
        let config = knobs_from(3, NodeSharing::Shared); // all knobs on
        let mut fleet = build_fleet(&config, 12);
        let s = &mut fleet[if threads == 1 { 0 } else { 2 }];
        assert_eq!(s.shard_threads(), threads);
        for (at, spec) in sharded_trace(0xbe9c) {
            s.submit_at_shared(at, spec);
        }
        let end = s.run_to_completion();
        (
            end,
            s.metrics.completed.get(),
            s.metrics.timed_out.get(),
            s.jobs.len(),
            s.obs.snapshot(),
        )
    };
    let (end1, done1, to1, jobs1, snap1) = run(1);
    let (end4, done4, to4, jobs4, snap4) = run(4);
    // Fingerprints: the numbers a BENCH row is built from.
    assert_eq!(end1, end4, "makespan is thread-invariant");
    assert_eq!(done1, done4, "completions are thread-invariant");
    assert_eq!(to1, to4, "timeouts are thread-invariant");
    assert_eq!(jobs1, jobs4);
    // Decision counters: everything except `sched.shard.*` must match.
    let invariant = |snap: &hpc_user_separation::obs::ObsSnapshot| -> Vec<(&str, u64)> {
        snap.counters
            .iter()
            .filter(|(name, _)| !name.starts_with("sched.shard."))
            .copied()
            .collect()
    };
    assert_eq!(
        invariant(&snap1),
        invariant(&snap4),
        "every non-shard counter is thread-invariant"
    );
    let shard = |snap: &hpc_user_separation::obs::ObsSnapshot, name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(
        shard(&snap1, "sched.shard.plans"),
        0,
        "width 1 skips planning entirely"
    );
    assert!(
        shard(&snap4, "sched.shard.plans") > 0,
        "width 4 planned: the run exercised the fan-out"
    );
    assert!(
        shard(&snap4, "sched.shard.seed_hits") > 0,
        "the merge consumed fresh seeds"
    );
}
