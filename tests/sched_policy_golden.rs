//! Golden schedule digests for the scheduler's policy plane.
//!
//! `ReferenceScheduler` is the oracle for the knobs-off engine only; with
//! fair-share, preemption or reservations on there is no independent
//! model. This suite is the differential guard instead: it replays seeded
//! traces through every knob combination × partition layout × sharing
//! policy and compares a digest of *everything a decision can show* with
//! constants recorded from the engine as it stood before the policy
//! plane's per-class bookkeeping was rebuilt (PR 14). A rewrite of that
//! plane must keep every constant — same heads, same placements, same
//! reservations, same ledger bits.
//!
//! A scenario's digest covers, in order:
//!
//! * at fixed instants while the trace drains: `held_reservations()` as
//!   returned, and `earliest_start()` of every fourth job that has arrived
//!   (inside the top-K, beyond it, running, finished);
//! * at the end: every job's `(id, started, ended, state, nodes)`, the
//!   `preemptions` log, and the fair-share ledger's standings per
//!   partition (decayed usage, bit for bit).
//!
//! No scenario cancels a job: `cancel` is where PR 14 fixes a stale
//! calendar, so its behaviour is pinned by a unit test in `engine.rs`, not
//! by constants recorded before the fix.
//!
//! To re-record after an *intended* behaviour change, run the test and
//! copy the array it prints on mismatch.

use hpc_user_separation::sched::{
    JobSpec, JobState, NodeSharing, QosClass, SchedConfig, Scheduler,
};
use hpc_user_separation::simcore::{SimDuration, SimRng, SimTime};
use hpc_user_separation::simos::{NodeId, UserDb};
use hpc_user_separation::workloads::{multi_partition_storm, UserPopulation};
use std::sync::Arc;

const PARTITIONS: [&str; 3] = ["batch", "short", "debug"];
const NODES: u32 = 16;

/// FNV-1a over the little-endian bytes of every value fed in.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn time(&mut self, t: Option<SimTime>) {
        self.u64(t.map_or(u64::MAX - 1, SimTime::as_micros));
    }
}

#[derive(Clone, Copy, Debug)]
enum Knobs {
    FairShare,
    FairSharePreempt,
    /// Top-K in fair-share order (the per-user K-way merge), not band order.
    FairShareReservations,
    All,
    PreemptReservations,
}

#[derive(Clone, Copy, Debug)]
enum Layout {
    /// batch 1–8, short 9–12, debug 13–16.
    Disjoint,
    /// Slurm's "all + subset": batch spans every node, the other two are
    /// subsets of it.
    Overlapping,
}

#[derive(Clone, Copy, Debug)]
enum TraceKind {
    Storm,
    Qos,
}

fn config(knobs: Knobs, policy: NodeSharing, half_life: SimDuration) -> SchedConfig {
    let (fair_share, preemption, reservations) = match knobs {
        Knobs::FairShare => (true, false, 0),
        Knobs::FairSharePreempt => (true, true, 0),
        Knobs::FairShareReservations => (true, false, 4),
        Knobs::All => (true, true, 4),
        Knobs::PreemptReservations => (false, true, 4),
    };
    SchedConfig {
        policy,
        fair_share,
        preemption,
        reservations,
        fair_share_half_life: half_life,
        ..SchedConfig::default()
    }
}

fn scheduler(cfg: SchedConfig, layout: Layout) -> Scheduler {
    let mut s = Scheduler::new(cfg);
    for _ in 0..NODES {
        s.add_node(16, 65_536, 2);
    }
    let ids = |lo: u32, hi: u32| (lo..=hi).map(NodeId);
    let batch_hi = match layout {
        Layout::Disjoint => 8,
        Layout::Overlapping => NODES,
    };
    s.partitions_mut()
        .add("batch", ids(1, batch_hi), true)
        .unwrap();
    s.partitions_mut().add("short", ids(9, 12), false).unwrap();
    s.partitions_mut().add("debug", ids(13, 16), false).unwrap();
    s
}

/// The benchmark's `sched_policy` shape at test size: a deep backlog into
/// `batch`, steady light work into the others, QoS bands so preemption
/// and band-major dispatch have something to act on.
fn storm_trace(seed: u64) -> Vec<(SimTime, Arc<JobSpec>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 12, 0, 1.1, &mut rng);
    let trace = multi_partition_storm(
        &pop,
        &PARTITIONS,
        160,
        0.8,
        SimTime::from_secs(900),
        &mut rng,
    );
    trace
        .entries
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let qos = match i % 13 {
                0 => QosClass::Urgent,
                1 | 2 => QosClass::Interactive,
                3..=6 => QosClass::Normal,
                _ => QosClass::Bulk,
            };
            (e.at, Arc::new(e.spec.with_qos(qos)))
        })
        .collect()
}

/// Mixed request shapes: QoS classes, per-job `--exclusive`, GPUs, tight
/// wall-time limits, and jobs that name no partition (the default class).
fn qos_trace(seed: u64) -> Vec<(SimTime, Arc<JobSpec>)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 9, 2, 1.0, &mut rng);
    (0..150)
        .map(|i| {
            let at = SimTime::from_secs(rng.range_u64(0, 900));
            let tasks = 1 + (rng.range_u64(0, 24) as u32);
            let secs = 30 + rng.range_u64(0, 1200);
            let mut spec = JobSpec::new(
                pop.active_user(&mut rng),
                format!("g{i}"),
                SimDuration::from_secs(secs),
            )
            .with_tasks(tasks)
            .with_mem_per_task(1024)
            .with_qos(match i % 10 {
                0..=4 => QosClass::Bulk,
                5..=7 => QosClass::Normal,
                8 => QosClass::Interactive,
                _ => QosClass::Urgent,
            });
            if i % 7 == 3 {
                spec.request_exclusive = true;
            }
            if i % 9 == 4 {
                spec = spec.with_tasks(1 + tasks % 4).with_gpus_per_task(1);
            }
            if i % 11 == 5 {
                spec.time_limit = SimDuration::from_secs((secs / 2).max(1));
            }
            spec.partition = match i % 4 {
                0 => Some("batch".to_string()),
                1 => Some("short".to_string()),
                2 => Some("debug".to_string()),
                _ => None,
            };
            (at, Arc::new(spec))
        })
        .collect()
}

/// Replay one scenario and digest what it decided.
fn run_scenario(
    kind: TraceKind,
    knobs: Knobs,
    layout: Layout,
    policy: NodeSharing,
    half_life: SimDuration,
    seed: u64,
) -> u64 {
    let mut s = scheduler(config(knobs, policy, half_life), layout);
    let trace = match kind {
        TraceKind::Storm => storm_trace(seed),
        TraceKind::Qos => qos_trace(seed),
    };
    let jobs: Vec<_> = trace
        .into_iter()
        .map(|(at, spec)| s.submit_at_shared(at, spec))
        .collect();
    if matches!(kind, TraceKind::Qos) {
        // A shared node (in `short`, and in `batch` when overlapping)
        // crashes mid-backlog and repairs ten minutes later.
        s.schedule_node_failure(SimTime::from_secs(700), NodeId(10));
    }

    let mut d = Digest::new();
    for step in 1..=24u64 {
        s.run_until(SimTime::from_secs(step * 150));
        let held = s.held_reservations();
        d.u64(held.len() as u64);
        for r in &held {
            d.u64(r.job.0);
            d.u64(r.user.0 as u64);
            d.time(Some(r.start));
            d.time(Some(r.end));
            for (n, a) in &r.allocs {
                d.u64(n.0 as u64);
                d.u64(a.tasks as u64);
                d.u64(a.cores as u64);
                d.u64(a.mem_mib);
                d.u64(a.gpus as u64);
            }
        }
        // Only jobs that have arrived: a job whose submit event is still
        // in the future belongs to no class queue yet.
        for &j in jobs.iter().step_by(4) {
            if s.jobs[&j].submitted <= s.now() {
                d.time(s.earliest_start(j));
            }
        }
    }
    s.run_to_completion();

    for j in s.jobs.values() {
        d.u64(j.id.0);
        d.time(j.started);
        d.time(j.ended);
        d.u64(match j.state {
            JobState::Pending => 0,
            JobState::Running => 1,
            JobState::Completed => 2,
            JobState::Failed => 3,
            JobState::Timeout => 4,
            JobState::Cancelled => 5,
        });
        for n in j.allocations.keys() {
            d.u64(n.0 as u64);
        }
    }
    d.u64(s.preemptions.len() as u64);
    for p in &s.preemptions {
        d.u64(p.victim.0);
        d.u64(p.victim_user.0 as u64);
        d.u64(p.preempted_by.0);
        d.time(Some(p.at));
        for n in &p.nodes {
            d.u64(n.0 as u64);
        }
    }
    let now = s.now();
    for part in PARTITIONS {
        for (uid, usage) in s.fair_share_ledger().partition_standings(part, now) {
            d.u64(uid.0 as u64);
            d.u64(usage.to_bits());
        }
    }
    d.0
}

/// Every scenario, in the order of [`GOLDEN`].
fn scenarios() -> Vec<(String, u64)> {
    let hour = SimDuration::from_secs(3600);
    let mut out = Vec::new();
    let mut seed = 0xE05_2024u64;
    for kind in [TraceKind::Storm, TraceKind::Qos] {
        for knobs in [
            Knobs::FairShare,
            Knobs::FairSharePreempt,
            Knobs::FairShareReservations,
            Knobs::All,
            Knobs::PreemptReservations,
        ] {
            for layout in [Layout::Disjoint, Layout::Overlapping] {
                for policy in [NodeSharing::Shared, NodeSharing::WholeNodeUser] {
                    seed += 1;
                    let name = format!("{kind:?}/{knobs:?}/{layout:?}/{policy:?}/seed {seed:#x}");
                    out.push((name, run_scenario(kind, knobs, layout, policy, hour, seed)));
                }
            }
        }
    }
    // A 20 s half-life puts the storm's makespan several rebases past the
    // ledger's 256-half-life threshold: scores are renormalized mid-run
    // and head order must come out the same.
    for knobs in [Knobs::FairShare, Knobs::All] {
        seed += 1;
        out.push((
            format!("rebase/{knobs:?}/seed {seed:#x}"),
            run_scenario(
                TraceKind::Storm,
                knobs,
                Layout::Disjoint,
                NodeSharing::Shared,
                SimDuration::from_secs(20),
                seed,
            ),
        ));
    }
    out
}

/// Recorded from the engine at commit 6622992 (PR 13), before the policy
/// plane was rebuilt on `ClassId` / `ClassState`.
const GOLDEN: [u64; 42] = [
    0x3e7f4e17a38a6448, // Storm/FairShare/Disjoint/Shared/seed 0xe052025
    0xf4d84aa11da813de, // Storm/FairShare/Disjoint/WholeNodeUser/seed 0xe052026
    0x45d2668b270df71a, // Storm/FairShare/Overlapping/Shared/seed 0xe052027
    0xa070fc6c3d33f820, // Storm/FairShare/Overlapping/WholeNodeUser/seed 0xe052028
    0xa96320f1230ebe93, // Storm/FairSharePreempt/Disjoint/Shared/seed 0xe052029
    0xaede654b0caff0ff, // Storm/FairSharePreempt/Disjoint/WholeNodeUser/seed 0xe05202a
    0xc2665ad0417bd69e, // Storm/FairSharePreempt/Overlapping/Shared/seed 0xe05202b
    0x0188f1f133f6b825, // Storm/FairSharePreempt/Overlapping/WholeNodeUser/seed 0xe05202c
    0x5237e6d106bfb2bc, // Storm/FairShareReservations/Disjoint/Shared/seed 0xe05202d
    0xa121efc9b5dfb61a, // Storm/FairShareReservations/Disjoint/WholeNodeUser/seed 0xe05202e
    0xb0e8fb1c17998742, // Storm/FairShareReservations/Overlapping/Shared/seed 0xe05202f
    0x8fe9ae9af401bef7, // Storm/FairShareReservations/Overlapping/WholeNodeUser/seed 0xe052030
    0x8b956397c049a0a8, // Storm/All/Disjoint/Shared/seed 0xe052031
    0x4f02d12b8db4e372, // Storm/All/Disjoint/WholeNodeUser/seed 0xe052032
    0x010f3a1d69a78adf, // Storm/All/Overlapping/Shared/seed 0xe052033
    0x5391418809c211ab, // Storm/All/Overlapping/WholeNodeUser/seed 0xe052034
    0xbd792c34a9297a4f, // Storm/PreemptReservations/Disjoint/Shared/seed 0xe052035
    0x3c2f54fcae8fd008, // Storm/PreemptReservations/Disjoint/WholeNodeUser/seed 0xe052036
    0x18e57a6bd5aca4fd, // Storm/PreemptReservations/Overlapping/Shared/seed 0xe052037
    0xcc4af8d55070a41a, // Storm/PreemptReservations/Overlapping/WholeNodeUser/seed 0xe052038
    0xab5c83f649a9aa62, // Qos/FairShare/Disjoint/Shared/seed 0xe052039
    0xf37b764e0212e927, // Qos/FairShare/Disjoint/WholeNodeUser/seed 0xe05203a
    0xbb283fdbd9c474c5, // Qos/FairShare/Overlapping/Shared/seed 0xe05203b
    0x165e2f3a1d176511, // Qos/FairShare/Overlapping/WholeNodeUser/seed 0xe05203c
    0xce42f28cfdd066c5, // Qos/FairSharePreempt/Disjoint/Shared/seed 0xe05203d
    0xb890860e47744615, // Qos/FairSharePreempt/Disjoint/WholeNodeUser/seed 0xe05203e
    0x4541355d70c27d44, // Qos/FairSharePreempt/Overlapping/Shared/seed 0xe05203f
    0x58a25c34ffa9ac2f, // Qos/FairSharePreempt/Overlapping/WholeNodeUser/seed 0xe052040
    0x9fd6ff93571a142a, // Qos/FairShareReservations/Disjoint/Shared/seed 0xe052041
    0xe69f01a309216064, // Qos/FairShareReservations/Disjoint/WholeNodeUser/seed 0xe052042
    0x2d0bfedb6d6c0a95, // Qos/FairShareReservations/Overlapping/Shared/seed 0xe052043
    0xa3ef93ae92c2a98c, // Qos/FairShareReservations/Overlapping/WholeNodeUser/seed 0xe052044
    0x3449d5a5b79ca7f4, // Qos/All/Disjoint/Shared/seed 0xe052045
    0x045680c96cba9ebc, // Qos/All/Disjoint/WholeNodeUser/seed 0xe052046
    0xe212708794087b10, // Qos/All/Overlapping/Shared/seed 0xe052047
    0x20d0b9be0d3d9b64, // Qos/All/Overlapping/WholeNodeUser/seed 0xe052048
    0xde7d381bc9788f11, // Qos/PreemptReservations/Disjoint/Shared/seed 0xe052049
    0x793cb81fc7ee74e1, // Qos/PreemptReservations/Disjoint/WholeNodeUser/seed 0xe05204a
    0x08f1642ab10984f1, // Qos/PreemptReservations/Overlapping/Shared/seed 0xe05204b
    0xba8e002c19c4ba34, // Qos/PreemptReservations/Overlapping/WholeNodeUser/seed 0xe05204c
    0x2dbc6c4d3e53a4e9, // rebase/FairShare/seed 0xe05204d
    0x527dde448c7175e6, // rebase/All/seed 0xe05204e
];

#[test]
fn policy_plane_matches_recorded_digests() {
    let got = scenarios();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "scenario list and constants differ"
    );
    let bad: Vec<&str> = got
        .iter()
        .zip(GOLDEN)
        .filter(|((_, d), g)| d != g)
        .map(|((name, _), _)| name.as_str())
        .collect();
    if !bad.is_empty() {
        let rows: Vec<String> = got
            .iter()
            .map(|(name, d)| format!("    {d:#018x}, // {name}"))
            .collect();
        panic!(
            "{} of {} scenarios diverged from the recorded schedule:\n  {}\nactual digests:\n{}",
            bad.len(),
            got.len(),
            bad.join("\n  "),
            rows.join("\n")
        );
    }
}

/// The rebase scenarios only guard what they claim to if the ledger did
/// rebase: the scaled score of a charge made at `t` is `c·2^((t−origin)/h)`,
/// so without a rebase a late charge would be astronomically large.
#[test]
fn short_half_life_scenario_crosses_the_rebase_threshold() {
    let mut s = scheduler(
        config(
            Knobs::FairShare,
            NodeSharing::Shared,
            SimDuration::from_secs(20),
        ),
        Layout::Disjoint,
    );
    for (at, spec) in storm_trace(7) {
        s.submit_at_shared(at, spec);
    }
    let end = s.run_to_completion();
    assert!(
        end > SimTime::from_secs(256 * 20),
        "makespan {end:?} is inside one rebase window"
    );
    let ledger = s.fair_share_ledger();
    let top = ledger
        .partition_standings("batch", end)
        .into_iter()
        .map(|(u, _)| ledger.score("batch", u))
        .fold(0.0f64, f64::max);
    assert!(
        top > 0.0 && top < 2f64.powi(300),
        "scores stay in rebased range: {top:e}"
    );
}
