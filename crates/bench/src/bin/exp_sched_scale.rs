//! Scheduler scale experiment: submission storms replayed through the
//! optimized engine from 256 to 10k nodes, reporting events/sec per
//! node-sharing policy with backfill on and off — the measurement that
//! keeps the hot-path overhaul honest (mitigations get adopted when their
//! overhead is measured and driven to noise; the scheduler deserves the
//! same discipline as the ~25 ns fedauth verify path).
//!
//! Emits `BENCH_sched.json` so the perf trajectory has a machine-readable
//! first point; CI replays `--smoke` (small scale, same code paths).
//!
//! Every row additionally carries a `"phases"` breakdown (cycle-phase span
//! totals, memo/backfill counters, derived ratios) from a second,
//! obs-enabled replay of the same storm. The timed pass stays quiet so the
//! wall numbers measure the engine, not the instrumentation; the loud pass
//! doubles as an equivalence check (identical makespan and completion
//! counts, or the instrumentation perturbed the schedule).
//!
//! Each scale additionally replays a fair-share storm (four striped
//! partitions, jobs decorated round-robin) and emits it as a
//! `"fair_share": true` row.

use eus_bench::table::{f, TextTable};
use eus_obs::ObsConfig;
use eus_sched::{NodeSharing, SchedConfig, Scheduler};
use eus_simcore::{SimRng, SimTime};
use eus_simos::UserDb;
use eus_workloads::{submission_storm, SharedTrace, UserPopulation};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Striped partitions for the fair-share rows: node `i` lands in
/// `p{i % FAIR_SHARE_PARTS}`, job `j` requests `p{j % FAIR_SHARE_PARTS}`.
const FAIR_SHARE_PARTS: usize = 4;

struct Row {
    nodes: u32,
    jobs: usize,
    policy: NodeSharing,
    backfill: bool,
    /// Fair-share rows carry the striped-partition storm.
    fair_share: bool,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    makespan_s: f64,
    completed: u64,
    /// Pre-rendered JSON for the row's `"phases"`, `"counters"`, and
    /// `"ratios"` fields, from the obs-enabled pass.
    obs_json: String,
    shadow_memo_ratio: f64,
    backfill_accept_ratio: f64,
}

fn storm_for(nodes_hint: u64, jobs: usize) -> SharedTrace {
    let mut rng = SimRng::seed_from_u64(0x5c4ed ^ nodes_hint);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 200, 40, 1.1, &mut rng);
    submission_storm(&pop, jobs, SimTime::from_secs(600), &mut rng).to_shared()
}

/// The scheduler a row replays through. Fair-share rows stripe the nodes
/// across [`FAIR_SHARE_PARTS`] partitions (one scheduling class each).
fn scheduler(nodes: u32, policy: NodeSharing, backfill: bool, fair_share: bool) -> Scheduler {
    let mut s = Scheduler::new(SchedConfig {
        policy,
        backfill,
        fair_share,
        ..SchedConfig::default()
    });
    let ids: Vec<_> = (0..nodes).map(|_| s.add_node(16, 65_536, 0)).collect();
    if fair_share {
        for p in 0..FAIR_SHARE_PARTS {
            let stripe = ids.iter().copied().skip(p).step_by(FAIR_SHARE_PARTS);
            s.partitions_mut()
                .add(&format!("p{p}"), stripe, p == 0)
                .unwrap_or_else(|e| panic!("partition p{p}: {e}"));
        }
    }
    s
}

fn replay(
    nodes: u32,
    policy: NodeSharing,
    backfill: bool,
    fair_share: bool,
    trace: &SharedTrace,
) -> Row {
    let mut s = scheduler(nodes, policy, backfill, fair_share);
    let t0 = Instant::now();
    trace.submit_all(&mut s);
    let end = s.run_to_completion();
    let wall = t0.elapsed();
    let terminal = s.metrics.completed.get() + s.metrics.failed.get() + s.metrics.timed_out.get();
    assert_eq!(s.pending_count(), 0, "storm must drain (policy {policy})");
    assert_eq!(s.running_count(), 0);
    // One Submit event per job plus one JobEnd per terminal job.
    let events = trace.len() as u64 + terminal;

    // Second, obs-enabled pass over the same storm: per-phase breakdowns
    // for the JSON row. Replaying loud also proves the instrumentation
    // does not perturb the schedule — identical makespan and outcomes.
    let mut loud = scheduler(nodes, policy, backfill, fair_share);
    loud.enable_obs(ObsConfig::enabled());
    trace.submit_all(&mut loud);
    let loud_end = loud.run_to_completion();
    assert_eq!(
        loud_end, end,
        "obs-enabled replay must match (policy {policy})"
    );
    assert_eq!(loud.metrics.completed.get(), s.metrics.completed.get());

    Row {
        nodes,
        jobs: trace.len(),
        policy,
        backfill,
        fair_share,
        wall_ms: wall.as_secs_f64() * 1e3,
        events,
        events_per_sec: events as f64 / wall.as_secs_f64(),
        makespan_s: end.since(SimTime::ZERO).as_secs_f64(),
        completed: s.metrics.completed.get(),
        obs_json: obs_fields(&loud),
        shadow_memo_ratio: loud.obs.shadow_memo_ratio(),
        backfill_accept_ratio: loud.obs.backfill_accept_ratio(),
    }
}

/// Decorate a storm's jobs round-robin across the striped partitions so
/// the fair-share replay exercises multi-class head selection (it only
/// engages with more than one schedulable class). Decoration depends only
/// on entry order, so the same storm always yields the same classes.
fn partitioned(trace: &SharedTrace) -> SharedTrace {
    let mut out = trace.clone();
    for (i, (_, spec)) in out.entries.iter_mut().enumerate() {
        let part = format!("p{}", i % FAIR_SHARE_PARTS);
        *spec = Arc::new((**spec).clone().with_partition(&part));
    }
    out
}

/// Render the obs-enabled pass's breakdown as the row's `"phases"` (span
/// count + total ns), `"counters"` (every non-zero `sched.*` counter), and
/// `"ratios"` fields.
fn obs_fields(s: &Scheduler) -> String {
    let snap = s.obs.snapshot();
    let mut out = String::from("\"phases\": { ");
    let mut first = true;
    for sp in &snap.spans {
        if sp.count == 0 {
            continue;
        }
        let _ = write!(
            out,
            "{}\"{}\": {{ \"count\": {}, \"total_ns\": {} }}",
            if first { "" } else { ", " },
            sp.name,
            sp.count,
            sp.total_ns
        );
        first = false;
    }
    out.push_str(" }, \"counters\": { ");
    first = true;
    for (name, v) in &snap.counters {
        if *v == 0 {
            continue;
        }
        let _ = write!(out, "{}\"{}\": {}", if first { "" } else { ", " }, name, v);
        first = false;
    }
    let _ = write!(
        out,
        " }}, \"ratios\": {{ \"shadow_memo\": {:.4}, \"shadow_early_exit\": {:.4}, \"backfill_accept\": {:.4} }}",
        s.obs.shadow_memo_ratio(),
        s.obs.shadow_early_exit_ratio(),
        s.obs.backfill_accept_ratio()
    );
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("exp_sched_scale: submission-storm replay at cluster scale\n");
    let scales: &[(u32, usize)] = if smoke {
        &[(256, 5_000)]
    } else {
        &[
            (256, 100_000),
            (1_024, 100_000),
            (4_096, 100_000),
            (10_000, 100_000),
        ]
    };

    let mut rows: Vec<Row> = Vec::new();
    for &(nodes, jobs) in scales {
        println!("-- {nodes} nodes x 16 cores, {jobs}-job storm in a 600 s window");
        let trace = storm_for(nodes as u64, jobs);
        let mut table = TextTable::new(&[
            "policy",
            "backfill",
            "wall ms",
            "events",
            "events/sec",
            "makespan s",
            "completed",
            "memo hit",
            "bf accept",
        ]);
        let mut push = |table: &mut TextTable, r: Row| {
            table.row(&[
                if r.fair_share {
                    format!("{}+fs", r.policy)
                } else {
                    r.policy.to_string()
                },
                if r.backfill { "easy" } else { "fcfs" }.to_string(),
                f(r.wall_ms, 1),
                r.events.to_string(),
                f(r.events_per_sec, 0),
                f(r.makespan_s, 0),
                r.completed.to_string(),
                f(r.shadow_memo_ratio, 3),
                f(r.backfill_accept_ratio, 3),
            ]);
            rows.push(r);
        };
        for policy in NodeSharing::all() {
            for backfill in [false, true] {
                push(&mut table, replay(nodes, policy, backfill, false, &trace));
            }
        }
        // Fair-share row: the same storm striped across partitions.
        let fair = replay(nodes, NodeSharing::Shared, true, true, &partitioned(&trace));
        push(&mut table, fair);
        print!("{}", table.render());
        println!();
    }

    // Acceptance: the 10k-node / 100k-job storm replays in seconds.
    if !smoke {
        let worst = rows
            .iter()
            .filter(|r| r.nodes == 10_000)
            .map(|r| r.wall_ms)
            .fold(0.0f64, f64::max);
        println!(
            "10k-node worst-case wall: {:.1} s (per-policy rows above)",
            worst / 1e3
        );
        assert!(
            worst < 120_000.0,
            "10k-node storm must replay in seconds, took {worst} ms"
        );
    }

    // Machine-readable trajectory point.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"sched_scale\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str("  \"cluster\": { \"cores_per_node\": 16, \"mem_mib_per_node\": 65536 },\n");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"nodes\": {}, \"jobs\": {}, \"policy\": \"{}\", \"backfill\": {}, \
             \"fair_share\": {}, \
             \"wall_ms\": {:.2}, \"events\": {}, \"events_per_sec\": {:.0}, \
             \"makespan_s\": {:.0}, \"completed\": {}, {} }}{}",
            r.nodes,
            r.jobs,
            r.policy,
            r.backfill,
            r.fair_share,
            r.wall_ms,
            r.events,
            r.events_per_sec,
            r.makespan_s,
            r.completed,
            r.obs_json,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    // Smoke runs write to a sibling path so CI cannot clobber the
    // committed full-mode trajectory point.
    let out = if smoke {
        "BENCH_sched.smoke.json"
    } else {
        "BENCH_sched.json"
    };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out} ({} rows)", rows.len());
}
