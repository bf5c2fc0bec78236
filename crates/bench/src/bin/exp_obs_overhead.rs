//! Observability overhead experiment: the number that keeps `eus-obs`
//! honest about "zero-overhead when off".
//!
//! The instrumentation is compiled into the hot path unconditionally —
//! there is no uninstrumented build to diff against — so the disabled-path
//! cost is bounded from measurements we *can* make:
//!
//! 1. Replay a 1 h submission storm with obs **disabled** (the default)
//!    and time it. This is the production configuration.
//! 2. Replay the same storm with obs **enabled**; the recorder's
//!    [`ops_estimate`](eus_obs::Recorder::ops_estimate) counts exactly how
//!    many record calls the replay issued (each enabled record is one
//!    disabled never-taken branch in the quiet run).
//! 3. Microbenchmark the disabled record call in isolation (a tight loop
//!    over a disabled recorder) to get a per-call upper bound.
//!
//! `ops × per_call / quiet_wall` then bounds the disabled-path share of
//! the replay, and the acceptance gate asserts it stays **< 1%**. The
//! loud replay doubles as the no-perturbation proof: identical makespan
//! and completion counts, or instrumentation changed a scheduling
//! decision. Emits `BENCH_obs_overhead.json` (smoke mode writes a sibling
//! path so CI cannot clobber the committed trajectory point).
//!
//! A second replay drives the causal-tracing hooks: a mixed-shape storm
//! submitted through `SecureCluster::try_submit`, so every job mints a
//! trace root (plus the broker's submit-gate hit and the scheduler's
//! dispatch hit). The same call-count × isolated per-call discipline
//! bounds the disabled path (record + trace calls) at **< 1%** of the
//! quiet cluster replay and the enabled trace hooks at **< 5%**, and the
//! loud replay must reproduce the quiet outcomes. Those numbers go to
//! stdout only; the JSON artifact keeps its fields.

use eus_bench::assert_or_dump;
use eus_core::{ClusterSpec, SecureCluster, SeparationConfig};
use eus_obs::{ObsConfig, Recorder, TraceBuffer};
use eus_sched::{JobSpec, SchedConfig, Scheduler};
use eus_simcore::{SimDuration, SimRng, SimTime};
use eus_simos::UserDb;
use eus_workloads::{submission_storm, SharedTrace, UserPopulation};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One hour of submissions — the paper-scale replay window.
const WINDOW_S: u64 = 3_600;

fn storm(jobs: usize) -> SharedTrace {
    let mut rng = SimRng::seed_from_u64(0x0b5_0e4);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, 200, 40, 1.1, &mut rng);
    submission_storm(&pop, jobs, SimTime::from_secs(WINDOW_S), &mut rng).to_shared()
}

struct Replay {
    wall_s: f64,
    makespan: SimTime,
    completed: u64,
}

fn replay(nodes: u32, trace: &SharedTrace, obs: Option<ObsConfig>) -> (Replay, Option<Scheduler>) {
    let mut s = Scheduler::new(SchedConfig::default());
    if let Some(cfg) = obs {
        s.enable_obs(cfg);
    }
    for _ in 0..nodes {
        s.add_node(16, 65_536, 0);
    }
    let t0 = Instant::now();
    trace.submit_all(&mut s);
    let makespan = s.run_to_completion();
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(s.pending_count(), 0, "storm must drain");
    let r = Replay {
        wall_s,
        makespan,
        completed: s.metrics.completed.get(),
    };
    (r, obs.map(|_| s))
}

/// Per-call cost of a *disabled* record, measured in isolation: one
/// counter bump plus one span start/end pair per iteration, averaged over
/// the three calls. The recorder is `black_box`ed so the enabled check
/// cannot be hoisted out of the loop.
fn disabled_per_call_ns(iters: u64) -> f64 {
    let mut rec = Recorder::disabled();
    let c = rec.counter("bench.disabled.counter");
    let sp = rec.span("bench.disabled.span");
    let t0 = Instant::now();
    for _ in 0..iters {
        let r = black_box(&mut rec);
        r.incr(c);
        let tok = black_box(r.span_start());
        r.span_end(sp, tok);
    }
    let per_iter = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    assert_eq!(
        rec.ops_estimate(),
        0,
        "disabled recorder must record nothing"
    );
    per_iter / 3.0
}

/// The traced replay: `jobs` mixed-shape submissions through the traced
/// `try_submit` entry point on a 48-node cluster, big enough that
/// placement, not instrumentation, dominates the wall.
fn cluster_replay(jobs: usize, loud: bool) -> (Replay, Option<SecureCluster>) {
    let spec = ClusterSpec {
        compute_nodes: 48,
        cores_per_node: 16,
        mem_per_node_mib: 65_536,
        gpus_per_node: 0,
        gpu_mem_bytes: 1024,
        login_nodes: 1,
    };
    let mut c = SecureCluster::new(SeparationConfig::llsc(), spec);
    if loud {
        c.enable_obs(ObsConfig::enabled());
    }
    let users: Vec<_> = (0..8)
        .map(|i| c.add_user(&format!("u{i}")).expect("fresh db"))
        .collect();
    let mut rng = SimRng::seed_from_u64(0x0b5_0e4);
    let t0 = Instant::now();
    for i in 0..jobs {
        let user = *rng.pick(&users);
        let dur = SimDuration::from_secs(30 + rng.range_u64(0, 600));
        let spec = JobSpec::new(user, format!("j{i}"), dur)
            .with_tasks(1 + rng.range_u64(0, 8) as u32)
            .with_cpus_per_task(1 + rng.range_u64(0, 4) as u32)
            .with_mem_per_task(512);
        c.try_submit(spec).expect("home submits authorize");
        if i % 256 == 0 {
            c.advance_to(SimTime::from_secs((i as u64 / 256) * 60));
        }
    }
    let makespan = c.run_to_completion();
    let wall_s = t0.elapsed().as_secs_f64();
    let completed = c.sched.read().metrics.completed.get();
    let r = Replay {
        wall_s,
        makespan,
        completed,
    };
    (r, loud.then_some(c))
}

/// Per-call cost of a *disabled* trace mint (root + finish), isolated.
fn disabled_trace_per_call_ns(iters: u64) -> f64 {
    let tb = TraceBuffer::disabled("bench", 7);
    let t0 = Instant::now();
    for i in 0..iters {
        let b = black_box(&tb);
        let tok = b.root("bench.disabled.root", SimTime::from_secs(i));
        b.finish(tok, SimTime::from_secs(i));
    }
    let per_iter = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    assert_eq!(tb.pushed(), 0, "disabled ring must push nothing");
    per_iter / 2.0
}

/// Per-call cost of an *enabled* trace record (root + child hit + two
/// finishes → 4 ring touches per iteration), isolated on a live ring.
fn enabled_trace_per_call_ns(iters: u64) -> f64 {
    let tb = TraceBuffer::new("bench", 7, 4096, true);
    let t0 = Instant::now();
    for i in 0..iters {
        let b = black_box(&tb);
        let tok = b.root("bench.enabled.root", SimTime::from_secs(i));
        let ctx = b.hit(tok.ctx(), "bench.enabled.hit", SimTime::from_secs(i), i);
        black_box(ctx);
        b.finish(tok, SimTime::from_secs(i + 1));
    }
    let per_iter = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    assert!(tb.pushed() >= iters, "enabled ring must record");
    per_iter / 2.0
}

/// The tracing gates on the traced replay: loud outcomes equal quiet, the
/// disabled path (record + trace calls) stays below 1% and the enabled
/// trace hooks below 5% of the quiet wall, both as call count × isolated
/// per-call cost (the replay walls are ~0.1 s, where wall-vs-wall deltas
/// are machine noise).
fn trace_hook_gates(smoke: bool) {
    let (jobs, reps, micro_iters) = if smoke {
        (1_500usize, 5usize, 2_000_000u64)
    } else {
        (12_000, 9, 10_000_000)
    };
    // Quiet and loud interleave within each rep so slow machine-load drift
    // hits both alike; min-of-reps then compares like with like.
    let mut quiet_wall = f64::INFINITY;
    let mut quiet: Option<Replay> = None;
    let mut loud: Option<(Replay, SecureCluster)> = None;
    for _ in 0..reps {
        let (r, _) = cluster_replay(jobs, false);
        quiet_wall = quiet_wall.min(r.wall_s);
        quiet = Some(r);
        let (r, c) = cluster_replay(jobs, true);
        loud = Some((r, c.expect("loud replay keeps its cluster")));
    }
    let quiet = quiet.expect("at least one rep");
    let (loud, c) = loud.expect("at least one rep");
    let forensics = || c.obs.rec.flight.render_tail("obs-trace", 64);
    assert_or_dump!(
        loud.makespan == quiet.makespan && loud.completed == quiet.completed,
        forensics(),
        "tracing must not change outcomes: loud ({:?}, {}) vs quiet ({:?}, {})",
        loud.makespan,
        loud.completed,
        quiet.makespan,
        quiet.completed
    );
    let rec_ops = c.obs.rec.ops_estimate() + c.sched.read().obs.rec.ops_estimate();
    let trace_ops =
        c.obs.trace.pushed() + c.portal.obs.trace.pushed() + c.sched.read().obs.trace.pushed();
    let disabled_ns = disabled_trace_per_call_ns(micro_iters);
    let disabled_pct = 100.0 * (rec_ops + trace_ops) as f64 * disabled_ns / 1e9 / quiet_wall;
    let enabled_ns = enabled_trace_per_call_ns(micro_iters / 10);
    let trace_pct = 100.0 * trace_ops as f64 * enabled_ns / 1e9 / quiet_wall;
    println!(
        "traced replay:  {jobs} try_submit jobs, {quiet_wall:.3} s quiet wall (best of {reps}), \
         outcomes identical"
    );
    println!(
        "trace hooks:    {rec_ops} record + {trace_ops} trace calls, disabled bound \
         {disabled_pct:.4}%, enabled bound {trace_pct:.4}% ({enabled_ns:.0} ns/call)"
    );
    assert_or_dump!(
        disabled_pct < 1.0,
        forensics(),
        "traced disabled-path overhead must stay below 1%, measured {disabled_pct:.4}%"
    );
    assert_or_dump!(
        trace_pct < 5.0,
        forensics(),
        "trace hooks must cost below 5% of the quiet replay, bound {trace_pct:.4}%"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nodes, jobs, reps) = if smoke {
        (256u32, 3_000usize, 2usize)
    } else {
        (1_024, 60_000, 3)
    };
    println!(
        "exp_obs_overhead: {jobs}-job / {WINDOW_S} s storm on {nodes} nodes ({} mode)\n",
        if smoke { "smoke" } else { "full" }
    );
    let trace = storm(jobs);

    // Quiet replays (production configuration): best-of-N wall time.
    let mut quiet_wall = f64::INFINITY;
    let mut quiet: Option<Replay> = None;
    for _ in 0..reps {
        let (r, _) = replay(nodes, &trace, None);
        quiet_wall = quiet_wall.min(r.wall_s);
        quiet = Some(r);
    }
    let quiet = quiet.unwrap();
    println!("quiet replay:   {:.3} s wall (best of {reps})", quiet_wall);

    // Loud replay: same storm, obs on. Must not perturb the schedule.
    let (loud, s) = replay(nodes, &trace, Some(ObsConfig::enabled()));
    let s = s.unwrap();
    assert_or_dump!(
        loud.makespan == quiet.makespan,
        s.obs.rec.flight.render_tail("obs-overhead", 64),
        "enabling obs must not change the makespan: loud {:?} vs quiet {:?}",
        loud.makespan,
        quiet.makespan
    );
    assert_or_dump!(
        loud.completed == quiet.completed,
        s.obs.rec.flight.render_tail("obs-overhead", 64),
        "enabling obs must not change job outcomes: loud {} vs quiet {}",
        loud.completed,
        quiet.completed
    );
    println!(
        "loud replay:    {:.3} s wall, outcomes identical",
        loud.wall_s
    );

    // Every enabled record call was a disabled branch in the quiet run.
    let ops = s.obs.rec.ops_estimate();
    let per_call_ns = disabled_per_call_ns(if smoke { 5_000_000 } else { 20_000_000 });
    let disabled_cost_s = ops as f64 * per_call_ns / 1e9;
    let disabled_pct = 100.0 * disabled_cost_s / quiet_wall;
    let enabled_pct = 100.0 * (loud.wall_s - quiet_wall) / quiet_wall;
    println!("record calls:   {ops} (from the loud run's ops_estimate)");
    println!("disabled call:  {per_call_ns:.3} ns (isolated microbench, upper bound)");
    println!(
        "disabled path:  {disabled_cost_s:.6} s of {quiet_wall:.3} s = {disabled_pct:.4}% of the replay"
    );
    println!("enabled path:   {enabled_pct:+.1}% wall vs quiet (informational)");

    // Acceptance: the disabled instrumentation path costs < 1% of the
    // 1 h-trace replay.
    assert_or_dump!(
        disabled_pct < 1.0,
        s.obs.rec.flight.render_tail("obs-overhead", 64),
        "disabled-path overhead must stay below 1%, measured {disabled_pct:.4}%"
    );

    trace_hook_gates(smoke);

    // Phase breakdown from the loud run, for the artifact.
    let snap = s.obs.snapshot();
    let mut phases = String::from("{ ");
    let mut first = true;
    for sp in &snap.spans {
        if sp.count == 0 {
            continue;
        }
        let _ = write!(
            phases,
            "{}\"{}\": {{ \"count\": {}, \"total_ns\": {} }}",
            if first { "" } else { ", " },
            sp.name,
            sp.count,
            sp.total_ns
        );
        first = false;
    }
    phases.push_str(" }");

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"obs_overhead\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"nodes\": {nodes}, \"jobs\": {jobs}, \"window_s\": {WINDOW_S},"
    );
    let _ = writeln!(json, "  \"quiet_wall_s\": {quiet_wall:.4},");
    let _ = writeln!(json, "  \"loud_wall_s\": {:.4},", loud.wall_s);
    let _ = writeln!(json, "  \"record_calls\": {ops},");
    let _ = writeln!(json, "  \"disabled_call_ns\": {per_call_ns:.4},");
    let _ = writeln!(json, "  \"disabled_overhead_pct\": {disabled_pct:.5},");
    let _ = writeln!(json, "  \"enabled_overhead_pct\": {enabled_pct:.3},");
    let _ = writeln!(json, "  \"phases\": {phases}");
    json.push_str("}\n");
    let out = if smoke {
        "BENCH_obs_overhead.smoke.json"
    } else {
        "BENCH_obs_overhead.json"
    };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");
}
