//! Repetitions and runs.
//!
//! A *repetition* is one fresh cluster: set-up (timed → `setup_s`), then
//! the workload's closed loop against it (timed → everything else). The
//! same seed gives the same inputs, so every repetition of a run does
//! identical work and its simulated-clock outcomes must repeat exactly —
//! which the run checks.
//!
//! A *run* repeats until its time budget is spent (at least
//! [`MIN_REPS`]) and reports, per metric, the median (set-up, per-layer
//! values) or the quiet quartile ([`quiet_quartile`]: wall-clock rates
//! and latencies) over its repetitions. The end-to-end run keeps `enable_obs`
//! and tracing off. The traced run alternates an untraced, a traced and
//! (where one exists) a `baseline()` repetition of the same inputs, so
//! tracing overhead and the separation cost are ratios of walls measured
//! side by side.

use crate::drive::Driver;
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, percentile, quiet_quartile, sorted};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Deployment, RunStats, Scale, SimOutcome, Workload};
use eus_core::obs::ObsConfig;
use eus_core::SecureCluster;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest repetitions a run reports a median over.
pub const MIN_REPS: usize = 3;
/// The attribution gate: a traced run fails when this share (or more) of
/// the measured wall lies outside every call span.
pub const UNTRACED_LIMIT: f64 = 0.05;

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall seconds to generate inputs, build and provision.
    pub setup_s: f64,
    /// Wall seconds of the measured loop.
    pub wall_s: f64,
    /// What the loop did.
    pub stats: RunStats,
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Operations whose outcome differed.
    pub failed: u64,
    /// The first few mismatches.
    pub examples: Vec<String>,
    /// Harness spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Per-layer metric values (empty when untraced).
    pub layers: BTreeMap<&'static str, f64>,
    /// The sizes the workload ran at.
    pub size: String,
}

impl Rep {
    /// Operations per wall second.
    pub fn throughput(&self) -> f64 {
        self.stats.ops as f64 / self.wall_s
    }
}

/// Run one repetition. `separated` is what the oracle expects of
/// cross-user operations — normally `dep == Llsc`; a test passes the
/// wrong value to see the mismatches counted.
pub fn run_rep(
    w: Workload,
    seed: u64,
    scale: Scale,
    dep: Deployment,
    traced: bool,
    separated: bool,
) -> Rep {
    let t0 = Instant::now();
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    let setup = tr.begin("harness.setup");
    let gen = tr.begin("workloads.generate");
    let inputs = workloads::generate(w, seed, scale);
    tr.end(gen);
    let mut world = workloads::build(&inputs, dep);
    if traced {
        world.cluster.enable_obs(ObsConfig::enabled());
    }
    tr.end(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut drv = Driver::new(world.cluster, tr, separated);
    let t1 = Instant::now();
    let rep = drv.tr.begin("harness.rep");
    let stats = workloads::run(&mut drv, &inputs, world.realms.as_mut());
    drv.tr.end(rep);
    let wall_s = t1.elapsed().as_secs_f64();

    let spans = drv.tr.take();
    let layers = if traced {
        layer_metrics(&drv, &spans, &stats)
    } else {
        BTreeMap::new()
    };
    Rep {
        setup_s,
        wall_s,
        stats,
        attempted: drv.oracle.attempted,
        failed: drv.oracle.failed,
        examples: std::mem::take(&mut drv.oracle.examples),
        spans,
        layers,
        size: workloads::describe_size(&inputs),
    }
}

/// Per-layer values of one traced repetition: harness span self times,
/// plus counts read from the program's own counters from outside.
fn layer_metrics(drv: &Driver, spans: &[Span], stats: &RunStats) -> BTreeMap<&'static str, f64> {
    let by_name = trace::busy_by_name(spans);
    let busy = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // A declared metric's name, by the name it is built from.
    let declared = |name: String| -> &'static str {
        PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is measured but not declared"))
            .name
    };
    let put_span = |m: &mut BTreeMap<&'static str, f64>, prefix: &str, ns: u64, calls: u64| {
        m.insert(declared(format!("{prefix}.busy_ms")), ms(ns));
        m.insert(declared(format!("{prefix}.calls")), calls as f64);
    };

    // Harness spans around single calls.
    for span in [
        "portal.login",
        "fedauth.ensure_session",
        "fedauth.authorize_submit",
        "fedauth.login",
        "fedauth.revoke",
        "sched.submit",
        "core.advance",
        "simos.pam_login",
        "fsperm.write",
        "fsperm.read",
        "simnet.listen",
        "simnet.connect",
        "simnet.close",
    ] {
        let b = busy(span);
        put_span(&mut m, span, b.self_ns, b.calls);
    }
    // Sends and validations are timed a batch per span; their call counts
    // are the program's own counters.
    put_span(
        &mut m,
        "simnet.send",
        busy("simnet.send").self_ns,
        drv.c.fabric.metrics.established_packets.get(),
    );
    for span in ["fedauth.validate", "revsync.validate", "workloads.generate"] {
        m.insert(declared(format!("{span}.busy_ms")), ms(busy(span).self_ns));
    }
    // The traced run asks the gate once on its own before each
    // try_submit_at, which asks it again inside: take the probe's time back
    // out so sched.submit is the scheduler's share.
    let submit = m["sched.submit.busy_ms"] - m["fedauth.authorize_submit.busy_ms"];
    m.insert("sched.submit.busy_ms", submit.max(0.0));

    // The program's own spans and counters, read from outside.
    let c: &SecureCluster = &drv.c;
    {
        let sched = c.sched.read();
        let o = &sched.obs;
        for (id, phase) in [
            (o.sp_select, "sched.cycle.select"),
            (o.sp_dispatch, "sched.cycle.dispatch"),
            (o.sp_shadow, "sched.cycle.shadow"),
            (o.sp_backfill, "sched.cycle.backfill"),
            (o.sp_preempt, "sched.cycle.preempt"),
        ] {
            let s = o.rec.span_stats(id);
            put_span(&mut m, phase, s.total_ns, s.count);
        }
        let count = |id| o.rec.counter_value(id) as f64;
        m.insert(
            "sched.backfill.accept_ratio",
            ratio(count(o.c_bf_accepts), count(o.c_bf_attempts)),
        );
        let (hit, miss) = (count(o.c_head_memo_hit), count(o.c_head_memo_miss));
        m.insert("sched.memo.head_hit_ratio", ratio(hit, hit + miss));
        m.insert("sched.shard.plans", count(o.c_shard_plans));
    }
    {
        let o = &c.obs;
        let s = o.rec.span_stats(o.sp_reconcile);
        put_span(&mut m, "core.reconcile", s.total_ns, s.count);
        m.insert(
            "core.reconcile.prologs",
            o.rec.counter_value(o.c_prologs) as f64,
        );
        m.insert(
            "core.reconcile.epilogs",
            o.rec.counter_value(o.c_epilogs) as f64,
        );
        m.insert("accel.assigns", o.rec.counter_value(o.c_gpu_assigns) as f64);
        m.insert("accel.scrubs", o.rec.counter_value(o.c_gpu_scrubs) as f64);
    }
    let (mut pump_ms, mut pump_calls, mut deliveries) = (0.0, 0.0, 0.0);
    let (mut rs_calls, mut rs_ns) = (0.0, 0.0);
    if let Some(mesh) = &c.revsync {
        let s = mesh.obs.rec.span_stats(mesh.obs.sp_pump);
        pump_ms = ms(s.total_ns);
        pump_calls = s.count as f64;
        deliveries = mesh.obs.rec.counter_value(mesh.obs.c_deliveries) as f64;
        for (name, v) in mesh.obs.validate_snapshot() {
            match name {
                "revsync.validate.calls" => rs_calls = v as f64,
                "revsync.validate.ns" => rs_ns = v as f64,
                _ => {}
            }
        }
    }
    m.insert("revsync.pump.busy_ms", pump_ms);
    m.insert("revsync.pump.calls", pump_calls);
    m.insert("revsync.pump.deliveries", deliveries);
    m.insert("revsync.validate.ns_per_call", ratio(rs_ns, rs_calls));
    m.insert("revsync.replica.lag_max_s", stats.replica_lag_max_s);
    let (mut v_calls, mut v_ns, mut v_rejects) = (0.0, 0.0, 0.0);
    if let Some(b) = &c.broker {
        if let Some(v) = b.read().validate_stats() {
            v_calls = v.calls() as f64;
            v_ns = v.total_ns() as f64;
            v_rejects = v.rejects() as f64;
        }
    }
    m.insert("fedauth.validate.ns_per_call", ratio(v_ns, v_calls));
    m.insert("fedauth.validate.reject_ratio", ratio(v_rejects, v_calls));
    let (mut judged, mut hits, mut idents, mut denied) = (0.0, 0.0, 0.0, 0.0);
    for host in &c.ubf_stats {
        let s = host.lock();
        judged += s.total() as f64;
        hits += s.cache_hits.get() as f64;
        idents += s.ident_queries.get() as f64;
        denied += s.denied.get() as f64;
    }
    m.insert("ubf.decisions", judged);
    m.insert("ubf.cache_hit_ratio", ratio(hits, judged));
    m.insert("ubf.ident_rtts", idents);
    m.insert("ubf.deny_ratio", ratio(denied, judged));
    m.insert(
        "fsperm.deny_ratio",
        ratio(drv.fs_denied as f64, drv.fs_calls as f64),
    );

    let phases: f64 = [
        "sched.cycle.select.busy_ms",
        "sched.cycle.dispatch.busy_ms",
        "sched.cycle.shadow.busy_ms",
        "sched.cycle.backfill.busy_ms",
        "sched.cycle.preempt.busy_ms",
    ]
    .iter()
    .map(|k| m[k])
    .sum();
    let other = m["core.advance.busy_ms"] - phases - m["core.reconcile.busy_ms"] - pump_ms;
    m.insert("core.advance.other_ms", other.max(0.0));

    // Measured wall outside every call span: self time of the harness's
    // own spans inside the repetition root.
    let rep_ns = spans
        .iter()
        .find(|s| s.name == "harness.rep")
        .map_or(0, Span::dur_ns);
    let harness_ns = busy("harness.rep").self_ns + busy("harness.op").self_ns;
    m.insert(
        "harness.untraced_share",
        ratio(harness_ns as f64, rep_ns as f64),
    );

    let sim = stats.sim;
    m.insert("sim.job_wait_p50_s", sim.job_wait_p50_s);
    m.insert("sim.job_wait_p95_s", sim.job_wait_p95_s);
    m.insert("sim.makespan_s", sim.makespan_s);
    m.insert("sim.connect_setup_us", sim.connect_setup_us);
    m.insert("sim.revoke_to_deny_s", sim.revoke_to_deny_s);
    m
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time budget for the repetition loop.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Full or smoke sizes.
    pub scale: Scale,
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// What was asked.
    pub config: RunConfig,
    /// Outcomes matched the oracle, simulated outcomes repeated exactly,
    /// and (traced) the attribution gate held.
    pub correct: bool,
    /// Why not, when not.
    pub problems: Vec<String>,
    /// Operations checked, over all repetitions (both deployments).
    pub attempted: u64,
    /// Operations that differed from the oracle.
    pub failed: u64,
    /// Metric name → value: the end-to-end set, or the per-layer set.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Simulated outcomes of the llsc repetitions (identical across them).
    pub sim: SimOutcome,
    /// Repetitions under llsc whose medians are reported.
    pub reps: usize,
    /// Latency samples behind the percentiles.
    pub op_samples: usize,
    /// The sizes the workload ran at.
    pub size: String,
    /// Spans of the last traced repetition (empty for end-to-end runs).
    pub spans: Vec<Span>,
}

/// Run a workload until its time budget is spent and fold the repetitions.
pub fn run(cfg: RunConfig) -> RunReport {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let w = cfg.workload;
    let rep = |dep: Deployment, traced: bool| {
        run_rep(w, cfg.seed, cfg.scale, dep, traced, dep == Deployment::Llsc)
    };
    let mut quiet: Vec<Rep> = Vec::new();
    let mut loud: Vec<Rep> = Vec::new();
    let mut base: Vec<Rep> = Vec::new();
    while quiet.len() < MIN_REPS || start.elapsed() < budget {
        quiet.push(rep(Deployment::Llsc, false));
        if cfg.traced {
            // Only the last traced repetition's spans are written out; a
            // wire-up repetition holds half a million of them.
            if let Some(prev) = loud.last_mut() {
                prev.spans = Vec::new();
            }
            loud.push(rep(Deployment::Llsc, true));
            if w.runs_under_baseline() {
                base.push(rep(Deployment::Baseline, false));
            }
        }
    }

    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in quiet.iter().chain(&loud).chain(&base) {
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.examples.iter().cloned());
    }
    problems.truncate(5);
    let sim = quiet[0].stats.sim;
    if quiet.iter().chain(&loud).any(|r| r.stats.sim != sim) {
        problems.push(format!(
            "simulated outcomes differ between repetitions of seed {}",
            cfg.seed
        ));
    }

    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).collect::<Vec<f64>>();
    let mut spans = Vec::new();
    let metrics = if cfg.traced {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        for d in PER_LAYER {
            let vals: Vec<f64> = loud
                .iter()
                .filter_map(|r| r.layers.get(d.name).copied())
                .collect();
            if !vals.is_empty() {
                m.insert(d.name, median(&vals));
            }
        }
        let quiet_wall = quiet_quartile(&walls(&quiet), false);
        m.insert(
            "harness.trace_overhead_ratio",
            quiet_quartile(&walls(&loud), false) / quiet_wall,
        );
        m.insert(
            "harness.separation_cost_ratio",
            if base.is_empty() {
                0.0
            } else {
                quiet_wall / quiet_quartile(&walls(&base), false)
            },
        );
        m.insert(
            "harness.failed_ops_ratio",
            failed as f64 / attempted.max(1) as f64,
        );
        let untraced = m["harness.untraced_share"];
        if untraced >= UNTRACED_LIMIT {
            problems.push(format!(
                "attribution gate: {:.1} % of {}'s measured wall is outside every call span \
                 (limit {:.0} %)",
                untraced * 100.0,
                w.name(),
                UNTRACED_LIMIT * 100.0
            ));
        }
        spans = loud.pop().map(|r| r.spans).unwrap_or_default();
        PER_LAYER
            .iter()
            .map(|d| {
                let v = *m
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} is declared but never measured", d.name));
                (d.name, v, d.unit)
            })
            .collect()
    } else {
        let setups: Vec<f64> = quiet.iter().map(|r| r.setup_s).collect();
        let rates: Vec<f64> = quiet.iter().map(Rep::throughput).collect();
        // Percentiles per repetition, then the quiet quartile across
        // repetitions: host noise spoils some repetitions, not the run.
        let pct = |p: f64| {
            let per_rep: Vec<f64> = quiet
                .iter()
                .map(|r| {
                    let us = sorted(r.stats.op_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
                    percentile(&us, p)
                })
                .collect();
            quiet_quartile(&per_rep, false)
        };
        let values = [
            ("setup_s", median(&setups)),
            ("throughput_per_s", quiet_quartile(&rates, true)),
            ("op_p50_us", pct(50.0)),
            ("op_p95_us", pct(95.0)),
            ("peak_rss_mib", peak_rss_mib()),
        ];
        values
            .into_iter()
            .map(|(name, v)| (name, v, spec::end_to_end(name).unit))
            .collect()
    };

    RunReport {
        config: cfg,
        correct: failed == 0 && problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        sim,
        reps: quiet.len(),
        op_samples: quiet.iter().map(|r| r.stats.op_ns.len()).sum(),
        size: quiet[0].size.clone(),
        spans,
    }
}

/// `VmHWM` of this process, MiB (0 where `/proc` has no such line).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
