//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics. `BENCHMARK.json` at
//! the repository root is this file rendered; a test keeps the two equal.

use crate::json::Json;
use crate::workloads::Workload;

/// Seconds one contract run measures for.
pub const RUN_SECONDS: u64 = 20;

/// The command the acceptance driver runs (it appends `--workload <name>
/// --seed <n> --seconds <s> --trace <0|1>`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// What it measures (README glossary).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        what,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the cluster would see, measured
/// with observability and tracing off. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "wall to generate the inputs, build the cluster, provision accounts/realms/partitions \
         and pre-seed state; median over the run's repetitions",
    ),
    e2e(
        "throughput_per_s",
        "1/s",
        Higher,
        0.25,
        "operations per wall second (session / completed job / attempted connect / credential \
         op); third quartile over repetitions (the quiet side of this host's one-sided noise)",
    ),
    e2e(
        "op_p50_us",
        "us",
        Lower,
        0.25,
        "median wall latency of one session / advance_to boundary / wire-up / round; first \
         quartile over repetitions",
    ),
    e2e(
        "op_p95_us",
        "us",
        Lower,
        0.25,
        "95th-percentile wall latency of the same unit, every repetition holding at least 20 \
         samples beyond it; first quartile over repetitions",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        Lower,
        0.10,
        "VmHWM of the run's process",
    ),
];

/// The per-layer metrics, from a separate traced run (`enable_obs` on,
/// harness spans around every public call). Layers are crate names.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "portal.login.busy_ms",
        "ms",
        Lower,
        "self time inside portal_login",
    ),
    layer("portal.login.calls", "count", Lower, "portal_login calls"),
    layer(
        "fedauth.ensure_session.busy_ms",
        "ms",
        Lower,
        "self time of the credential refresh ssh/submit_at perform first",
    ),
    layer("fedauth.ensure_session.calls", "count", Lower, "refreshes"),
    layer(
        "fedauth.authorize_submit.busy_ms",
        "ms",
        Lower,
        "submission gate asked on its own before each try_submit_at",
    ),
    layer(
        "fedauth.authorize_submit.calls",
        "count",
        Lower,
        "gate probes",
    ),
    layer(
        "fedauth.login.busy_ms",
        "ms",
        Lower,
        "issuer-side login + certificate mint (cred_churn)",
    ),
    layer("fedauth.login.calls", "count", Lower, "issuer-side logins"),
    layer(
        "fedauth.revoke.busy_ms",
        "ms",
        Lower,
        "revoke_user batches at the issuers",
    ),
    layer("fedauth.revoke.calls", "count", Lower, "revoke batches"),
    layer(
        "fedauth.validate.busy_ms",
        "ms",
        Lower,
        "home-realm validation batches through validate_federated_token",
    ),
    layer(
        "fedauth.validate.ns_per_call",
        "ns",
        Lower,
        "the home broker's own ValidateStats: total_ns / calls",
    ),
    layer(
        "fedauth.validate.reject_ratio",
        "ratio",
        Lower,
        "ValidateStats rejects / calls",
    ),
    layer(
        "revsync.validate.busy_ms",
        "ms",
        Lower,
        "cross-realm validation batches (local CRL replica path)",
    ),
    layer(
        "revsync.validate.ns_per_call",
        "ns",
        Lower,
        "the mesh's own revsync.validate.ns / revsync.validate.calls",
    ),
    layer(
        "revsync.pump.busy_ms",
        "ms",
        Lower,
        "revsync.mesh.pump span total (inside advance_to)",
    ),
    layer("revsync.pump.calls", "count", Lower, "pump calls"),
    layer(
        "revsync.pump.deliveries",
        "count",
        Lower,
        "CRL deltas delivered",
    ),
    layer(
        "revsync.replica.lag_max_s",
        "s",
        Lower,
        "stalest sister replica seen at any boundary (simulated)",
    ),
    layer(
        "sched.submit.busy_ms",
        "ms",
        Lower,
        "try_submit_at self time minus the paired gate probe",
    ),
    layer("sched.submit.calls", "count", Lower, "submissions"),
    layer(
        "sched.cycle.select.busy_ms",
        "ms",
        Lower,
        "sched.cycle.select span total",
    ),
    layer("sched.cycle.select.calls", "count", Lower, "select spans"),
    layer(
        "sched.cycle.dispatch.busy_ms",
        "ms",
        Lower,
        "sched.cycle.dispatch span total",
    ),
    layer(
        "sched.cycle.dispatch.calls",
        "count",
        Lower,
        "dispatch spans",
    ),
    layer(
        "sched.cycle.shadow.busy_ms",
        "ms",
        Lower,
        "sched.cycle.shadow span total",
    ),
    layer("sched.cycle.shadow.calls", "count", Lower, "shadow spans"),
    layer(
        "sched.cycle.backfill.busy_ms",
        "ms",
        Lower,
        "sched.cycle.backfill span total",
    ),
    layer(
        "sched.cycle.backfill.calls",
        "count",
        Lower,
        "backfill spans",
    ),
    layer(
        "sched.cycle.preempt.busy_ms",
        "ms",
        Lower,
        "sched.cycle.preempt span total",
    ),
    layer("sched.cycle.preempt.calls", "count", Lower, "preempt spans"),
    layer(
        "sched.backfill.accept_ratio",
        "ratio",
        Higher,
        "backfill candidates started / placement attempts",
    ),
    layer(
        "sched.memo.head_hit_ratio",
        "ratio",
        Higher,
        "blocked-head memo hits / (hits + misses)",
    ),
    layer(
        "sched.shard.plans",
        "count",
        Lower,
        "classes fanned out to shard planning",
    ),
    layer(
        "core.advance.busy_ms",
        "ms",
        Lower,
        "wall inside advance_to",
    ),
    layer("core.advance.calls", "count", Lower, "advance_to calls"),
    layer(
        "core.advance.other_ms",
        "ms",
        Lower,
        "advance_to minus sched phases, reconcile and the revsync pump: event loop, clock \
         sync, health ladders, SLO pass",
    ),
    layer(
        "core.reconcile.busy_ms",
        "ms",
        Lower,
        "core.cluster.reconcile span total",
    ),
    layer("core.reconcile.calls", "count", Lower, "reconcile sweeps"),
    layer("core.reconcile.prologs", "count", Lower, "prologs run"),
    layer("core.reconcile.epilogs", "count", Lower, "epilogs run"),
    layer(
        "simos.pam_login.busy_ms",
        "ms",
        Lower,
        "self time inside ssh_raw (PAM stack)",
    ),
    layer("simos.pam_login.calls", "count", Lower, "ssh logins"),
    layer(
        "fsperm.write.busy_ms",
        "ms",
        Lower,
        "self time inside fs_write",
    ),
    layer("fsperm.write.calls", "count", Lower, "fs_write calls"),
    layer(
        "fsperm.read.busy_ms",
        "ms",
        Lower,
        "self time inside fs_read",
    ),
    layer("fsperm.read.calls", "count", Lower, "fs_read calls"),
    layer(
        "fsperm.deny_ratio",
        "ratio",
        Lower,
        "filesystem calls refused / made",
    ),
    layer(
        "simnet.listen.busy_ms",
        "ms",
        Lower,
        "self time inside listen",
    ),
    layer("simnet.listen.calls", "count", Lower, "listen calls"),
    layer(
        "simnet.connect.busy_ms",
        "ms",
        Lower,
        "self time inside connect (UBF judge included)",
    ),
    layer("simnet.connect.calls", "count", Lower, "connect calls"),
    layer(
        "simnet.send.busy_ms",
        "ms",
        Lower,
        "self time inside fabric.send",
    ),
    layer(
        "simnet.send.calls",
        "count",
        Lower,
        "packets sent on established flows",
    ),
    layer(
        "simnet.close.busy_ms",
        "ms",
        Lower,
        "self time closing flows and listeners",
    ),
    layer("simnet.close.calls", "count", Lower, "close calls"),
    layer(
        "ubf.decisions",
        "count",
        Lower,
        "packets the UBF daemons judged",
    ),
    layer(
        "ubf.cache_hit_ratio",
        "ratio",
        Higher,
        "decisions answered from the cache",
    ),
    layer(
        "ubf.ident_rtts",
        "count",
        Lower,
        "ident round trips to peer hosts",
    ),
    layer(
        "ubf.deny_ratio",
        "ratio",
        Lower,
        "decisions that ended in a drop",
    ),
    layer(
        "accel.assigns",
        "count",
        Lower,
        "GPU device assignments in prologs",
    ),
    layer(
        "accel.scrubs",
        "count",
        Lower,
        "GPU memory scrubs in epilogs",
    ),
    layer(
        "workloads.generate.busy_ms",
        "ms",
        Lower,
        "input generation, part of setup_s",
    ),
    layer(
        "harness.untraced_share",
        "ratio",
        Lower,
        "measured wall outside every call span; the traced run fails at 0.05",
    ),
    layer(
        "harness.trace_overhead_ratio",
        "ratio",
        Lower,
        "traced wall / untraced wall of the same inputs",
    ),
    layer(
        "harness.separation_cost_ratio",
        "ratio",
        Lower,
        "llsc wall / baseline wall on identical inputs (0 where no baseline exists)",
    ),
    layer(
        "harness.failed_ops_ratio",
        "ratio",
        Lower,
        "operations whose outcome differed from the oracle / operations checked",
    ),
    layer(
        "sim.job_wait_p50_s",
        "s",
        Lower,
        "median simulated job queue wait",
    ),
    layer(
        "sim.job_wait_p95_s",
        "s",
        Lower,
        "95th-percentile simulated job queue wait",
    ),
    layer(
        "sim.makespan_s",
        "s",
        Lower,
        "simulated first submission to last completion",
    ),
    layer(
        "sim.connect_setup_us",
        "us",
        Lower,
        "mean modeled connection set-up latency",
    ),
    layer(
        "sim.revoke_to_deny_s",
        "s",
        Lower,
        "mean simulated revoke-at-issuer to first deny at home",
    ),
];

/// Look up a declared end-to-end metric.
pub fn end_to_end(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a declared end-to-end metric"))
}

/// The metric glossary as two markdown tables (pasted into the README).
pub fn glossary() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out += "\n| metric | unit | better | what |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    out
}

/// `BENCHMARK.json`, in the builder's format.
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(PATHS)),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            names.push(m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit of {}",
                m.name
            );
        }
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(COMMAND.len() <= 32 && benchmark_json().pretty().len() <= 64 * 1024);
    }
}
