//! Scheduler engine throughput per policy (experiment E4's performance
//! face): events processed per second of wall time while replaying the
//! LLSC-like trace, plus the backfill on/off cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eus_bench::standard_trace;
use eus_sched::{NodeSharing, ReferenceScheduler, SchedConfig, Scheduler};
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched/replay_1h_trace");
    g.sample_size(10);
    let trace = standard_trace(20, 1, 99);
    for policy in NodeSharing::all() {
        g.bench_with_input(BenchmarkId::new("policy", policy), &trace, |b, trace| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedConfig {
                    policy,
                    ..SchedConfig::default()
                });
                for _ in 0..16 {
                    s.add_node(16, 65_536, 0);
                }
                trace.submit_all(&mut s);
                black_box(s.run_to_completion())
            })
        });
    }
    g.finish();
}

/// The 256-node row: the optimized engine (incremental placement index +
/// capacity-vector shadow) against the retained reference implementation on
/// the identical trace — the ≥3× hot-path claim, measured every run.
fn bench_256_nodes_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched/replay_1h_trace");
    g.sample_size(10);
    let trace = standard_trace(60, 1, 99).to_shared();
    let policy = NodeSharing::WholeNodeUser;
    g.bench_with_input(
        BenchmarkId::new("impl_256nodes", "optimized"),
        &trace,
        |b, trace| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedConfig {
                    policy,
                    ..SchedConfig::default()
                });
                for _ in 0..256 {
                    s.add_node(16, 65_536, 0);
                }
                trace.submit_all(&mut s);
                black_box(s.run_to_completion())
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::new("impl_256nodes", "reference"),
        &trace,
        |b, trace| {
            b.iter(|| {
                let mut s = ReferenceScheduler::new(SchedConfig {
                    policy,
                    ..SchedConfig::default()
                });
                for _ in 0..256 {
                    s.add_node(16, 65_536, 0);
                }
                for (at, spec) in &trace.entries {
                    s.submit_at_shared(*at, std::sync::Arc::clone(spec));
                }
                black_box(s.run_to_completion())
            })
        },
    );
    g.finish();
}

/// The policy plane's replay cost: the identical trace through the engine
/// with every plane knob off (the reference-identical path) vs all three
/// on (fair-share + preemption + an 8-deep reservation calendar). Keeps
/// the "policy is opt-in, the hot path doesn't pay for it" claim measured.
fn bench_policy_plane_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched/policy_plane");
    g.sample_size(10);
    let trace = standard_trace(20, 1, 99).to_shared();
    for (label, fair_share, preemption, reservations) in [
        ("plane_off", false, false, 0usize),
        ("plane_on", true, true, 8),
    ] {
        g.bench_with_input(BenchmarkId::new("mode", label), &trace, |b, trace| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedConfig {
                    policy: NodeSharing::WholeNodeUser,
                    fair_share,
                    preemption,
                    reservations,
                    ..SchedConfig::default()
                });
                for _ in 0..16 {
                    s.add_node(16, 65_536, 0);
                }
                trace.submit_all(&mut s);
                black_box(s.run_to_completion())
            })
        });
    }
    g.finish();
}

fn bench_backfill_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched/backfill");
    g.sample_size(10);
    let trace = standard_trace(20, 1, 99);
    for (label, backfill) in [("fcfs_only", false), ("easy_backfill", true)] {
        g.bench_with_input(BenchmarkId::new("mode", label), &trace, |b, trace| {
            b.iter(|| {
                let mut s = Scheduler::new(SchedConfig {
                    policy: NodeSharing::WholeNodeUser,
                    backfill,
                    ..SchedConfig::default()
                });
                for _ in 0..16 {
                    s.add_node(16, 65_536, 0);
                }
                trace.submit_all(&mut s);
                black_box(s.run_to_completion())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_256_nodes_vs_reference,
    bench_policy_plane_cost,
    bench_backfill_cost
);
criterion_main!(benches);
