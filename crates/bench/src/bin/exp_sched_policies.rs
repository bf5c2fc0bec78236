//! E4 — node-sharing policy trade-off (paper Sec. IV-B, refs 25/26).
//!
//! Identical LLSC-like workloads run under shared / exclusive / whole-node
//! scheduling at several load levels. Reported: effective utilization,
//! claimed-but-unused waste, waits, and makespan. The closing lines print
//! each policy's measured gap to shared, computed from the rows just run:
//! useful-utilization points and makespan per table load, and the range of
//! utilization points across the figure's load sweep.

use eus_bench::table::{f, pct, TextTable};
use eus_bench::{run_policy_on_trace, standard_trace, PolicyStats};
use eus_sched::NodeSharing;
use eus_simcore::Chart;

/// The policies compared against shared in the closing gap lines.
const VS_SHARED: [NodeSharing; 2] = [NodeSharing::WholeNodeUser, NodeSharing::Exclusive];

fn main() {
    println!("E4: node-sharing policy comparison (Sec. IV-B)\n");

    let mut loads: Vec<(&str, Vec<(NodeSharing, PolicyStats)>)> = Vec::new();

    for (label, users, hours, nodes) in [
        ("light load", 20usize, 2u64, 32u32),
        ("heavy load", 60, 4, 32),
    ] {
        println!("-- {label}: {users} users, {hours}h trace, {nodes} nodes x 16 cores");
        let trace = standard_trace(users, hours, 42);
        println!("   ({} jobs submitted)\n", trace.len());
        let mut table = TextTable::new(&[
            "policy",
            "completed",
            "useful util",
            "claimed util",
            "waste",
            "p50 wait s",
            "p95 wait s",
            "makespan s",
        ]);
        let mut rows = Vec::new();
        for policy in NodeSharing::all() {
            let s = run_policy_on_trace(policy, nodes, 16, &trace);
            rows.push((policy, s));
            table.row(&[
                policy.to_string(),
                s.completed.to_string(),
                pct(s.effective_util),
                pct(s.claimed_util),
                pct(s.claimed_util - s.effective_util),
                f(s.p50_wait, 1),
                f(s.p95_wait, 1),
                f(s.makespan, 0),
            ]);
        }
        print!("{}", table.render());
        println!();
        loads.push((label, rows));
    }

    // Figure: useful utilization vs offered load (user count), one series
    // per policy — the crossover-free ordering the paper implies.
    println!("-- figure: useful utilization vs offered load (CSV)\n");
    let mut chart = Chart::new(
        "useful utilization vs load",
        "users",
        "useful utilization (%)",
    );
    for policy in NodeSharing::all() {
        let label = policy.to_string();
        let series = chart.add_series(label);
        for users in [10usize, 20, 40, 60, 80] {
            let trace = standard_trace(users, 2, 7);
            let s = run_policy_on_trace(policy, 24, 16, &trace);
            series.push(users as f64, 100.0 * s.effective_util);
        }
    }
    println!("{chart}");

    println!("measured gap to shared (useful utilization in points, makespan in %):");
    for (label, rows) in &loads {
        let of = |p: NodeSharing| {
            rows.iter()
                .find(|(q, _)| *q == p)
                .expect("every policy ran")
                .1
        };
        let shared = of(NodeSharing::Shared);
        for policy in VS_SHARED {
            let s = of(policy);
            println!(
                "  {label}: {policy} {:+.1} points, makespan {:+.1}%",
                100.0 * (s.effective_util - shared.effective_util),
                100.0 * (s.makespan / shared.makespan - 1.0)
            );
        }
    }
    let points = |p: NodeSharing| &chart.get(&p.to_string()).expect("every policy ran").points;
    for policy in VS_SHARED {
        let gaps: Vec<f64> = points(policy)
            .iter()
            .zip(points(NodeSharing::Shared))
            .map(|((_, u), (_, s))| u - s)
            .collect();
        let lo = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!("  figure sweep: {policy} {lo:+.1} to {hi:+.1} points across every load");
    }
}
