//! # Node-sharing policies under a bulk-synchronous sweep workload
//!
//! The scheduling trade-off of paper Sec. IV-B: exclusive allocation
//! isolates but "results in poor utilization if a user is executing many
//! bulk synchronous parallel jobs"; LLSC's whole-node user-based policy
//! restores packing while keeping one user per node. This example runs the
//! *identical* workload (same seed end to end: an LLSC-like mix of
//! parameter sweeps, Monte Carlo batches, MPI gangs, and interactive
//! sessions over 4 simulated hours on 32 × 16-core nodes) under all three
//! [`NodeSharing`] policies and prints the comparison.
//!
//! ```text
//! cargo run --release --example param_sweep_scheduling
//! ```
//!
//! ## Reading the output
//!
//! * **claim %** — core-seconds *allocated* / capacity. Exclusive inflates
//!   this: a 1-task job still claims all 16 cores.
//! * **useful %** — core-seconds actually used by tasks / capacity. The
//!   number that collapses under exclusive allocation with many small
//!   jobs, and that whole-node keeps close to shared.
//! * **p50/p95 wait** — queue waits; the price of the isolation each
//!   policy buys.
//!
//! The expected shape: `whole-node` tracks `shared` on useful utilization
//! far more closely than `exclusive`, while still guaranteeing a single
//! user per node at any instant — the paper's argument, measured.
//!
//! ## Related
//!
//! The scheduler's *policy plane* layers onto any of these policies: see
//! `examples/preemption_qos.rs` (QoS preemption with the separation
//! epilog) and `tests/sched_policy_properties.rs` (multi-partition
//! fair-share and preemption on the storms they exist for).

use hpc_user_separation::sched::{NodeSharing, SchedConfig, Scheduler};
use hpc_user_separation::simcore::{SimRng, SimTime};
use hpc_user_separation::simos::UserDb;
use hpc_user_separation::workloads::{UserPopulation, WorkloadMix};

fn main() {
    println!("== node-sharing policy comparison (Sec. IV-B) ==\n");
    println!("workload: LLSC-like mix, 4 simulated hours, 32 nodes x 16 cores\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "policy", "jobs", "claim %", "useful %", "p50 wait s", "p95 wait s", "makespan s"
    );

    for policy in NodeSharing::all() {
        // Identical workload per policy: same seed end to end.
        let mut rng = SimRng::seed_from_u64(2024);
        let mut db = UserDb::new();
        let pop = UserPopulation::build(&mut db, 40, 8, 1.1, &mut rng);
        let trace = WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(4 * 3600), &mut rng);

        let mut sched = Scheduler::new(SchedConfig {
            policy,
            ..SchedConfig::default()
        });
        for _ in 0..32 {
            sched.add_node(16, 65_536, 0);
        }
        trace.submit_all(&mut sched);
        let end = sched.run_to_completion();

        let summary = sched.metrics.wait_times.summary().expect("jobs ran");
        println!(
            "{:<12} {:>8} {:>10.1} {:>10.1} {:>12.1} {:>12.1} {:>12.0}",
            policy.to_string(),
            sched.metrics.completed.get(),
            100.0 * sched.utilization(),
            100.0 * sched.effective_utilization(),
            summary.p50,
            summary.p95,
            end.as_secs_f64(),
        );
    }

    println!("\nreading: whole-node tracks shared far more closely than exclusive,");
    println!("while guaranteeing a single user per node at any instant.");
}
