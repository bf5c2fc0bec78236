//! Same seed ⇒ byte-identical inputs and identical simulated outcomes.

use eus_benchmark::harness::run_rep;
use eus_benchmark::workloads::{generate, Deployment, Scale, Workload};

#[test]
fn same_seed_generates_byte_identical_inputs_and_another_seed_differs() {
    for w in Workload::ALL {
        let render = |seed| format!("{:?}", generate(w, seed, Scale::Smoke));
        let first = render(42);
        assert_eq!(
            first,
            render(42),
            "{}: inputs differ for one seed",
            w.name()
        );
        assert_ne!(first, render(43), "{}: seed is ignored", w.name());
    }
}

#[test]
fn same_seed_repeats_simulated_outcomes_and_operation_counts_exactly() {
    for w in Workload::ALL {
        let rep = |traced| run_rep(w, 7, Scale::Smoke, Deployment::Llsc, traced, true);
        let (a, b) = (rep(false), rep(false));
        assert_eq!(a.stats.sim, b.stats.sim, "{}", w.name());
        assert_eq!(a.stats.ops, b.stats.ops, "{}", w.name());
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
        // Observability and tracing are pure measurement: the traced
        // repetition sees the same simulation.
        let t = rep(true);
        assert_eq!(a.stats.sim, t.stats.sim, "{} traced", w.name());
        assert_eq!(a.stats.ops, t.stats.ops, "{} traced", w.name());
    }
}
