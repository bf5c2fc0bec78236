//! The oracle holds at smoke size under both deployments, and a wrong
//! expectation is counted rather than waved through.

use eus_benchmark::harness::{self, run_rep, RunConfig, UNTRACED_LIMIT};
use eus_benchmark::spec::PER_LAYER;
use eus_benchmark::workloads::{net_wireup, Deployment, Scale, Workload};

#[test]
fn oracle_holds_under_llsc_and_baseline_on_two_seeds() {
    for seed in [1, 2] {
        for w in Workload::ALL {
            let r = run_rep(w, seed, Scale::Smoke, Deployment::Llsc, false, true);
            assert_eq!(r.failed, 0, "{} llsc: {:?}", w.name(), r.examples);
            assert!(r.attempted > 0 && r.stats.ops > 0);
            if w.runs_under_baseline() {
                let b = run_rep(w, seed, Scale::Smoke, Deployment::Baseline, false, false);
                assert_eq!(b.failed, 0, "{} baseline: {:?}", w.name(), b.examples);
                assert_eq!(
                    b.stats.ops,
                    r.stats.ops,
                    "{}: same inputs, same ops",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn a_deliberately_wrong_expectation_is_counted_as_failed_operations() {
    // Expect cross-user operations to succeed on a cluster that separates
    // users: every refused one must show up in `failed`.
    for w in [Workload::SessionMix, Workload::NetWireup] {
        let r = run_rep(w, 1, Scale::Smoke, Deployment::Llsc, false, false);
        assert!(
            r.failed > 0,
            "{}: wrong expectation went unnoticed",
            w.name()
        );
        assert!(r.failed < r.attempted);
        assert!(!r.examples.is_empty());
    }
    // And the other way round: expect refusals on a stock cluster.
    let r = run_rep(
        Workload::NetWireup,
        1,
        Scale::Smoke,
        Deployment::Baseline,
        false,
        true,
    );
    // 16 cross-user probes per wire-up, all allowed by the stock cluster.
    let wireups = net_wireup::Size::of(Scale::Smoke).wireups as u64;
    assert_eq!(r.failed, 16 * wireups, "{:?}", r.examples);
}

#[test]
fn traced_run_reports_every_declared_layer_metric_and_passes_the_attribution_gate() {
    for w in Workload::ALL {
        let r = harness::run(RunConfig {
            workload: w,
            seed: 3,
            seconds: 0.0,
            traced: true,
            scale: Scale::Smoke,
        });
        assert!(r.correct, "{}: {:?}", w.name(), r.problems);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        let get = |name: &str| {
            r.metrics
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, v, _)| *v)
                .expect("declared metric")
        };
        assert!(get("harness.untraced_share") < UNTRACED_LIMIT);
        assert_eq!(get("harness.failed_ops_ratio"), 0.0);
        assert!(get("harness.trace_overhead_ratio") > 0.0);
        assert_eq!(
            get("harness.separation_cost_ratio") > 0.0,
            w.runs_under_baseline()
        );
        assert!(!r.spans.is_empty());
    }
}

#[test]
fn end_to_end_run_reports_every_metric_non_zero() {
    let r = harness::run(RunConfig {
        workload: Workload::CredChurn,
        seed: 5,
        seconds: 0.0,
        traced: false,
        scale: Scale::Smoke,
    });
    assert!(r.correct, "{:?}", r.problems);
    assert_eq!(r.reps, harness::MIN_REPS);
    let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(
        names,
        [
            "setup_s",
            "throughput_per_s",
            "op_p50_us",
            "op_p95_us",
            "peak_rss_mib"
        ]
    );
    assert!(r.metrics.iter().all(|(_, v, _)| *v > 0.0));
}
