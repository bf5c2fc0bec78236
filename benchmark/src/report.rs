//! Turning run reports into output: the one-line JSON result the
//! acceptance driver reads, the tables a person reads, and the results file.

use crate::harness::RunReport;
use crate::json::Json;
use crate::spec::{Better, END_TO_END};
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// `{name: {value, unit}}` for every metric of a run.
fn metrics_json(r: &RunReport) -> Json {
    Json::obj(r.metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The last line of a contract run: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn contract_line(r: &RunReport) -> String {
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Int(r.attempted.max(1))),
        ("failed", Json::Int(r.failed)),
        ("metrics", metrics_json(r)),
    ])
    .render()
}

/// The simulated-clock outcomes of a run, every digit.
fn sim_json(r: &RunReport) -> Json {
    Json::obj([
        ("job_wait_p50_s", Json::Num(r.sim.job_wait_p50_s)),
        ("job_wait_p95_s", Json::Num(r.sim.job_wait_p95_s)),
        ("makespan_s", Json::Num(r.sim.makespan_s)),
        ("connect_setup_us", Json::Num(r.sim.connect_setup_us)),
        ("revoke_to_deny_s", Json::Num(r.sim.revoke_to_deny_s)),
        (
            "revoke_to_deny_max_s",
            Json::Num(r.sim.revoke_to_deny_max_s),
        ),
    ])
}

/// Everything about one run, for the results file.
pub fn run_json(r: &RunReport) -> Json {
    let (op, sample) = r.config.workload.units();
    Json::obj([
        ("workload", Json::str(r.config.workload.name())),
        ("seed", Json::Int(r.config.seed)),
        ("traced", Json::Bool(r.config.traced)),
        ("size", Json::str(r.size.clone())),
        ("operation", Json::str(op)),
        ("latency_sample", Json::str(sample)),
        ("repetitions", Json::Int(r.reps as u64)),
        ("latency_samples", Json::Int(r.op_samples as u64)),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Int(r.attempted)),
        ("failed", Json::Int(r.failed)),
        (
            "problems",
            Json::Arr(r.problems.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(r)),
        ("sim", sim_json(r)),
    ])
}

/// One line per metric, by name and unit.
pub fn print_run(r: &RunReport) {
    let (op, sample) = r.config.workload.units();
    println!(
        "{} seed {} ({}): {} repetitions, {} latency samples; operation = {op}, latency \
         sample = {sample}; {}",
        r.config.workload.name(),
        r.config.seed,
        if r.config.traced {
            "traced"
        } else {
            "end to end"
        },
        r.reps,
        r.op_samples,
        r.size
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!("  sim: {}", sim_json(r).render());
    println!(
        "  oracle: {} checked, {} failed{}",
        r.attempted,
        r.failed,
        if r.correct { "" } else { "  ** NOT CORRECT **" }
    );
    for p in &r.problems {
        println!("    ! {p}");
    }
}

/// Share of traced busy time per layer (crate), from a traced run's
/// metrics. `core.advance.busy_ms` is the envelope of the scheduler
/// phases, reconcile and the feed pump, so only its remainder
/// (`core.advance.other_ms`) counts as `core`'s own.
pub fn layer_shares(traced: &RunReport) -> Vec<(String, f64)> {
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, value, unit) in &traced.metrics {
        let counts = (name.ends_with(".busy_ms") && *name != "core.advance.busy_ms")
            || *name == "core.advance.other_ms";
        if *unit == "ms" && counts && !name.starts_with("workloads.") {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *by_layer.entry(layer).or_default() += value;
        }
    }
    let total: f64 = by_layer.values().sum();
    let mut shares: Vec<(String, f64)> = by_layer
        .into_iter()
        .map(|(l, ms)| (l, if total > 0.0 { ms / total } else { 0.0 }))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Print a traced run's layer shares on one line.
pub fn print_layer_shares(traced: &RunReport) {
    let cells: Vec<String> = layer_shares(traced)
        .into_iter()
        .filter(|(_, s)| *s >= 0.0005)
        .map(|(l, s)| format!("{l} {:.1}%", s * 100.0))
        .collect();
    println!("  layer share of traced busy time: {}", cells.join("  "));
}

/// The number after `"key": ` (or after `"key": {"value": `) in one of this
/// crate's own one-line JSON results — all `repeat` needs to read back
/// from the runs it starts.
pub fn field(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = line[at..].trim_start_matches("{\"value\": ");
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One end-to-end metric × workload compared across two sets of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatRow {
    /// Workload.
    pub workload: Workload,
    /// Metric.
    pub metric: &'static str,
    /// First set's value.
    pub first: f64,
    /// Second set's value.
    pub second: f64,
    /// How much worse the second is, as a share of the first (negative =
    /// better), in the metric's own direction.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl RepeatRow {
    /// Did the second set stay within the bound?
    pub fn within(&self) -> bool {
        self.worse_by <= self.bound
    }
}

/// Compare two end-to-end runs of one workload metric by metric, from the
/// result lines (the last line of each run's output).
pub fn compare(workload: Workload, first: &str, second: &str) -> Vec<RepeatRow> {
    let last = |out: &str| out.lines().last().unwrap_or("").to_owned();
    let (first, second) = (last(first), last(second));
    END_TO_END
        .iter()
        .map(|m| {
            let a = field(&first, m.name).unwrap_or(f64::NAN);
            let b = field(&second, m.name).unwrap_or(f64::NAN);
            let worse_by = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            RepeatRow {
                workload,
                metric: m.name,
                first: a,
                second: b,
                worse_by,
                bound: m.bound,
            }
        })
        .collect()
}

/// Print the repeat table.
pub fn print_repeat(rows: &[RepeatRow]) {
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<13} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
            r.workload.name(),
            r.metric,
            r.first,
            r.second,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.within() { "" } else { "  ** OVER **" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.0093, "unit": "s"}, "throughput_per_s": {"value": 1500.5, "unit": "1/s"}, "op_p50_us": {"value": 600, "unit": "us"}, "op_p95_us": {"value": 800, "unit": "us"}, "peak_rss_mib": {"value": 23.5, "unit": "MiB"}}}"#;

    #[test]
    fn fields_read_back_from_a_result_line() {
        assert_eq!(field(LINE, "failed"), Some(0.0));
        assert_eq!(field(LINE, "attempted"), Some(12.0));
        assert_eq!(field(LINE, "throughput_per_s"), Some(1500.5));
        assert_eq!(field(LINE, "peak_rss_mib"), Some(23.5));
        assert_eq!(field(LINE, "absent"), None);
    }

    #[test]
    fn compare_judges_each_metric_in_its_own_direction() {
        let slower = LINE
            .replace("1500.5", "1200.4")
            .replace("\"value\": 600", "\"value\": 660");
        let rows = compare(Workload::SessionMix, LINE, &slower);
        let row = |name: &str| rows.iter().find(|r| r.metric == name).expect("declared");
        assert!((row("throughput_per_s").worse_by - 0.2).abs() < 1e-3);
        assert!((row("op_p50_us").worse_by - 0.1).abs() < 1e-12);
        assert_eq!(row("setup_s").worse_by, 0.0);
        assert!(rows.iter().all(RepeatRow::within));
        // Better throughput is a negative "worse by".
        let back = compare(Workload::SessionMix, &slower, LINE);
        assert!(back.iter().all(|r| r.worse_by <= 0.0));
    }
}
