//! Command line of the benchmark.
//!
//! ```text
//! eus-benchmark run      [--smoke] [--seed N] [--seconds S]      whole suite
//! eus-benchmark run      --workload W --seed N --seconds S --trace 0|1
//!                                                   one run; last line = JSON result
//! eus-benchmark repeat   [--smoke] [--seed N] [--seconds S]      suite twice, compared
//! eus-benchmark manifest                                  print BENCHMARK.json
//! eus-benchmark glossary                                  print the metric tables (markdown)
//! ```

use eus_benchmark::harness::{self, RunConfig, RunReport};
use eus_benchmark::provenance::{pin_thread_width, Provenance};
use eus_benchmark::workloads::{Scale, Workload};
use eus_benchmark::{report, spec, trace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: eus-benchmark <run|repeat|manifest|glossary> [--workload NAME] [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke]";

/// Parsed flags.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(out)
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// Smoke runs do the minimum repetitions; full runs measure for the
    /// declared run length unless told otherwise.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            0.0
        } else {
            spec::RUN_SECONDS as f64
        })
    }

    fn config(&self, workload: Workload, traced: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: self.seed,
            seconds: self.seconds(),
            traced,
            scale: self.scale(),
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Write a traced run's spans to `out/trace-<workload>.json`.
fn write_trace(r: &RunReport) -> std::io::Result<()> {
    let name = format!("trace-{}.json", r.config.workload.name());
    let path = write_out(&name, &trace::to_json(&r.spans).render())?;
    eprintln!("trace: {} spans -> {}", r.spans.len(), path.display());
    Ok(())
}

/// One workload, one run: the acceptance driver's entry, and what the
/// suite commands start once per workload so that every run has a process
/// (and a peak RSS) of its own.
fn run_one(args: &Args, workload: Workload, p: &Provenance) -> std::io::Result<bool> {
    let r = harness::run(args.config(workload, args.trace));
    println!("provenance: {}", p.to_json().render());
    report::print_run(&r);
    if args.trace {
        report::print_layer_shares(&r);
        write_trace(&r)?;
    }
    write_out(
        &run_file(workload, args.trace),
        &report::run_json(&r).render(),
    )?;
    println!("{}", report::contract_line(&r));
    Ok(r.correct)
}

fn run_file(workload: Workload, traced: bool) -> String {
    let kind = if traced { "traced" } else { "e2e" };
    format!("run-{}-{kind}.json", workload.name())
}

/// Start `run --workload …` in a fresh process with this invocation's
/// seed, seconds and scale; returns its exit success and, when `capture`,
/// its stdout (otherwise the child prints straight through).
fn run_child(
    args: &Args,
    workload: Workload,
    traced: bool,
    capture: bool,
) -> std::io::Result<(bool, String)> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if capture {
        let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
        Ok((
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        ))
    } else {
        Ok((cmd.status()?.success(), String::new()))
    }
}

/// Every workload, end to end and traced, each run in its own process.
fn run_suite(args: &Args, p: &Provenance) -> std::io::Result<bool> {
    let mut all_correct = true;
    let mut files = Vec::new();
    for w in Workload::ALL {
        for traced in [false, true] {
            all_correct &= run_child(args, w, traced, false)?.0;
            files.push(std::fs::read_to_string(
                out_dir().join(run_file(w, traced)),
            )?);
        }
    }
    let results = format!(
        "{{\n\"provenance\": {},\n\"runs\": [\n{}\n]\n}}\n",
        p.to_json().render(),
        files.join(",\n")
    );
    let path = write_out("results.json", &results)?;
    println!("results -> {}", path.display());
    if !args.smoke {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::write(&manifest, spec::benchmark_json().pretty())?;
        println!("manifest -> {}", manifest.display());
    }
    Ok(all_correct)
}

/// The end-to-end suite twice; every metric × workload must agree within
/// its bound, and simulated outcomes and oracle failures exactly.
fn repeat(args: &Args, p: &Provenance) -> std::io::Result<bool> {
    println!("provenance: {}", p.to_json().render());
    let set = |label: &str| -> std::io::Result<Vec<(bool, String)>> {
        Workload::ALL
            .into_iter()
            .map(|w| {
                eprintln!("{label} set: {}", w.name());
                run_child(args, w, false, true)
            })
            .collect()
    };
    let (first, second) = (set("first")?, set("second")?);
    let mut ok = true;
    let mut rows = Vec::new();
    for (w, ((ok_a, a), (ok_b, b))) in Workload::ALL.into_iter().zip(first.iter().zip(&second)) {
        rows.extend(report::compare(w, a, b));
        // The `sim:` line holds every simulated outcome with all its
        // digits: equal text is equal values.
        let exact = |out: &str| {
            let sim = out
                .lines()
                .find(|l| l.starts_with("  sim: "))
                .map(str::to_owned);
            (
                sim,
                report::field(out.lines().last().unwrap_or(""), "failed"),
            )
        };
        if !(ok_a & ok_b) || exact(a) != exact(b) {
            ok = false;
            println!(
                "{}: a run failed, or simulated outcomes / oracle failures differ between the sets",
                w.name()
            );
        }
    }
    report::print_repeat(&rows);
    Ok(ok && rows.iter().all(report::RepeatRow::within))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "manifest" => {
            print!("{}", spec::benchmark_json().pretty());
            return ExitCode::SUCCESS;
        }
        "glossary" => {
            print!("{}", spec::glossary());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let threads = match pin_thread_width() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let p = Provenance::gather(threads);
    let ok = match (command.as_str(), args.workload) {
        ("run", Some(w)) => run_one(&args, w, &p),
        ("run", None) => run_suite(&args, &p),
        ("repeat", _) => repeat(&args, &p),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cannot write output: {e}");
            ExitCode::FAILURE
        }
    }
}
