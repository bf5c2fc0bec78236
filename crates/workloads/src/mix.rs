//! Workload mixes and trace generation.
//!
//! A [`WorkloadMix`] draws job *batches* (a sweep, an MC study, one MPI run,
//! an interactive session) from a categorical distribution, attaches them to
//! Zipf-active users, and schedules batch arrivals as a Poisson process —
//! the synthetic stand-in for LLSC's production traces (which are not
//! public).

use crate::jobs;
use crate::population::UserPopulation;
use eus_sched::{JobKind, JobSpec, Scheduler};
use eus_simcore::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// One dated submission.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Arrival time.
    pub at: SimTime,
    /// The job.
    pub spec: JobSpec,
}

/// A generated submission trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Entries in arrival order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Submit every entry into a scheduler.
    pub fn submit_all(&self, sched: &mut Scheduler) {
        for e in &self.entries {
            sched.submit_at(e.at, e.spec.clone());
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total requested core-seconds (a load sanity check).
    #[cfg(test)]
    pub(crate) fn total_core_seconds(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.spec.total_cores() as f64 * e.spec.duration.as_secs_f64())
            .collect::<Vec<_>>()
            .iter()
            .sum()
    }

    /// Convert into a replayable trace whose specs sit behind `Arc` — each
    /// subsequent replay submits with zero deep clones (the shape the
    /// throughput benches and `exp_sched_scale` replay repeatedly).
    pub fn to_shared(&self) -> SharedTrace {
        SharedTrace {
            entries: self
                .entries
                .iter()
                .map(|e| (e.at, Arc::new(e.spec.clone())))
                .collect(),
        }
    }
}

/// A trace with `Arc`-shared specs: built once, replayed many times (or
/// into many schedulers) without per-submission deep copies.
#[derive(Debug, Clone, Default)]
pub struct SharedTrace {
    /// Entries in arrival order.
    pub entries: Vec<(SimTime, Arc<JobSpec>)>,
}

impl SharedTrace {
    /// Submit every entry into a scheduler, sharing the spec.
    pub fn submit_all(&self, sched: &mut Scheduler) {
        for (at, spec) in &self.entries {
            sched.submit_at_shared(*at, Arc::clone(spec));
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A **submission storm**: `jobs` individual submissions packed into
/// `window` — the everyone-hits-sbatch-at-once shape (morning logins, a
/// sweep script gone wide) that stresses the scheduler's per-cycle cost
/// rather than steady-state capacity. Dominated by short single-task jobs
/// with a tail of gangs, like the LLSC-like mix but compressed in time.
pub fn submission_storm(
    pop: &UserPopulation,
    jobs: usize,
    window: SimTime,
    rng: &mut SimRng,
) -> Trace {
    let window_s = window.as_secs_f64();
    let mut entries: Vec<TraceEntry> = (0..jobs)
        .map(|i| {
            let at = SimTime::from_micros((rng.f64() * window_s * 1e6) as u64);
            let user = pop.active_user(rng);
            let draw = rng.f64();
            let spec = if draw < 0.60 {
                // Short single-task sweep point.
                let secs = 30.0 + rng.f64() * 270.0;
                JobSpec::new(user, format!("storm-{i}"), SimDuration::from_secs_f64(secs))
                    .with_cpus_per_task(1)
                    .with_mem_per_task(1024)
            } else if draw < 0.85 {
                // Small gang.
                let tasks = 4 + (rng.range_u64(0, 13) as u32);
                let secs = 300.0 + rng.f64() * 1500.0;
                JobSpec::new(user, format!("gang-{i}"), SimDuration::from_secs_f64(secs))
                    .with_tasks(tasks)
                    .with_cpus_per_task(1)
                    .with_mem_per_task(2048)
            } else if draw < 0.95 {
                // MPI job.
                let ranks = 16 + (rng.range_u64(0, 49) as u32);
                let secs = 600.0 + rng.f64() * 3000.0;
                jobs::mpi_job(user, ranks, secs)
            } else {
                jobs::interactive_session(user, 0.5 + rng.f64())
            };
            TraceEntry { at, spec }
        })
        .collect();
    entries.sort_by_key(|e| e.at);
    Trace { entries }
}

/// An **interactive-vs-bulk storm**: the workload shape the scheduler's
/// preemption knob exists for. A front of wide, long `QosClass::Bulk` jobs
/// lands in the first seconds and saturates the cluster for the whole
/// window; short, narrow `QosClass::Urgent` interactive sessions then
/// arrive throughout. Without preemption every interactive job waits out a
/// bulk completion; with it they displace the cheapest bulk victim and
/// start in seconds. Entries are in arrival order; tell the two
/// populations apart by `spec.qos` (bulk = `Bulk`, interactive =
/// `Urgent`).
// analyze:allow(dead-pub): the workload the preemption knob exists for
pub fn interactive_vs_bulk(
    pop: &UserPopulation,
    bulk_jobs: usize,
    interactive_jobs: usize,
    window: SimTime,
    rng: &mut SimRng,
) -> Trace {
    use eus_sched::QosClass;
    let window_s = window.as_secs_f64();
    let mut entries: Vec<TraceEntry> = Vec::with_capacity(bulk_jobs + interactive_jobs);
    for i in 0..bulk_jobs {
        // Wide and long: each bulk job spans several nodes and outlives
        // the window, so the cluster never drains on its own.
        let at = SimTime::from_micros((rng.f64() * 30.0 * 1e6) as u64);
        let tasks = 16 + (rng.range_u64(0, 49) as u32);
        let secs = window_s * (1.5 + rng.f64());
        entries.push(TraceEntry {
            at,
            spec: JobSpec::new(
                pop.active_user(rng),
                format!("bulk-{i}"),
                SimDuration::from_secs_f64(secs),
            )
            .with_tasks(tasks)
            .with_cpus_per_task(1)
            .with_mem_per_task(2048)
            .with_qos(QosClass::Bulk),
        });
    }
    for i in 0..interactive_jobs {
        // Arrive after the bulk front owns the cluster.
        let at = SimTime::from_micros(((60.0 + rng.f64() * (window_s - 60.0)) * 1e6) as u64);
        let secs = 120.0 + rng.f64() * 480.0;
        entries.push(TraceEntry {
            at,
            spec: JobSpec::new(
                pop.active_user(rng),
                format!("int-{i}"),
                SimDuration::from_secs_f64(secs),
            )
            .with_tasks(4)
            .with_cpus_per_task(1)
            .with_mem_per_task(2048)
            .with_kind(JobKind::Interactive)
            .with_qos(QosClass::Urgent),
        });
    }
    entries.sort_by_key(|e| e.at);
    Trace { entries }
}

/// A **multi-partition storm**: one partition drowns under a deep backlog
/// while the others receive steady light work — the head-of-line-blocking
/// shape multi-partition fair-share exists for. `partitions[0]` receives
/// `backlog_share` of the jobs as long, wide work submitted up front; the
/// remaining partitions share short jobs spread over the window. Under
/// global FCFS the backlog partition's blocked head (plus a bounded
/// backfill budget) starves the others; with fair-share each partition
/// dispatches independently.
pub fn multi_partition_storm(
    pop: &UserPopulation,
    partitions: &[&str],
    jobs: usize,
    backlog_share: f64,
    window: SimTime,
    rng: &mut SimRng,
) -> Trace {
    assert!(
        partitions.len() >= 2,
        "needs a backlog and a victim partition"
    );
    let window_s = window.as_secs_f64();
    let backlog_jobs = ((jobs as f64) * backlog_share.clamp(0.0, 1.0)) as usize;
    let mut entries: Vec<TraceEntry> = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let (partition, spec) = if i < backlog_jobs {
            // The backlog: wide jobs, all submitted in the first seconds,
            // long enough to keep the partition's queue deep for the whole
            // window but short enough that releases churn — so the
            // partition always *could* dispatch (starvation measurements
            // stay meaningful).
            let at = SimTime::from_micros((rng.f64() * 10.0 * 1e6) as u64);
            let tasks = 8 + (rng.range_u64(0, 25) as u32);
            let secs = window_s * (0.3 + 0.7 * rng.f64());
            (
                partitions[0],
                TraceEntry {
                    at,
                    spec: JobSpec::new(
                        pop.active_user(rng),
                        format!("backlog-{i}"),
                        SimDuration::from_secs_f64(secs),
                    )
                    .with_tasks(tasks)
                    .with_cpus_per_task(1)
                    .with_mem_per_task(1024),
                },
            )
        } else {
            // Steady light work for the other partitions.
            let at = SimTime::from_micros((rng.f64() * window_s * 1e6) as u64);
            let p = partitions[1 + (rng.range_u64(0, partitions.len() as u64 - 1) as usize)];
            let secs = 30.0 + rng.f64() * 270.0;
            (
                p,
                TraceEntry {
                    at,
                    spec: JobSpec::new(
                        pop.active_user(rng),
                        format!("light-{i}"),
                        SimDuration::from_secs_f64(secs),
                    )
                    .with_cpus_per_task(1)
                    .with_mem_per_task(1024),
                },
            )
        };
        let mut e = spec;
        e.spec = e.spec.with_partition(partition);
        entries.push(e);
    }
    entries.sort_by_key(|e| e.at);
    Trace { entries }
}

/// Batch-type weights and parameters.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Probability a batch is a parameter sweep.
    pub sweep_weight: f64,
    /// Probability a batch is a Monte Carlo study.
    pub monte_carlo_weight: f64,
    /// Probability a batch is one MPI gang job.
    pub mpi_weight: f64,
    /// Probability a batch is an interactive session.
    pub interactive_weight: f64,
    /// Mean batch arrivals per simulated hour.
    pub batches_per_hour: f64,
    /// Sweep size range (points).
    pub sweep_points: (u32, u32),
    /// Mean sweep task length (seconds).
    pub sweep_task_secs: f64,
    /// MC replicas range.
    pub mc_replicas: (u32, u32),
    /// MPI ranks range (powers of two look right but aren't required).
    pub mpi_ranks: (u32, u32),
    /// MPI run length range (seconds).
    pub mpi_secs: (f64, f64),
}

impl WorkloadMix {
    /// The interactive, many-short-jobs LLSC-like mix the paper's
    /// scheduling policy targets.
    pub fn llsc_like() -> Self {
        WorkloadMix {
            sweep_weight: 0.45,
            monte_carlo_weight: 0.25,
            mpi_weight: 0.15,
            interactive_weight: 0.15,
            batches_per_hour: 40.0,
            sweep_points: (16, 128),
            sweep_task_secs: 60.0,
            mc_replicas: (32, 256),
            mpi_ranks: (8, 64),
            mpi_secs: (600.0, 7200.0),
        }
    }

    /// Generate a trace over `[0, horizon]`.
    pub fn generate(&self, pop: &UserPopulation, horizon: SimTime, rng: &mut SimRng) -> Trace {
        let rate_per_sec = self.batches_per_hour / 3600.0;
        let mut entries = Vec::new();
        let mut t = 0.0f64;
        let horizon_s = horizon.as_secs_f64();
        loop {
            t += rng.exponential(rate_per_sec);
            if t >= horizon_s {
                break;
            }
            let at = SimTime::from_micros((t * 1e6) as u64);
            let user = pop.active_user(rng);
            let total = self.sweep_weight
                + self.monte_carlo_weight
                + self.mpi_weight
                + self.interactive_weight;
            let draw = rng.f64() * total;
            let sweep_end = self.sweep_weight;
            let mc_end = sweep_end + self.monte_carlo_weight;
            let mpi_end = mc_end + self.mpi_weight;
            let batch: Vec<JobSpec> = if draw < sweep_end {
                let n = rng.range_u64(self.sweep_points.0 as u64, self.sweep_points.1 as u64 + 1)
                    as u32;
                jobs::parameter_sweep(user, n, self.sweep_task_secs, rng)
            } else if draw < mc_end {
                let n =
                    rng.range_u64(self.mc_replicas.0 as u64, self.mc_replicas.1 as u64 + 1) as u32;
                jobs::monte_carlo(user, n, 10.0, rng)
            } else if draw < mpi_end {
                let ranks =
                    rng.range_u64(self.mpi_ranks.0 as u64, self.mpi_ranks.1 as u64 + 1) as u32;
                let secs = self.mpi_secs.0 + rng.f64() * (self.mpi_secs.1 - self.mpi_secs.0);
                vec![jobs::mpi_job(user, ranks, secs)]
            } else {
                vec![jobs::interactive_session(user, 1.0 + rng.f64() * 3.0)]
            };
            for spec in batch {
                entries.push(TraceEntry { at, spec });
            }
        }
        Trace { entries }
    }
}

/// A convenience duration for trace horizons.
pub const fn hours(h: u64) -> SimDuration {
    SimDuration::from_secs(h * 3600)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_simos::UserDb;

    fn pop(rng: &mut SimRng) -> (UserDb, UserPopulation) {
        let mut db = UserDb::new();
        let p = UserPopulation::build(&mut db, 30, 5, 1.0, rng);
        (db, p)
    }

    #[test]
    fn trace_generation_is_deterministic_and_nonempty() {
        let gen = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let (_db, p) = pop(&mut rng);
            let mix = WorkloadMix::llsc_like();
            let t = mix.generate(&p, SimTime::from_secs(4 * 3600), &mut rng);
            (t.len(), t.total_core_seconds())
        };
        let (n1, cs1) = gen(42);
        let (n2, cs2) = gen(42);
        assert_eq!(n1, n2);
        assert_eq!(cs1, cs2);
        assert!(n1 > 100, "4h of llsc-like load should be busy: {n1}");
    }

    #[test]
    fn llsc_mix_dominated_by_short_jobs() {
        let mut rng = SimRng::seed_from_u64(3);
        let (_db, p) = pop(&mut rng);
        let t = WorkloadMix::llsc_like().generate(&p, SimTime::from_secs(4 * 3600), &mut rng);
        let short = t
            .entries
            .iter()
            .filter(|e| e.spec.duration < SimDuration::from_secs(600))
            .count();
        assert!(
            short as f64 / t.len() as f64 > 0.6,
            "mostly short jobs: {short}/{}",
            t.len()
        );
    }

    #[test]
    fn storm_is_deterministic_sorted_and_shaped() {
        let gen = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let (_db, p) = pop(&mut rng);
            submission_storm(&p, 2_000, SimTime::from_secs(600), &mut rng)
        };
        let a = gen(9);
        let b = gen(9);
        assert_eq!(a.len(), 2_000);
        assert_eq!(a.total_core_seconds(), b.total_core_seconds(), "seeded");
        assert!(
            a.entries.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival order"
        );
        assert!(
            a.entries.iter().all(|e| e.at < SimTime::from_secs(600)),
            "inside the window"
        );
        let singles = a.entries.iter().filter(|e| e.spec.tasks == 1).count();
        assert!(
            singles as f64 / a.len() as f64 > 0.5,
            "storms are mostly single-task: {singles}"
        );
        // Shared replay preserves the job set without per-submission clones.
        let shared = a.to_shared();
        assert_eq!(shared.len(), a.len());
        let mut s = Scheduler::new(eus_sched::SchedConfig::default());
        for _ in 0..64 {
            s.add_node(16, 64_000, 0);
        }
        shared.submit_all(&mut s);
        assert_eq!(s.jobs.len(), a.len());
    }

    #[test]
    fn interactive_vs_bulk_is_shaped_and_deterministic() {
        use eus_sched::QosClass;
        let gen = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let (_db, p) = pop(&mut rng);
            interactive_vs_bulk(&p, 40, 60, SimTime::from_secs(1200), &mut rng)
        };
        let t = gen(7);
        assert_eq!(t.len(), 100);
        assert_eq!(t.total_core_seconds(), gen(7).total_core_seconds());
        let bulk: Vec<_> = t
            .entries
            .iter()
            .filter(|e| e.spec.qos == QosClass::Bulk)
            .collect();
        let inter: Vec<_> = t
            .entries
            .iter()
            .filter(|e| e.spec.qos == QosClass::Urgent)
            .collect();
        assert_eq!((bulk.len(), inter.len()), (40, 60));
        // Bulk front lands early and outlives the window; interactive work
        // arrives after it and is short.
        assert!(bulk.iter().all(|e| e.at < SimTime::from_secs(30)));
        assert!(bulk
            .iter()
            .all(|e| e.spec.duration > SimDuration::from_secs(1200)));
        assert!(inter.iter().all(|e| e.at >= SimTime::from_secs(60)));
        assert!(inter
            .iter()
            .all(|e| e.spec.duration <= SimDuration::from_secs(600)));
        assert!(inter.iter().all(|e| e.spec.kind == JobKind::Interactive));
    }

    #[test]
    fn multi_partition_storm_routes_and_backlogs() {
        let mut rng = SimRng::seed_from_u64(11);
        let (_db, p) = pop(&mut rng);
        let parts = ["batch", "short", "debug"];
        let t = multi_partition_storm(&p, &parts, 200, 0.7, SimTime::from_secs(600), &mut rng);
        assert_eq!(t.len(), 200);
        let by_part = |name: &str| {
            t.entries
                .iter()
                .filter(|e| e.spec.partition.as_deref() == Some(name))
                .count()
        };
        assert_eq!(by_part("batch"), 140, "70% backlog share");
        assert!(by_part("short") > 0 && by_part("debug") > 0);
        // Backlog is front-loaded; light work spreads across the window.
        let backlog_late = t
            .entries
            .iter()
            .filter(|e| e.spec.partition.as_deref() == Some("batch"))
            .filter(|e| e.at > SimTime::from_secs(10))
            .count();
        assert_eq!(backlog_late, 0);
    }

    #[test]
    fn submit_all_into_scheduler() {
        let mut rng = SimRng::seed_from_u64(5);
        let (_db, p) = pop(&mut rng);
        let t = WorkloadMix::llsc_like().generate(&p, SimTime::from_secs(1800), &mut rng);
        let mut s = Scheduler::new(eus_sched::SchedConfig::default());
        for _ in 0..32 {
            s.add_node(16, 64_000, 0);
        }
        t.submit_all(&mut s);
        s.run_to_completion();
        let done = s.metrics.completed.get() as usize;
        assert_eq!(done, t.len(), "all jobs eventually complete");
    }
}
