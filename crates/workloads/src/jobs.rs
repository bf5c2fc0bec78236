//! Job generators for the workload classes the paper's environment serves
//! (Secs. I–II): bulk-synchronous parameter sweeps and Monte Carlo batches
//! (many short single-task jobs), MPI gang jobs, and interactive sessions.

use eus_sched::{JobKind, JobSpec};
use eus_simcore::{SimDuration, SimRng};
use eus_simos::Uid;

/// A parameter sweep: `points` independent single-task jobs whose runtimes
/// are log-normally distributed around `task_secs` (bulk synchronous, short).
pub fn parameter_sweep(user: Uid, points: u32, task_secs: f64, rng: &mut SimRng) -> Vec<JobSpec> {
    let mu = task_secs.max(1.0).ln();
    (0..points)
        .map(|i| {
            let secs = rng.log_normal(mu, 0.3).clamp(1.0, task_secs * 10.0);
            JobSpec::new(
                user,
                format!("sweep-{i:04}"),
                SimDuration::from_secs_f64(secs),
            )
            .with_cpus_per_task(1)
            .with_mem_per_task(2048)
            .with_cmdline(["python", "sweep.py", &format!("--point={i}")])
        })
        .collect()
}

/// A Monte Carlo batch: like a sweep but with heavier-tailed runtimes
/// (bounded Pareto), the shape that makes exclusive scheduling so wasteful.
pub fn monte_carlo(user: Uid, replicas: u32, min_secs: f64, rng: &mut SimRng) -> Vec<JobSpec> {
    (0..replicas)
        .map(|i| {
            let secs = rng.bounded_pareto(1.5, min_secs.max(1.0), min_secs.max(1.0) * 100.0);
            JobSpec::new(user, format!("mc-{i:04}"), SimDuration::from_secs_f64(secs))
                .with_cpus_per_task(1)
                .with_mem_per_task(1024)
                .with_cmdline(["./mc_sim", &format!("--seed={i}")])
        })
        .collect()
}

/// An MPI gang job: `ranks` tasks that start and finish together, with
/// per-rank resources sized like a typical solver.
pub fn mpi_job(user: Uid, ranks: u32, secs: f64) -> JobSpec {
    JobSpec::new(
        user,
        format!("mpi-{ranks}r"),
        SimDuration::from_secs_f64(secs),
    )
    .with_tasks(ranks)
    .with_cpus_per_task(2)
    .with_mem_per_task(4096)
    .with_cmdline(["mpirun", "./solver"])
}

/// An interactive session (shell or notebook kernel).
pub fn interactive_session(user: Uid, hours: f64) -> JobSpec {
    JobSpec::new(
        user,
        "interactive",
        SimDuration::from_secs_f64(hours * 3600.0),
    )
    .with_cpus_per_task(2)
    .with_mem_per_task(8192)
    .with_kind(JobKind::Interactive)
    .with_cmdline(["bash", "-l"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_many_short_singles() {
        let mut rng = SimRng::seed_from_u64(1);
        let jobs = parameter_sweep(Uid(1), 100, 30.0, &mut rng);
        assert_eq!(jobs.len(), 100);
        assert!(jobs.iter().all(|j| j.tasks == 1));
        let mean: f64 = jobs.iter().map(|j| j.duration.as_secs_f64()).sum::<f64>() / 100.0;
        assert!((10.0..120.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn monte_carlo_is_heavy_tailed() {
        let mut rng = SimRng::seed_from_u64(2);
        let jobs = monte_carlo(Uid(1), 500, 10.0, &mut rng);
        let mut secs: Vec<f64> = jobs.iter().map(|j| j.duration.as_secs_f64()).collect();
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = secs[250];
        let p99 = secs[494];
        assert!(
            p99 > median * 5.0,
            "tail expected: median {median} p99 {p99}"
        );
        assert!(secs[0] >= 10.0);
    }

    #[test]
    fn gang_and_sessions_shapes() {
        let mpi = mpi_job(Uid(1), 64, 3600.0);
        assert_eq!(mpi.tasks, 64);
        assert_eq!(mpi.tasks * mpi.cpus_per_task, 128);

        let sess = interactive_session(Uid(1), 2.0);
        assert_eq!(sess.kind, JobKind::Interactive);
        assert_eq!(sess.duration, SimDuration::from_secs(7200));
    }
}
