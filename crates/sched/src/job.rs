//! Jobs: what users submit.

use eus_simcore::{SimDuration, SimTime};
use eus_simos::{NodeId, Uid};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Job identifier, dense and increasing in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job:{}", self.0)
    }
}

/// Broad job categories; interactive/web jobs matter to the portal and to
/// `pam_slurm` experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Classic batch job.
    Batch,
    /// Interactive shell/session.
    Interactive,
    /// A job exposing a web interface (Jupyter, TensorBoard, …).
    WebApp,
}

/// Quality-of-service class: the priority band a job submits under, and the
/// input to the scheduler's preemption rule (`SchedConfig::preemption`).
///
/// Classes are ordered. A job may displace (kill-and-requeue, with the full
/// separation epilog — node scrub, process cleanup — between the victim and
/// the new tenant) only jobs of a *strictly lower* class, and only the two
/// latency-sensitive classes ([`Interactive`](QosClass::Interactive) and
/// [`Urgent`](QosClass::Urgent)) are preemptors at all: `Normal` work never
/// preempts `Bulk` work, it just outranks it in fair-share ties. With
/// `SchedConfig::preemption` off (the default) the class is carried but
/// ignored, so traces decorated with QoS stay bit-identical to the
/// reference scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Throughput work: sweeps, long MPI production runs. Preemptible by
    /// every higher class.
    Bulk,
    /// The default band.
    Normal,
    /// Latency-sensitive interactive/debug sessions. May preempt `Bulk`.
    Interactive,
    /// On-demand / operational urgency (the LLSC "rapid response" shape).
    /// May preempt `Bulk`, `Normal`, and `Interactive`.
    Urgent,
}

impl QosClass {
    /// Numeric rank: higher outranks lower.
    pub fn rank(self) -> u8 {
        match self {
            QosClass::Bulk => 0,
            QosClass::Normal => 1,
            QosClass::Interactive => 2,
            QosClass::Urgent => 3,
        }
    }

    /// May a job of this class displace a running job of `victim`'s class?
    /// Only latency-sensitive classes preempt, and only strictly downward.
    pub fn may_preempt(self, victim: QosClass) -> bool {
        self >= QosClass::Interactive && victim < self
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QosClass::Bulk => "bulk",
            QosClass::Normal => "normal",
            QosClass::Interactive => "interactive",
            QosClass::Urgent => "urgent",
        })
    }
}

/// What a job asks for and how it behaves once started.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Submitting user.
    pub user: Uid,
    /// Human-readable name (visible in `squeue`, hence privacy-relevant).
    pub name: String,
    /// Number of tasks (MPI ranks / sweep points).
    pub tasks: u32,
    /// Cores per task.
    pub cpus_per_task: u32,
    /// Memory per task, MiB.
    pub mem_per_task_mib: u64,
    /// GPUs per task.
    pub gpus_per_task: u32,
    /// Actual runtime once started.
    pub duration: SimDuration,
    /// Requested wall-time limit (the backfill bound). Defaults to
    /// `duration` in the builder.
    pub time_limit: SimDuration,
    /// Job kind.
    pub kind: JobKind,
    /// Target partition; `None` routes to the default partition (or to all
    /// nodes when partitioning is not configured).
    pub partition: Option<String>,
    /// Command line — what other users could read at `hidepid=0`.
    pub cmdline: Vec<String>,
    /// Environment passed to tasks (CVE-2020-27746's secret lives here or on
    /// the cmdline depending on the scenario).
    pub environ: BTreeMap<String, String>,
    /// If true, the job requests `--exclusive` at submission.
    pub request_exclusive: bool,
    /// QoS class: priority band and preemption standing. Ignored unless the
    /// scheduler's policy plane (`SchedConfig::preemption`) is enabled.
    pub qos: QosClass,
}

impl JobSpec {
    /// A minimal single-task batch job; customize with the `with_*` methods.
    pub fn new(user: Uid, name: impl Into<String>, duration: SimDuration) -> Self {
        JobSpec {
            user,
            name: name.into(),
            tasks: 1,
            cpus_per_task: 1,
            mem_per_task_mib: 1024,
            gpus_per_task: 0,
            duration,
            time_limit: duration,
            kind: JobKind::Batch,
            partition: None,
            cmdline: Vec::new(),
            environ: BTreeMap::new(),
            request_exclusive: false,
            qos: QosClass::Normal,
        }
    }

    /// Builder: target partition.
    pub fn with_partition(mut self, name: impl Into<String>) -> Self {
        self.partition = Some(name.into());
        self
    }

    /// Builder: number of tasks.
    pub fn with_tasks(mut self, tasks: u32) -> Self {
        self.tasks = tasks.max(1);
        self
    }

    /// Builder: cores per task.
    pub fn with_cpus_per_task(mut self, cpus: u32) -> Self {
        self.cpus_per_task = cpus.max(1);
        self
    }

    /// Builder: memory per task (MiB).
    pub fn with_mem_per_task(mut self, mib: u64) -> Self {
        self.mem_per_task_mib = mib;
        self
    }

    /// Builder: GPUs per task.
    pub fn with_gpus_per_task(mut self, gpus: u32) -> Self {
        self.gpus_per_task = gpus;
        self
    }

    /// Builder: wall-time limit (defaults to the duration).
    pub fn with_time_limit(mut self, limit: SimDuration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Builder: job kind.
    pub fn with_kind(mut self, kind: JobKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builder: command line.
    pub fn with_cmdline(mut self, argv: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.cmdline = argv.into_iter().map(Into::into).collect();
        self
    }

    /// Builder: request `--exclusive`.
    pub fn exclusive(mut self) -> Self {
        self.request_exclusive = true;
        self
    }

    /// Builder: QoS class.
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Total cores requested.
    pub fn total_cores(&self) -> u64 {
        self.tasks as u64 * self.cpus_per_task as u64
    }

    /// Total memory requested (MiB).
    pub fn total_mem_mib(&self) -> u64 {
        self.tasks as u64 * self.mem_per_task_mib
    }

    /// Total GPUs requested.
    pub fn total_gpus(&self) -> u64 {
        self.tasks as u64 * self.gpus_per_task as u64
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in queue.
    Pending,
    /// Dispatched and executing.
    Running,
    /// Finished normally.
    Completed,
    /// Killed by a node failure (or OOM).
    Failed,
    /// Killed for exceeding its requested wall-time limit.
    Timeout,
    /// Removed before starting.
    Cancelled,
}

impl JobState {
    /// Terminal states never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled | JobState::Timeout
        )
    }
}

/// Resources a job holds on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAlloc {
    /// Tasks placed on this node.
    pub tasks: u32,
    /// Cores claimed.
    pub cores: u32,
    /// Memory claimed (MiB).
    pub mem_mib: u64,
    /// GPUs claimed.
    pub gpus: u32,
}

/// A job as tracked by the scheduler.
///
/// The spec sits behind an [`Arc`] so scheduling cycles and view queries
/// (`squeue`) share it instead of deep-cloning cmdline/name strings — field
/// access is unchanged (`job.spec.user` auto-derefs).
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// The request (shared, immutable once submitted).
    pub spec: Arc<JobSpec>,
    /// Lifecycle state.
    pub state: JobState,
    /// Submission time.
    pub submitted: SimTime,
    /// Dispatch time, once running.
    pub started: Option<SimTime>,
    /// Completion/failure time.
    pub ended: Option<SimTime>,
    /// Per-node resource holdings while running. Set exactly once at
    /// dispatch and never mutated while the job is running — the engine's
    /// `running_ends` index snapshots it at start time, and the shadow
    /// replay and calendar profile read that snapshot instead of this map.
    pub allocations: BTreeMap<NodeId, TaskAlloc>,
}

impl Job {
    /// Queue wait so far / at start.
    pub fn wait_time(&self) -> Option<SimDuration> {
        self.started.map(|s| s.since(self.submitted))
    }

    /// Core-seconds actually consumed (0 until ended).
    pub fn core_seconds(&self) -> f64 {
        match (self.started, self.ended) {
            (Some(s), Some(e)) => {
                let cores: u64 = self.allocations.values().map(|a| a.cores as u64).sum();
                cores as f64 * e.since(s).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_totals() {
        let s = JobSpec::new(Uid(1), "sweep", SimDuration::from_secs(60))
            .with_tasks(8)
            .with_cpus_per_task(2)
            .with_mem_per_task(2048)
            .with_gpus_per_task(1);
        assert_eq!(s.total_cores(), 16);
        assert_eq!(s.total_mem_mib(), 16384);
        assert_eq!(s.total_gpus(), 8);
        assert_eq!(s.time_limit, s.duration, "limit defaults to duration");
        assert_eq!(s.kind, JobKind::Batch);
    }

    #[test]
    fn zero_guards() {
        let s = JobSpec::new(Uid(1), "x", SimDuration::from_secs(1))
            .with_tasks(0)
            .with_cpus_per_task(0);
        assert_eq!(s.tasks, 1);
        assert_eq!(s.cpus_per_task, 1);
    }

    #[test]
    fn qos_preemption_lattice() {
        use QosClass::*;
        assert_eq!(
            JobSpec::new(Uid(1), "j", SimDuration::from_secs(1)).qos,
            Normal
        );
        // Only latency-sensitive classes preempt, strictly downward.
        assert!(Urgent.may_preempt(Interactive));
        assert!(Urgent.may_preempt(Normal));
        assert!(Urgent.may_preempt(Bulk));
        assert!(Interactive.may_preempt(Bulk));
        assert!(Interactive.may_preempt(Normal));
        assert!(!Interactive.may_preempt(Interactive));
        assert!(!Interactive.may_preempt(Urgent));
        assert!(!Normal.may_preempt(Bulk), "Normal is not a preemptor");
        assert!(!Bulk.may_preempt(Bulk));
        assert!(Bulk.rank() < Normal.rank() && Normal.rank() < Interactive.rank());
        assert_eq!(Urgent.to_string(), "urgent");
    }

    #[test]
    fn terminal_states() {
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Pending.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn core_seconds_accounting() {
        let spec = JobSpec::new(Uid(1), "j", SimDuration::from_secs(10)).with_tasks(4);
        let mut job = Job {
            id: JobId(1),
            spec: Arc::new(spec),
            state: JobState::Completed,
            submitted: SimTime::ZERO,
            started: Some(SimTime::from_secs(5)),
            ended: Some(SimTime::from_secs(15)),
            allocations: BTreeMap::from([(
                NodeId(1),
                TaskAlloc {
                    tasks: 4,
                    cores: 4,
                    mem_mib: 4096,
                    gpus: 0,
                },
            )]),
        };
        assert_eq!(job.core_seconds(), 40.0);
        assert_eq!(job.wait_time(), Some(SimDuration::from_secs(5)));
        job.started = None;
        assert_eq!(job.core_seconds(), 0.0);
    }
}
