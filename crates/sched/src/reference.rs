//! The **retained reference scheduler** — the pre-overhaul scan-the-world
//! implementation, kept verbatim as the correctness oracle for the
//! optimized [`crate::engine::Scheduler`].
//!
//! Every scheduling decision here is made the expensive way the engine used
//! to make it:
//!
//! * `placement_on` collects **and sorts every node** per placement attempt,
//! * the EASY shadow time **clones the entire node map** and re-runs full
//!   placement after every simulated release,
//! * the queue is a `Vec` with `remove(0)` / `remove(idx)` shifts.
//!
//! `tests/sched_equivalence.rs` replays random traces through both
//! schedulers and asserts identical observable behavior (start times,
//! placements, epilogs, squeue views) across all `NodeSharing` policies.
//! `benches/sched_throughput.rs` races the two at 256 nodes so the speedup
//! claim stays measured. Do **not** optimize this module — its slowness is
//! its value.

use crate::engine::{EpilogEvent, FailureRecord, SchedConfig, SchedMetrics};
use crate::job::{Job, JobId, JobSpec, JobState, TaskAlloc};
use crate::node::{NodeState, SchedNode};
use crate::partition::{PartitionError, PartitionTable};
use crate::policy::{tasks_that_fit, NodeSharing};
use crate::privatedata::{may_view, JobView};
use eus_obs::FlightRecorder;
use eus_simcore::{Counter, Histogram, SimTime, TimeWeighted};
use eus_simos::{Credentials, NodeId, Uid};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// Internal event kinds (identical to the engine's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Submit(JobId),
    JobEnd(JobId),
    NodeFail(NodeId),
    NodeRepair(NodeId),
}

/// The reference scheduler: same public surface as the optimized engine
/// (the subset the equivalence suite needs), old algorithms inside.
#[derive(Debug)]
pub struct ReferenceScheduler {
    /// Configuration.
    pub config: SchedConfig,
    /// Compute nodes.
    pub nodes: BTreeMap<NodeId, SchedNode>,
    /// Every job ever submitted.
    pub jobs: BTreeMap<JobId, Job>,
    queue: Vec<JobId>,
    events: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    next_job: u64,
    next_node: u32,
    seq: u64,
    now: SimTime,
    /// Metrics.
    pub metrics: SchedMetrics,
    epilogs: Vec<EpilogEvent>,
    /// Node-failure history.
    pub failures: Vec<FailureRecord>,
    /// Partition table.
    pub partitions: PartitionTable,
    admins: BTreeSet<Uid>,
    /// Optional flight recorder, mirroring the engine's event kinds so the
    /// equivalence suite can print both engines' tails on a failure.
    /// `None` (the default) costs one never-taken branch per event site.
    pub flight: Option<FlightRecorder>,
}

impl ReferenceScheduler {
    /// An empty reference scheduler.
    pub fn new(config: SchedConfig) -> Self {
        ReferenceScheduler {
            config,
            nodes: BTreeMap::new(),
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            events: BinaryHeap::new(),
            next_job: 1,
            next_node: 1,
            seq: 0,
            now: SimTime::ZERO,
            metrics: SchedMetrics {
                busy_cores: TimeWeighted::new(SimTime::ZERO, 0.0),
                used_cores: TimeWeighted::new(SimTime::ZERO, 0.0),
                wait_times: Histogram::new(),
                completed: Counter::new(),
                failed: Counter::new(),
                timed_out: Counter::new(),
            },
            epilogs: Vec::new(),
            failures: Vec::new(),
            partitions: PartitionTable::new(),
            admins: BTreeSet::new(),
            flight: None,
        }
    }

    /// Attach a flight recorder (capacity-bounded ring) recording the same
    /// event kinds as the engine: `job.submit`, `job.start`, `job.end`,
    /// `node.fail`, `node.repair`.
    pub fn enable_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::new(capacity));
    }

    fn flight_event(&mut self, kind: &'static str, a: u64, b: u64, c: u64) {
        if let Some(fr) = &mut self.flight {
            fr.push(self.now, kind, a, b, c);
        }
    }

    /// Add a node with auto-assigned id.
    pub fn add_node(&mut self, cores: u32, mem_mib: u64, gpus: u32) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes
            .insert(id, SchedNode::new(id, cores, mem_mib, gpus));
        id
    }

    /// Register an operator exempt from PrivateData filtering.
    pub fn add_admin(&mut self, uid: Uid) {
        self.admins.insert(uid);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of jobs waiting in queue.
    pub fn pending_count(&self) -> usize {
        self.queue.len()
    }

    /// Number of running jobs (old full-scan form).
    pub fn running_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count()
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse((at, seq, ev)));
    }

    /// Submit a job to arrive at `at` (clamped to now).
    pub fn submit_at(&mut self, at: SimTime, spec: JobSpec) -> JobId {
        self.submit_at_shared(at, Arc::new(spec))
    }

    /// Submit an already-shared spec (trace replay reuses one `Arc` per
    /// entry across schedulers).
    pub fn submit_at_shared(&mut self, at: SimTime, spec: Arc<JobSpec>) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let valid_partition: Result<_, PartitionError> =
            self.partitions.eligible_nodes(spec.partition.as_deref());
        let rejected = valid_partition.is_err();
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                state: if rejected {
                    JobState::Cancelled
                } else {
                    JobState::Pending
                },
                submitted: at.max(self.now),
                started: None,
                ended: None,
                allocations: BTreeMap::new(),
            },
        );
        if rejected {
            self.jobs.get_mut(&id).expect("just inserted").ended = Some(at.max(self.now));
        } else {
            self.push_event(at, Ev::Submit(id));
        }
        id
    }

    /// Submit arriving now.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        self.submit_at(self.now, spec)
    }

    /// Cancel a pending job.
    pub fn cancel(&mut self, id: JobId) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if job.state != JobState::Pending {
            return false;
        }
        job.state = JobState::Cancelled;
        job.ended = Some(self.now);
        self.queue.retain(|j| *j != id);
        true
    }

    /// Inject a node crash at `at`.
    pub fn schedule_node_failure(&mut self, at: SimTime, node: NodeId) {
        self.push_event(at, Ev::NodeFail(node));
    }

    /// Drain accumulated epilog work.
    pub fn drain_epilogs(&mut self) -> Vec<EpilogEvent> {
        std::mem::take(&mut self.epilogs)
    }

    /// Does `user` have a running job with an allocation on `node`? (Old
    /// full-scan form.)
    pub fn has_running_job_on(&self, user: Uid, node: NodeId) -> bool {
        self.jobs.values().any(|j| {
            j.state == JobState::Running && j.spec.user == user && j.allocations.contains_key(&node)
        })
    }

    /// `squeue` as seen by `viewer` (same view type as the engine's).
    pub fn squeue(&self, viewer: &Credentials) -> Vec<JobView> {
        let admin = self.admins.contains(&viewer.uid);
        self.jobs
            .values()
            .filter(|j| !j.state.is_terminal())
            .filter(|j| may_view(viewer, j.spec.user, self.config.private_data.jobs, admin))
            .map(|j| JobView {
                id: j.id,
                user: j.spec.user,
                spec: Arc::clone(&j.spec),
                state: j.state,
                nodes: j.allocations.keys().copied().collect(),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Fire events up to and including `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(Reverse((t, _, _))) = self.events.peek() {
            if *t > horizon {
                break;
            }
            let Reverse((t, _, ev)) = self.events.pop().expect("peeked");
            self.now = t;
            self.fire(ev);
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Run until no events remain. Returns the final clock.
    pub fn run_to_completion(&mut self) -> SimTime {
        while let Some(Reverse((t, _, ev))) = self.events.pop() {
            self.now = t;
            self.fire(ev);
        }
        self.now
    }

    fn fire(&mut self, ev: Ev) {
        match ev {
            Ev::Submit(j) => {
                if self.jobs[&j].state == JobState::Pending {
                    self.flight_event("job.submit", j.0, self.jobs[&j].spec.tasks as u64, 0);
                    self.queue.push(j);
                    self.try_schedule();
                }
            }
            Ev::JobEnd(j) => {
                if self.jobs[&j].state == JobState::Running {
                    let spec = &self.jobs[&j].spec;
                    let outcome = if spec.time_limit < spec.duration {
                        JobState::Timeout
                    } else {
                        JobState::Completed
                    };
                    self.finish_job(j, outcome);
                    self.try_schedule();
                }
            }
            Ev::NodeFail(n) => {
                self.fail_node(n);
                self.try_schedule();
            }
            Ev::NodeRepair(n) => {
                if let Some(node) = self.nodes.get_mut(&n) {
                    if node.state == NodeState::Down {
                        node.state = NodeState::Up;
                        self.flight_event("node.repair", n.0 as u64, 0, 0);
                    }
                }
                self.try_schedule();
            }
        }
    }

    fn fail_node(&mut self, n: NodeId) {
        let Some(node) = self.nodes.get_mut(&n) else {
            return;
        };
        if node.state != NodeState::Up {
            return;
        }
        node.state = NodeState::Down;
        let victims: Vec<JobId> = node.running.keys().copied().collect();
        let mut record = FailureRecord {
            node: n,
            at: self.now,
            failed_jobs: Vec::new(),
        };
        self.flight_event("node.fail", n.0 as u64, victims.len() as u64, 0);
        for j in victims {
            let user = self.jobs[&j].spec.user;
            record.failed_jobs.push((j, user));
            self.finish_job(j, JobState::Failed);
        }
        self.failures.push(record);
        self.push_event(self.now + self.config.repair_time, Ev::NodeRepair(n));
    }

    fn finish_job(&mut self, id: JobId, state: JobState) {
        let job = self.jobs.get_mut(&id).expect("known job");
        debug_assert_eq!(job.state, JobState::Running);
        job.state = state;
        job.ended = Some(self.now);
        let user = job.spec.user;
        let allocations: Vec<(NodeId, TaskAlloc)> =
            job.allocations.iter().map(|(n, a)| (*n, *a)).collect();
        let cpus_per_task = job.spec.cpus_per_task;
        let mut released_cores = 0u32;
        let mut released_used = 0u32;
        for (nid, alloc) in &allocations {
            if let Some(node) = self.nodes.get_mut(nid) {
                node.release(id);
                released_cores += alloc.cores;
                released_used += alloc.tasks * cpus_per_task;
            }
        }
        self.metrics
            .busy_cores
            .add(self.now, -(released_cores as f64));
        self.metrics
            .used_cores
            .add(self.now, -(released_used as f64));
        match state {
            JobState::Completed => self.metrics.completed.incr(),
            JobState::Failed => self.metrics.failed.incr(),
            JobState::Timeout => self.metrics.timed_out.incr(),
            _ => {}
        }
        let outcome = match state {
            JobState::Completed => 0,
            JobState::Failed => 1,
            JobState::Timeout => 2,
            _ => 3,
        };
        self.flight_event("job.end", id.0, outcome, released_cores as u64);
        for (nid, alloc) in &allocations {
            let still_active = self.has_running_job_on(user, *nid);
            self.epilogs.push(EpilogEvent {
                job: id,
                user,
                node: *nid,
                gpus: alloc.gpus,
                at: self.now,
                user_still_active_on_node: still_active,
            });
        }
    }

    fn start_job(&mut self, id: JobId, placement: Vec<(NodeId, TaskAlloc)>) {
        let now = self.now;
        let (user, duration, submitted, cpus_per_task) = {
            let job = &self.jobs[&id];
            (
                job.spec.user,
                job.spec.duration,
                job.submitted,
                job.spec.cpus_per_task,
            )
        };
        let mut total_cores = 0u32;
        let mut used_cores = 0u32;
        for (nid, alloc) in &placement {
            self.nodes
                .get_mut(nid)
                .expect("placement on known node")
                .claim(id, *alloc, user);
            total_cores += alloc.cores;
            used_cores += alloc.tasks * cpus_per_task;
        }
        {
            let job = self.jobs.get_mut(&id).expect("known job");
            job.state = JobState::Running;
            job.started = Some(now);
            job.allocations = placement.into_iter().collect();
        }
        let nodes_used = self.jobs[&id].allocations.len() as u64;
        self.flight_event("job.start", id.0, nodes_used, total_cores as u64);
        self.metrics.busy_cores.add(now, total_cores as f64);
        self.metrics.used_cores.add(now, used_cores as f64);
        self.metrics
            .wait_times
            .record(now.since(submitted).as_secs_f64());
        let runtime = duration.min(self.jobs[&id].spec.time_limit);
        self.push_event(now + runtime, Ev::JobEnd(id));
    }

    /// The old placement routine: collect **every** admissible node, sort
    /// the whole list, walk it greedily.
    fn placement_on(
        nodes: &BTreeMap<NodeId, SchedNode>,
        policy: NodeSharing,
        spec: &JobSpec,
        eligible: Option<&BTreeSet<NodeId>>,
    ) -> Option<Vec<(NodeId, TaskAlloc)>> {
        let user = spec.user;
        let mut candidates: Vec<&SchedNode> = nodes
            .values()
            .filter(|n| eligible.is_none_or(|set| set.contains(&n.id)))
            .filter(|n| policy.node_admits(n, user, spec))
            .collect();
        candidates.sort_by_key(|n| {
            let owned = match n.owner() {
                Some(o) if o == user => 0u8,
                _ => 1u8,
            };
            (owned, n.id)
        });

        let mut remaining = spec.tasks;
        let mut placement = Vec::new();
        for node in candidates {
            if remaining == 0 {
                break;
            }
            let fit = tasks_that_fit(node, spec).min(remaining);
            if fit == 0 {
                continue;
            }
            let alloc = if policy.charges_whole_node(spec) {
                TaskAlloc {
                    tasks: fit,
                    cores: node.cores,
                    mem_mib: node.mem_mib,
                    gpus: node.gpus,
                }
            } else {
                TaskAlloc {
                    tasks: fit,
                    cores: fit * spec.cpus_per_task,
                    mem_mib: fit as u64 * spec.mem_per_task_mib,
                    gpus: fit * spec.gpus_per_task,
                }
            };
            placement.push((node.id, alloc));
            remaining -= fit;
        }
        if remaining == 0 {
            Some(placement)
        } else {
            None
        }
    }

    /// The old EASY shadow: clone the whole node map, release running jobs
    /// in end-time order, re-running full placement after each.
    fn shadow_time_for(&self, head: &JobSpec) -> SimTime {
        let mut sim_nodes = self.nodes.clone();
        let eligible = self
            .partitions
            .eligible_nodes(head.partition.as_deref())
            .expect("validated at submit")
            .cloned();
        if Self::placement_on(&sim_nodes, self.config.policy, head, eligible.as_ref()).is_some() {
            return self.now;
        }
        let mut ends: Vec<(SimTime, JobId)> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| {
                (
                    j.started.expect("running has start") + j.spec.duration,
                    j.id,
                )
            })
            .collect();
        ends.sort();
        for (end_t, jid) in ends {
            let allocs: Vec<NodeId> = self.jobs[&jid].allocations.keys().copied().collect();
            for nid in allocs {
                if let Some(n) = sim_nodes.get_mut(&nid) {
                    n.release(jid);
                }
            }
            if Self::placement_on(&sim_nodes, self.config.policy, head, eligible.as_ref()).is_some()
            {
                return end_t;
            }
        }
        SimTime::MAX
    }

    fn try_schedule(&mut self) {
        loop {
            let Some(&head) = self.queue.first() else {
                return;
            };
            let head_spec = Arc::clone(&self.jobs[&head].spec);
            let head_eligible = self
                .partitions
                .eligible_nodes(head_spec.partition.as_deref())
                .expect("validated at submit")
                .cloned();
            if let Some(p) = Self::placement_on(
                &self.nodes,
                self.config.policy,
                &head_spec,
                head_eligible.as_ref(),
            ) {
                self.queue.remove(0);
                self.start_job(head, p);
                continue;
            }
            if !self.config.backfill {
                return;
            }
            let shadow = self.shadow_time_for(&head_spec);
            let mut idx = 1;
            let mut scanned = 0;
            while idx < self.queue.len() && scanned < self.config.backfill_depth {
                scanned += 1;
                let cand = self.queue[idx];
                let spec = Arc::clone(&self.jobs[&cand].spec);
                let fits_before_shadow =
                    shadow == SimTime::MAX || self.now + spec.time_limit <= shadow;
                if fits_before_shadow {
                    let cand_eligible = self
                        .partitions
                        .eligible_nodes(spec.partition.as_deref())
                        .expect("validated at submit")
                        .cloned();
                    if let Some(p) = Self::placement_on(
                        &self.nodes,
                        self.config.policy,
                        &spec,
                        cand_eligible.as_ref(),
                    ) {
                        self.queue.remove(idx);
                        self.start_job(cand, p);
                        continue; // same idx now holds the next candidate
                    }
                }
                idx += 1;
            }
            return;
        }
    }
}
