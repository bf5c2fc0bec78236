//! The scheduler engine: FCFS dispatch with EASY backfill over pluggable
//! node-sharing policies, driven by an internal discrete-event clock.
//!
//! The engine is deliberately policy-parameterized so experiment E4 can run
//! the identical workload under `shared` / `exclusive` / `whole-node` and
//! compare utilization, wait, and throughput — the trade-off Sec. IV-B
//! describes qualitatively.
//!
//! # One scheduling cycle
//!
//! Every event that can change a decision (arrival, job end, node failure
//! or repair) runs one cycle, `try_schedule`. With `fair_share` off it
//! schedules the one whole-cluster class ([`ClassId::GLOBAL`]); with it on,
//! every partition's class in turn. A class's cycle places heads while
//! they fit, may preempt for a blocked latency-sensitive head, then
//! backfills behind the blocked head under its EASY shadow (and, with
//! reservations on, the conservative calendar). With every knob off that
//! is FCFS + EASY over one FIFO, the behaviour the unoptimised
//! `ReferenceScheduler` in `tests/common/reference.rs` checks.
//!
//! # Scheduler internals (the hot path)
//!
//! At 10k-node scale the naive cycle — collect-and-sort every node per
//! placement attempt, clone the whole node map per EASY shadow computation,
//! shift a `Vec` queue — is quadratic-ish in cluster size and queue depth.
//! This engine instead runs on a **cache-native core**: dense node slots
//! with one derived capacity row each, bitmap candidate sets, epoch-stamped
//! overlay scratch, and memoized scan state, all updated incrementally on
//! every claim/release so a scheduling cycle touches only viable state:
//!
//! * **Capacity rows** — nodes live in a dense [`crate::table::NodeTable`]
//!   (`slot = id − 1`); the slot is the truth, and the `mirror_update`
//!   funnel derives one 40-byte `ShadowNode` row per node from it (free
//!   cores/mem/gpus, job count, sole owner, up bit) on every claim /
//!   release / fail / repair. The placement walk, the shadow replay, the
//!   calendar and the preemption proof all read that row through the one
//!   fit routine, `ShadowNode::fit`, so they cannot disagree about what a
//!   node admits.
//! * **Placement index** — bitmap [`crate::table::NodeSet`]s replace the
//!   old id-ordered tree sets: `idle_nodes` (no running jobs — the only
//!   admissible "other" nodes under `Exclusive`, `WholeNodeUser`, and
//!   per-job `--exclusive`) and `avail_nodes` (Up with free cores — the
//!   admissible "other" nodes under `Shared`), plus per-user `owned_nodes`
//!   (packing affinity). Iteration is still ascending-id, so the candidate
//!   order — owned first, then the policy's source set — is bit-identical
//!   to the map-based engine.
//! * **Head-fit gate** — every failed head walk records the *uncapped*
//!   `Σ fit` it observed (exact: any node with positive fit is in the
//!   walked sets), priming the incrementally-maintained `HeadFit` total.
//!   While that total stays below the head's task count the placement
//!   re-attempt is provably futile and is skipped in O(1) — arrival storms
//!   against a blocked head cost one counter bump, not an O(nodes) walk.
//! * **Overlay shadow** — the EASY shadow replays running-job releases in
//!   end-time order through an epoch-stamped overlay: each touched node is
//!   first-touch copied from the persistent capacity mirror, so a replay
//!   costs O(touched releases), not an O(nodes) mirror memcpy. The total
//!   task-fit sum is maintained incrementally with early exit the moment
//!   the head fits.
//! * **Class FIFO** — each class queues its jobs in an
//!   `enqueue-seq → Queued` map that carries the job's time limit, user
//!   and QoS band beside its id, with a flat job → seq slab (`queue_pos`)
//!   for dequeue: head dispatch and mid-queue backfill removals are
//!   O(log q), and a backfill candidate the shadow bound rejects costs an
//!   iterator step and a compare, no jobs-map probe.
//! * **Shared specs** — `Job::spec` is `Arc<JobSpec>`, so scheduling cycles
//!   and `squeue` views share the spec instead of deep-cloning cmdline/name
//!   strings, and partition eligible-sets are borrowed rather than cloned
//!   per cycle.
//!
//! The pre-overhaul implementation is retained verbatim as the test
//! oracle `tests/common/reference.rs`; `tests/sched_equivalence.rs` proves
//! the two observationally identical over random traces × policies, and
//! `exp_sched_scale` keeps the engine's own replay cost measured. One
//! invariant to keep in mind: `config.policy` must not change mid-run (the
//! index assumes placement decisions were made under the same policy —
//! `SchedConfig` is documented immutable per run).
//!
//! # What a cycle memoizes, and what invalidates it
//!
//! `state_version` moves on every claim, release, failure, repair, node
//! add and partition add — anything that could change a placement or
//! shadow answer. The memos key on it:
//!
//! * **blocked head** (`ClassState::head_memo`, `(head, version,
//!   shadow)`): a blocked head stays blocked while the version and the
//!   class's selected head are unchanged, so an arrival skips the
//!   placement attempt; with backfill off the cycle returns before it
//!   reads the head's spec (the arrival-flood fast path). The EASY shadow
//!   rides in the same entry: it is a pure function of the head's spec,
//!   node state and the running set, in absolute time, so a later `now`
//!   keeps it;
//! * **failed backfill placements** (`backfill_fails`): a candidate that
//!   found no placement at this version finds none until it moves;
//! * **calendar** (`ClassState::calendar`): a plan is valid for
//!   `(state_version, queue_seq, queue_shrink_epoch)` — any claim or
//!   release, any arrival, any departure (`cancel` moves only the last).
//!   A refresh at the same `state_version` whose top-K is unchanged
//!   re-tags the standing plan instead of re-planning.
//!
//! The head's `Σ fit` (`head_fit`) is not a memo: `mirror_update` and
//! `add_node` keep it exact on every capacity change, and a partition add
//! drops it. Partitions are append-only ([`PartitionTable::add`] is the
//! table's one mutator), so no capacity copy needs a version or a lazy
//! rebuild: a class plans over the one row array, gathered through its
//! member set at plan time.
//!
//! # The policy plane
//!
//! Three opt-in knobs layer scheduling *policy* over the same cycle. All
//! default **off**, which leaves one class in FIFO order.
//!
//! * **`fair_share`** — the queue splits into per-partition classes
//!   (indexed by the dense [`ClassId`] that
//!   [`crate::partition::PartitionTable::resolve_class`] interns each
//!   partition to), each selecting its head by the owner's *decayed
//!   usage* in that partition ([`crate::accounting::FairShareLedger`],
//!   charged on every completion and preemption) with FIFO tie-break.
//!   Every partition gets its own head + shadow + backfill pass per
//!   cycle, so one partition's backlog no longer head-of-line-blocks
//!   another partition's dispatch or backfill budget.
//! * **`preemption`** — jobs carry a [`crate::job::QosClass`]; when a
//!   latency-sensitive head cannot place, the engine kills-and-requeues
//!   the cheapest set of strictly-lower-class victims (cost = remaining
//!   core-seconds) whose release provably frees enough capacity (the same
//!   per-node fit-sum argument the shadow uses). Victims leave through the
//!   **full separation epilog** — the scrub/cleanup events fire before the
//!   preemptor's allocation, so the paper's guarantees survive urgency —
//!   and re-enter the queue with a bumped run epoch (stale end events are
//!   ignored).
//! * **`reservations = K`** — the EASY shadow generalizes into a
//!   [`crate::calendar::ReservationCalendar`]: the top-K queued jobs get
//!   planned starts with concrete capacity holds, `earliest_start`
//!   becomes answerable for them, and backfill turns *conservative* (a
//!   candidate must not collide with any held reservation, not just the
//!   head's shadow).
//!
//! Calendars build from the same capacity rows as the shadow, gathered
//! through the class's partition. Like `policy`, the knobs and the
//! partition table are immutable once jobs are queued: a queued job keeps
//! the class its partition resolved to at enqueue.
//!
//! Each class's bookkeeping is one `ClassState` (`class.rs`) in a `Vec`
//! indexed by [`ClassId`]: a job's class is resolved once, when it is
//! enqueued, and a cycle then pays for what changed — the head is the
//! first entry of an ordered index kept current on enqueue/dequeue/charge,
//! the backfill window is one forward walk of the class FIFO, and a
//! calendar rebuild plans out of reusable scratch. No partition name is
//! cloned, compared or allocated inside a cycle.

use crate::accounting::FairShareLedger;
use crate::calendar::{CapDelta, PlanCtx, PlanScratch, Reservation};
use crate::class::{ClassState, Queued};
use crate::job::{Job, JobId, JobSpec, JobState, TaskAlloc};
use crate::node::{NodeState, SchedNode};
use crate::obs::SchedObs;
use crate::partition::{ClassId, PartitionError, PartitionTable};
use crate::policy::NodeSharing;
use crate::privatedata::{may_view, JobView, PrivateData};
use crate::table::{slot_of, NodeSet, NodeTable};
use eus_obs::TraceCtx;
use eus_simcore::{Counter, Histogram, SimDuration, SimTime, TimeWeighted};
use eus_simos::{Credentials, NodeId, Uid};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::Bound;
use std::sync::Arc;

/// How many queued jobs behind a blocked head backfill may consider.
pub const BACKFILL_DEPTH: usize = 64;

/// How long a crashed node stays down before rejoining.
pub const REPAIR_TIME: SimDuration = SimDuration::from_secs(600);

/// Scheduler configuration. Immutable once jobs are queued. Every field
/// tunes the one scheduling cycle; `fair_share`, `preemption` and
/// `reservations` (the policy plane) default off, which is plain FCFS +
/// EASY over one whole-cluster FIFO.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Node-sharing policy. Must not change once jobs have run — the
    /// placement index assumes all standing allocations were admitted under
    /// this policy.
    pub policy: NodeSharing,
    /// Enable EASY backfill ([`BACKFILL_DEPTH`] candidates deep).
    pub backfill: bool,
    /// View filtering.
    pub private_data: PrivateData,
    /// Policy plane: one scheduling class per partition, each selecting
    /// its head over the decayed usage ledger. Off = one whole-cluster
    /// class in strict FIFO order (the reference behavior).
    pub fair_share: bool,
    /// Half-life of the fair-share usage decay (ignored unless
    /// `fair_share`).
    pub fair_share_half_life: SimDuration,
    /// Policy plane: QoS preemption — latency-sensitive heads may
    /// kill-and-requeue strictly-lower-class running jobs. Off = QoS
    /// classes carried but ignored.
    pub preemption: bool,
    /// Policy plane: conservative-backfill reservation depth. `K > 0`
    /// plans starts for the top-K queued jobs per class and forbids
    /// backfill from colliding with any of them; `0` = plain EASY (head
    /// shadow only).
    pub reservations: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            policy: NodeSharing::Shared,
            backfill: true,
            private_data: PrivateData::open(),
            fair_share: false,
            fair_share_half_life: crate::accounting::FAIR_SHARE_HALF_LIFE,
            preemption: false,
            reservations: 0,
        }
    }
}

/// Internal event kinds. `JobEnd` carries the run epoch it was scheduled
/// for: a preempted-and-requeued job bumps its epoch, so the stale end
/// event from the killed run is ignored when it eventually fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Submit(JobId),
    JobEnd(JobId, u32),
    NodeFail(NodeId),
    NodeRepair(NodeId),
}

/// Work the epilog must do after a job leaves a node; consumed by the
/// cluster layer (GPU scrub, process cleanup, device perms — Sec. IV-F).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpilogEvent {
    /// The job that ended.
    pub job: JobId,
    /// Its owner.
    pub user: Uid,
    /// The node it ran on.
    pub node: NodeId,
    /// GPUs it held on that node (each needs a scrub).
    pub gpus: u32,
    /// When it ended.
    pub at: SimTime,
    /// False once the user holds nothing else on that node — the epilog may
    /// then kill stray processes and revoke device access.
    pub user_still_active_on_node: bool,
}

/// One preemption: who was displaced, by whom, when, and where. The
/// victim's separation epilogs (node scrub, process cleanup) are emitted at
/// `at`, *before* the preemptor's allocation lands on the same nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreemptionRecord {
    /// The displaced (killed-and-requeued) job.
    pub victim: JobId,
    /// Its owner.
    pub victim_user: Uid,
    /// The latency-sensitive job that displaced it.
    pub preempted_by: JobId,
    /// When.
    pub at: SimTime,
    /// Nodes the victim held (each received an epilog).
    pub nodes: Vec<NodeId>,
}

/// A node-failure record for blast-radius accounting (experiment E5).
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The node that went down.
    // analyze:allow(dead-pub): the failed node of a blast-radius record an operator reads
    pub node: NodeId,
    /// When.
    // analyze:allow(dead-pub): the instant of a blast-radius record an operator reads
    pub at: SimTime,
    /// Jobs killed, with their owners.
    pub failed_jobs: Vec<(JobId, Uid)>,
}

impl FailureRecord {
    /// Distinct users whose jobs died — the paper's "blast radius".
    // analyze:allow(dead-pub): the distinct users a node failure took down, the paper's blast radius (Sec. IV-B)
    pub fn affected_users(&self) -> BTreeSet<Uid> {
        self.failed_jobs.iter().map(|(_, u)| *u).collect()
    }
}

/// Aggregate scheduler measurements.
#[derive(Debug, Clone)]
pub struct SchedMetrics {
    /// Cores *claimed* by allocations, integrated over time (an exclusive
    /// job claims whole nodes).
    pub busy_cores: TimeWeighted,
    /// Cores actually *used* by tasks (tasks × cpus-per-task), integrated
    /// over time — the quantity behind the paper's "poor utilization" claim
    /// for exclusive allocation.
    pub used_cores: TimeWeighted,
    /// Queue-wait times, in seconds.
    pub wait_times: Histogram,
    /// Jobs completed normally.
    pub completed: Counter,
    /// Jobs killed by failures.
    pub failed: Counter,
    /// Jobs killed at their wall-time limit.
    pub timed_out: Counter,
}

/// One node's capacity row: the free counters and the bits admissibility
/// depends on, derived from the `SchedNode` slot by `mirror_update`. The
/// placement walk reads it in place; the EASY shadow replay, the calendar
/// and the preemption proof work on copies. `Copy`, so building a shadow is
/// a flat memcpy-style pass — no `SchedNode` clones, no nested maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShadowNode {
    pub(crate) id: NodeId,
    pub(crate) free_cores: u32,
    pub(crate) free_mem_mib: u64,
    pub(crate) free_gpus: u32,
    pub(crate) jobs: u32,
    pub(crate) owner: Option<Uid>,
    up: bool,
}

impl ShadowNode {
    fn from_node(n: &SchedNode) -> Self {
        ShadowNode {
            id: n.id,
            free_cores: n.free_cores(),
            free_mem_mib: n.free_mem_mib(),
            free_gpus: n.free_gpus(),
            jobs: n.running.len() as u32,
            owner: n.owner(),
            up: n.state == NodeState::Up,
        }
    }

    // analyze:hot-path-begin(sched-shadow-fit)
    /// Tasks of `spec` this node could host right now — the one fit
    /// routine the engine runs, equal to the test oracle's `node_admits` +
    /// `tasks_that_fit` (capped at `u32::MAX` like them).
    pub(crate) fn fit(&self, spec: &JobSpec, policy: NodeSharing) -> u64 {
        if !self.up {
            return 0;
        }
        if (matches!(policy, NodeSharing::Exclusive) || spec.request_exclusive) && self.jobs > 0 {
            return 0;
        }
        if matches!(policy, NodeSharing::WholeNodeUser) {
            if let Some(owner) = self.owner {
                if owner != spec.user {
                    return 0;
                }
            }
        }
        let by_cores = (self.free_cores / spec.cpus_per_task.max(1)) as u64;
        let by_mem = self
            .free_mem_mib
            .checked_div(spec.mem_per_task_mib)
            .map_or(u32::MAX as u64, |n| n.min(u32::MAX as u64));
        let by_gpus = self
            .free_gpus
            .checked_div(spec.gpus_per_task)
            .map_or(u32::MAX, |n| n) as u64;
        by_cores.min(by_mem).min(by_gpus)
    }

    /// Fold one allocation's release into this shadow entry, keeping the
    /// caller's running total-fit exact. This is the single primitive the
    /// EASY shadow replay and the preemption feasibility proof both build
    /// on — the "placement exists ⟺ Σ per-node fit ≥ tasks" invariant
    /// lives here and nowhere else.
    fn fold_release(
        &mut self,
        alloc: &TaskAlloc,
        spec: &JobSpec,
        policy: NodeSharing,
        total: &mut u64,
    ) {
        *total -= self.fit(spec, policy);
        self.free_cores += alloc.cores;
        self.free_mem_mib += alloc.mem_mib;
        self.free_gpus += alloc.gpus;
        self.jobs -= 1;
        if self.jobs == 0 {
            self.owner = None;
        }
        *total += self.fit(spec, policy);
    }
    // analyze:hot-path-end
}

/// A class's view of the one row array: every row for the whole cluster
/// (`members = None`), else the members' rows in ascending id order,
/// skipping ids not yet added. The head's fit sum, the calendar's gather
/// and the preemption proof all read a class through it.
pub(crate) fn class_rows<'a>(
    rows: &'a [ShadowNode],
    members: Option<&'a BTreeSet<NodeId>>,
) -> impl Iterator<Item = &'a ShadowNode> {
    let all = if members.is_none() { rows } else { &[] };
    let named = members.into_iter().flatten();
    named.filter_map(|nid| rows.get(slot_of(*nid))).chain(all)
}

/// A running job's allocations, frozen at start (immutable while it runs).
type RunAllocs = Box<[(NodeId, TaskAlloc)]>;

/// The scheduler.
#[derive(Debug)]
pub struct Scheduler {
    /// Configuration (immutable per run for clean experiments).
    pub config: SchedConfig,
    /// Compute nodes: dense slots, the one authoritative copy of each
    /// node's capacity (`shadow_mirror` is derived from it).
    pub nodes: NodeTable,
    /// Every job ever submitted.
    pub jobs: BTreeMap<JobId, Job>,
    /// Job → its key in its class FIFO, `u64::MAX` = not queued. Job ids
    /// are dense (assigned sequentially at submit), so this is a flat slab
    /// indexed by `JobId.0` — O(1) instead of a 100k-entry tree probe on
    /// every dequeue at storm scale.
    queue_pos: Vec<u64>,
    /// The next enqueue key: keys rise in arrival order, so every class
    /// FIFO iterates in enqueue order.
    queue_seq: u64,
    /// Running jobs keyed by scheduled end time (`started + duration`, the
    /// EASY assumption), carrying a compact snapshot of each job's
    /// allocations (immutable while the job runs) — the shadow replay
    /// walks this in order and reads the allocations inline, with no
    /// per-release `jobs` map lookup and no per-cycle collect + sort.
    running_ends: BTreeMap<(SimTime, JobId), RunAllocs>,
    // ---- placement index, maintained on every claim/release ----
    /// Up nodes with zero running jobs (bitmap, ascending-id iteration).
    idle_nodes: NodeSet,
    /// Up nodes with at least one free core (bitmap, ascending-id
    /// iteration).
    avail_nodes: NodeSet,
    /// Per-user sets of nodes the user *solely* owns (packing affinity).
    owned_nodes: BTreeMap<Uid, BTreeSet<NodeId>>,
    // ---- reusable scan scratch (allocation-free steady state) ----
    /// Victim-scan scratch for `try_preempt_for` (reused across calls).
    scan_scratch: Vec<ShadowNode>,
    /// One capacity row per node (`slot = id − 1`), derived from the slot
    /// in `nodes` on every claim/release/fail/repair. Placement reads it in
    /// place; the partition-free shadow build is a flat copy of it.
    shadow_mirror: Vec<ShadowNode>,
    /// Epoch-stamped shadow overlay (dense, `slot = id − 1`): a replay
    /// first-touch copies each node it releases on from `shadow_mirror`
    /// into `shadow_overlay` (stamping `shadow_stamp` with the replay's
    /// epoch), so a replay costs O(touched releases) instead of an
    /// O(nodes) mirror copy. Entries with a stale stamp are dead.
    shadow_overlay: Vec<ShadowNode>,
    /// Per-slot epoch of the last replay that touched it.
    shadow_stamp: Vec<u64>,
    /// Monotonic replay counter for the overlay stamps.
    shadow_epoch: u64,
    /// Bumped on every claim/release/fail/repair/add — anything that could
    /// change a placement or shadow answer. Every cycle memo keys on it.
    state_version: u64,
    /// Backfill candidates whose placement failed at `.0 == state_version`
    /// — valid until any claim/release (the set is cleared when the
    /// version moves). Saves re-walking the candidate window per arrival.
    backfill_fails: (u64, BTreeSet<JobId>),
    /// Bumped whenever a job *leaves* the pending queue (start, backfill,
    /// cancel). `cancel` removes without touching `state_version`, so the
    /// calendar key counts departures here.
    queue_shrink_epoch: u64,
    /// Decayed per-(class, user) usage: the fair-share input (empty while
    /// `fair_share` is off).
    ledger: FairShareLedger,
    /// Per-class state, indexed by [`ClassId`] and grown when a class
    /// first receives a job: FIFO and head indexes, calendar, blocked-head
    /// memo. Under `fair_share` a job queues in its partition's class;
    /// otherwise every job queues in [`ClassId::GLOBAL`].
    classes: Vec<ClassState>,
    /// Job → the class its partition resolved to when it was enqueued
    /// ([`ClassId::GLOBAL`] = whole cluster), a flat slab like
    /// `queue_pos`.
    job_class: Vec<ClassId>,
    /// Run epoch per job; bumped on preemption so stale `JobEnd` events
    /// from the killed run are ignored. Absent = epoch 0 (never preempted).
    run_epochs: BTreeMap<JobId, u32>,
    /// Preemption history (who displaced whom, when, where).
    pub preemptions: Vec<PreemptionRecord>,
    /// Calendar-planning scratch (top-K list, capacity/fit/window vectors).
    plan_scratch: PlanScratch,
    /// The classes one fair-share cycle visits (reused across cycles).
    cycle_classes: Vec<ClassId>,
    /// Incrementally-maintained total task-fit for the current head
    /// (`Σ fit` over its eligible nodes), updated on every claim/release/
    /// fail/repair delta — drops the remaining O(nodes) initial sum from
    /// each shadow compute.
    head_fit: Option<HeadFit>,
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
    /// Partition table (empty = partitioning disabled, all nodes eligible).
    /// Private so every mutation goes through [`Scheduler::partitions_mut`],
    /// which invalidates the placement/shadow memos — eligibility is part
    /// of what they cache.
    partitions: PartitionTable,
    admins: BTreeSet<Uid>,
    /// Observability: phase spans, memo/backfill/preemption counters, and
    /// the flight recorder. Disabled by default (every record call is one
    /// never-taken branch); [`Scheduler::enable_obs`] turns it on. Pure
    /// measurement — never consulted by a scheduling decision.
    pub obs: SchedObs,
    /// Submission trace contexts awaiting dispatch, recorded by
    /// [`Scheduler::note_submit_trace`]. Empty unless tracing is on —
    /// start-site lookup is then one `is_empty` branch — and never
    /// consulted by a scheduling decision.
    submit_traces: BTreeMap<JobId, TraceCtx>,
}

/// The head whose total task-fit is being maintained incrementally.
#[derive(Debug)]
struct HeadFit {
    job: JobId,
    spec: Arc<JobSpec>,
    /// The class the head's partition resolved to
    /// ([`ClassId::GLOBAL`] = whole cluster).
    part: ClassId,
    /// `Σ fit(spec)` over the head's eligible nodes, kept exact by
    /// [`Scheduler::mirror_update`].
    total: u64,
}

impl HeadFit {
    /// Is `nid` in the head's scope (its partition, or every node)?
    fn covers(&self, partitions: &PartitionTable, nid: NodeId) -> bool {
        partitions
            .class_nodes(self.part)
            .is_none_or(|nodes| nodes.contains(&nid))
    }
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new(config: SchedConfig) -> Self {
        let ledger = FairShareLedger::new(config.fair_share_half_life);
        Scheduler {
            config,
            nodes: NodeTable::default(),
            jobs: BTreeMap::new(),
            queue_pos: Vec::new(),
            queue_seq: 0,
            running_ends: BTreeMap::new(),
            idle_nodes: NodeSet::new(),
            avail_nodes: NodeSet::new(),
            owned_nodes: BTreeMap::new(),
            scan_scratch: Vec::new(),
            shadow_mirror: Vec::new(),
            shadow_overlay: Vec::new(),
            shadow_stamp: Vec::new(),
            shadow_epoch: 0,
            state_version: 0,
            backfill_fails: (0, BTreeSet::new()),
            queue_shrink_epoch: 0,
            ledger,
            classes: Vec::new(),
            job_class: Vec::new(),
            run_epochs: BTreeMap::new(),
            preemptions: Vec::new(),
            plan_scratch: PlanScratch::default(),
            cycle_classes: Vec::new(),
            head_fit: None,
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
            obs: SchedObs::disabled(),
            submit_traces: BTreeMap::new(),
        }
    }

    /// Turn on (or reconfigure) observability. Replaces the standing
    /// recorder, so counters restart from zero. Recording never influences
    /// scheduling decisions — `tests/sched_equivalence.rs` pins the engine
    /// against the reference with instrumentation compiled in.
    pub fn enable_obs(&mut self, cfg: eus_obs::ObsConfig) {
        self.obs = SchedObs::new(&cfg);
    }

    /// Attach the causal context a traced submission arrived with; the
    /// dispatch that eventually starts the job records a
    /// `sched.job.dispatch` span under it. No-op for quiet contexts or a
    /// disabled trace ring, so untraced submissions stay free.
    pub fn note_submit_trace(&mut self, id: JobId, ctx: TraceCtx) {
        if !ctx.is_none() && self.obs.trace.enabled() {
            self.submit_traces.insert(id, ctx);
        }
    }

    /// Add a node with auto-assigned id.
    pub fn add_node(&mut self, cores: u32, mem_mib: u64, gpus: u32) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.push(SchedNode::new(id, cores, mem_mib, gpus));
        self.idle_nodes.insert(id);
        if cores > 0 {
            self.avail_nodes.insert(id);
        }
        let sn = ShadowNode::from_node(&self.nodes[&id]);
        self.shadow_mirror.push(sn);
        // Overlay scratch grows in lockstep with the mirror (stale stamp ⇒
        // the placeholder entry is never read).
        self.shadow_overlay.push(sn);
        self.shadow_stamp.push(0);
        // A partition may name the id before the node joins, so the new
        // row widens a partitioned head's scope too.
        if let Some(hf) = &mut self.head_fit {
            if hf.covers(&self.partitions, id) {
                hf.total += sn.fit(&hf.spec, self.config.policy);
            }
        }
        self.state_version += 1;
        id
    }

    /// Refresh one node's capacity row and the maintained head total-fit.
    /// Every capacity transition (claim/release/fail/repair) funnels
    /// through here, which is what lets shadow builds start from the row
    /// and a ready-made sum instead of an O(nodes) walk.
    fn mirror_update(&mut self, nid: NodeId) {
        let sn = ShadowNode::from_node(&self.nodes[&nid]);
        let idx = slot_of(nid);
        let old = std::mem::replace(&mut self.shadow_mirror[idx], sn);
        if let Some(hf) = &mut self.head_fit {
            if hf.covers(&self.partitions, nid) {
                let policy = self.config.policy;
                hf.total = hf.total + sn.fit(&hf.spec, policy) - old.fit(&hf.spec, policy);
            }
        }
    }

    /// The state of `class`, created (and named in the ledger) on first
    /// use. Ids are dense, so this also creates any class below it.
    fn class_mut(&mut self, class: ClassId) -> &mut ClassState {
        while self.classes.len() <= class.index() {
            if let Some(c) = ClassId::from_index(self.classes.len()) {
                self.ledger.bind(c, self.partitions.class_name(c));
            }
            self.classes.push(ClassState::default());
        }
        &mut self.classes[class.index()]
    }

    /// Register an operator/coordinator exempt from PrivateData filtering.
    // analyze:allow(dead-pub): registers an operator whom PrivateData and pam_slurm exempt (paper Sec. IV-B)
    pub fn add_admin(&mut self, uid: Uid) {
        self.admins.insert(uid);
    }

    /// Is this uid a registered operator?
    pub fn is_admin(&self, uid: Uid) -> bool {
        self.admins.contains(&uid)
    }

    /// Mutable access to the partition table. Changing partitions changes
    /// which nodes are eligible, so the memoized placement/shadow answers
    /// and the maintained head fit are invalidated here. Configure
    /// partitions *before* jobs queue — a queued job keeps the partition
    /// class it resolved to at enqueue (its class FIFO, placement scope and
    /// shadow scope follow it).
    pub fn partitions_mut(&mut self) -> &mut PartitionTable {
        self.state_version += 1;
        self.head_fit = None;
        &mut self.partitions
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sum of all Up nodes' cores.
    pub fn total_cores(&self) -> u64 {
        self.nodes.values().map(|n| n.cores as u64).sum()
    }

    /// Claimed-core utilization over `[0, now]`: allocated core-seconds /
    /// capacity. Exclusive jobs inflate this (they claim whole nodes).
    pub fn utilization(&self) -> f64 {
        let cap = self.total_cores() as f64 * self.now.since(SimTime::ZERO).as_secs_f64();
        if cap <= 0.0 {
            return 0.0;
        }
        self.metrics.busy_cores.integral(self.now) / cap
    }

    /// Effective utilization over `[0, now]`: core-seconds actually used by
    /// tasks / capacity. This is the number that collapses under per-job
    /// exclusive allocation with many small jobs (Sec. IV-B).
    pub fn effective_utilization(&self) -> f64 {
        let cap = self.total_cores() as f64 * self.now.since(SimTime::ZERO).as_secs_f64();
        if cap <= 0.0 {
            return 0.0;
        }
        self.metrics.used_cores.integral(self.now) / cap
    }

    /// Number of jobs waiting in queue.
    pub fn pending_count(&self) -> usize {
        self.classes.iter().map(|cs| cs.fifo.len()).sum()
    }

    /// Number of running jobs. O(1).
    pub fn running_count(&self) -> usize {
        self.running_ends.len()
    }

    /// The fair-share usage ledger (read-only; populated only while
    /// `config.fair_share` is on).
    // analyze:allow(dead-pub): the sshare-style read of fair-share usage
    pub fn fair_share_ledger(&self) -> &FairShareLedger {
        &self.ledger
    }

    /// Every reservation currently held by the calendar(s), valid for the
    /// present engine state. Empty unless `config.reservations > 0` and a
    /// scheduling cycle has planned since the last state change.
    // analyze:allow(dead-pub): the reservation calendar an operator inspects (scontrol show reservation)
    pub fn held_reservations(&self) -> Vec<Reservation> {
        let key = self.calendar_key();
        self.partitions
            .classes()
            .filter_map(|c| self.classes.get(c.index()))
            .filter(|cs| cs.calendar.built_version == Some(key))
            .flat_map(|cs| cs.calendar.reservations.iter().cloned())
            .collect()
    }

    /// What a calendar plan is valid for: no claim or release
    /// (`state_version`), no arrival (`queue_seq`) and no departure
    /// (`queue_shrink_epoch` — `cancel` moves nothing else) since.
    fn calendar_key(&self) -> (u64, u64, u64) {
        (self.state_version, self.queue_seq, self.queue_shrink_epoch)
    }

    /// The class a job's partition resolves to: remembered from enqueue
    /// for a queued job (its class FIFO was keyed by it), looked up for
    /// one still to arrive. `None` = the job names a partition unknown
    /// today.
    fn job_scope(&self, job: JobId, spec: &JobSpec) -> Option<ClassId> {
        let queued = self
            .queue_pos
            .get(job.0 as usize)
            .is_some_and(|&k| k != u64::MAX);
        if queued {
            return Some(self.queued_scope(job));
        }
        self.partitions
            .resolve_class(spec.partition.as_deref())
            .ok()
    }

    /// The class a job of partition class `scope` queues in.
    fn sched_class(&self, scope: ClassId) -> ClassId {
        if self.config.fair_share {
            scope
        } else {
            ClassId::GLOBAL
        }
    }

    /// Answer "when will this job start?" — the question EASY alone cannot
    /// answer for anything but the head.
    ///
    /// * running / finished jobs → their actual start;
    /// * queued jobs inside the reservation calendar's top-K → the planned
    ///   (queue-aware) reserved start;
    /// * queued jobs beyond the top-K (reservations on) → a one-off probe
    ///   reservation planned against the standing calendar profile — still
    ///   queue-aware (every hold ahead of the job is charged), visible as
    ///   `sched.calendar.probes` under the `sched.calendar.plan` span;
    /// * other queued jobs (reservations off) → the optimistic bound from
    ///   a generalized shadow replay of this spec alone (ignores queued
    ///   work ahead);
    /// * cancelled jobs → `None`.
    // analyze:allow(dead-pub): squeue --start: when a queued job will run
    pub fn earliest_start(&mut self, job: JobId) -> Option<SimTime> {
        let j = self.jobs.get(&job)?;
        if j.state != JobState::Pending {
            return j.started;
        }
        let spec = Arc::clone(&j.spec);
        let scope = self.job_scope(job, &spec)?;
        let class = self.sched_class(scope);
        if self.config.reservations > 0 {
            if let Some(head) = self.select_head(class) {
                self.rebuild_calendar(class, head);
                let held = self.classes.get(class.index())?.calendar.get(job);
                if let Some(r) = held {
                    return Some(r.start);
                }
                // Beyond the top-K: plan a one-off probe reservation on
                // top of the finished profile (all held starts charged),
                // instead of the optimistic single-job shadow bound. The
                // probe is read-only — nothing is held for the job.
                let tok = self.obs.rec.span_start();
                let planned = self.plan_probe(class, scope, &spec);
                self.obs.rec.incr(self.obs.c_cal_probes);
                self.obs.rec.span_end(self.obs.sp_calendar, tok);
                if planned.is_some() {
                    return planned;
                }
                // Fits at no anchor (too big to ever start): fall through
                // — the shadow probe reports the same `MAX` answer.
            }
        }
        Some(self.shadow_time_scoped(job, &spec, scope, false))
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse((at, seq, ev)));
    }

    /// Submit a job to arrive at `at` (clamped to now). Jobs naming an
    /// unknown partition are rejected at submission (state `Cancelled`),
    /// mirroring Slurm's submit-time validation.
    pub fn submit_at(&mut self, at: SimTime, spec: JobSpec) -> JobId {
        self.submit_at_shared(at, Arc::new(spec))
    }

    /// Submit an already-shared spec. Trace replay and fan-out experiments
    /// use this to hand the same `Arc<JobSpec>` to several schedulers
    /// without a deep copy per submission.
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

    /// Cancel a pending job (running jobs run to completion, as `scancel`
    /// would need the full kill path we don't model). The departure moves
    /// `queue_shrink_epoch`, which the calendar memo keys on: a
    /// reservation held for the cancelled job is not served again.
    // analyze:allow(dead-pub): scancel: a user withdraws a pending job
    pub fn cancel(&mut self, id: JobId) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if job.state != JobState::Pending {
            return false;
        }
        job.state = JobState::Cancelled;
        job.ended = Some(self.now);
        self.dequeue(id);
        true
    }

    /// The QoS band a job queues in: highest class iterates first, FIFO
    /// inside a band — collapsed to one band when preemption (band-major
    /// dispatch) is off.
    fn band(&self, spec: &JobSpec) -> u8 {
        if self.config.preemption {
            255 - spec.qos.rank()
        } else {
            0
        }
    }

    /// Append a pending job to its class's tail: the FIFO, plus the
    /// fair-share per-user queues + head index and the QoS band index as
    /// the knobs ask.
    fn enqueue(&mut self, id: JobId, spec: &JobSpec) {
        let key = self.queue_seq;
        self.queue_seq += 1;
        let idx = id.0 as usize;
        if self.queue_pos.len() <= idx {
            self.queue_pos.resize(idx + 1, u64::MAX);
            self.job_class.resize(idx + 1, ClassId::GLOBAL);
        }
        self.queue_pos[idx] = key;
        // The one place a job's partition name is looked up: everything
        // downstream indexes by the class.
        let scope = self
            .partitions
            .resolve_class(spec.partition.as_deref())
            .expect("validated at submit");
        self.job_class[idx] = scope;
        let q = Queued {
            job: id,
            time_limit: spec.time_limit,
            user: spec.user,
            band: self.band(spec),
        };
        let class = self.sched_class(scope);
        let (fair_share, preemption) = (self.config.fair_share, self.config.preemption);
        self.class_mut(class);
        let Scheduler {
            classes, ledger, ..
        } = self;
        if let Some(cs) = classes.get_mut(class.index()) {
            cs.push(key, q, fair_share, preemption, || {
                ledger.score_class(class, q.user)
            });
        }
    }

    /// Remove a job from its class (start, cancel).
    fn dequeue(&mut self, id: JobId) {
        let Some(key) = self
            .queue_pos
            .get_mut(id.0 as usize)
            .filter(|k| **k != u64::MAX)
            .map(|k| std::mem::replace(k, u64::MAX))
        else {
            return;
        };
        // `cancel` reaches here without a `state_version` bump, so the
        // calendar key counts departures here.
        self.queue_shrink_epoch += 1;
        let class = self.sched_class(self.queued_scope(id));
        if let Some(cs) = self.classes.get_mut(class.index()) {
            cs.remove(key);
        }
    }

    /// This job's current run epoch (0 = never preempted).
    fn run_epoch(&self, id: JobId) -> u32 {
        self.run_epochs.get(&id).copied().unwrap_or(0)
    }

    /// Inject a node crash at `at` (the OOM-takes-down-the-node scenario of
    /// Sec. IV-B). The node repairs after [`REPAIR_TIME`].
    // analyze:allow(dead-pub): operator fault drill: crash a node (Sec. IV-B's OOM scenario, the chaos plane's NodeCrash)
    pub fn schedule_node_failure(&mut self, at: SimTime, node: NodeId) {
        self.push_event(at, Ev::NodeFail(node));
    }

    /// Drain accumulated epilog work (cluster layer consumes).
    pub fn drain_epilogs(&mut self) -> Vec<EpilogEvent> {
        std::mem::take(&mut self.epilogs)
    }

    /// Does `user` have a running job with an allocation on `node`? (The
    /// `pam_slurm` question.) O(log) via the node's per-user job counts.
    pub fn has_running_job_on(&self, user: Uid, node: NodeId) -> bool {
        self.nodes.get(&node).is_some_and(|n| n.has_user(user))
    }

    /// `squeue` as seen by `viewer` under the PrivateData configuration.
    /// Rows are views over the shared spec — no name/cmdline deep clones.
    pub fn squeue(&self, viewer: &Credentials) -> Vec<JobView> {
        let admin = self.is_admin(viewer.uid);
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

    /// Fire events up to and including `horizon`; the clock lands on
    /// `horizon` afterwards.
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

    /// Run until no events remain (all submitted work finished). Returns the
    /// final clock (the makespan end).
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
                // One jobs-map probe per event: at storm scale the map holds
                // every submission and each lookup walks a deep tree.
                let job = &self.jobs[&j];
                if job.state == JobState::Pending {
                    self.obs
                        .rec
                        .event(self.now, "job.submit", j.0, job.spec.tasks as u64, 0);
                    let spec = Arc::clone(&job.spec);
                    self.enqueue(j, &spec);
                    self.try_schedule();
                }
            }
            Ev::JobEnd(j, epoch) => {
                // A stale end event from a preempted (killed) run carries
                // the old epoch and is ignored; the requeued run pushed its
                // own end event.
                let job = &self.jobs[&j];
                if job.state == JobState::Running && self.run_epoch(j) == epoch {
                    // Did the job end on its own, or did slurmstepd kill it
                    // at the wall-time limit?
                    let outcome = if job.spec.time_limit < job.spec.duration {
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
                        self.obs
                            .rec
                            .event(self.now, "node.repair", n.0 as u64, 0, 0);
                        self.state_version += 1;
                        // Everything on it died at failure time, so it
                        // rejoins idle.
                        if node.is_idle() {
                            self.idle_nodes.insert(n);
                        }
                        if node.free_cores() > 0 {
                            self.avail_nodes.insert(n);
                        }
                        self.mirror_update(n);
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
        self.state_version += 1;
        self.idle_nodes.remove(&n);
        self.avail_nodes.remove(&n);
        let victims: Vec<JobId> = self.nodes[&n].running.keys().copied().collect();
        self.mirror_update(n);
        let mut record = FailureRecord {
            node: n,
            at: self.now,
            failed_jobs: Vec::new(),
        };
        self.obs
            .rec
            .event(self.now, "node.fail", n.0 as u64, victims.len() as u64, 0);
        for j in victims {
            let user = self.jobs[&j].spec.user;
            record.failed_jobs.push((j, user));
            self.finish_job(j, JobState::Failed);
        }
        self.failures.push(record);
        self.push_event(self.now + REPAIR_TIME, Ev::NodeRepair(n));
    }

    // ------------------------------------------------------------------
    // Index maintenance: every resource transition funnels through these.
    // ------------------------------------------------------------------

    /// Move a node between per-user owned sets when its sole owner changed.
    fn reindex_owner(&mut self, nid: NodeId, prev: Option<Uid>, new: Option<Uid>) {
        if prev == new {
            return;
        }
        if let Some(o) = prev {
            if let Some(set) = self.owned_nodes.get_mut(&o) {
                set.remove(&nid);
                if set.is_empty() {
                    self.owned_nodes.remove(&o);
                }
            }
        }
        if let Some(o) = new {
            self.owned_nodes.entry(o).or_default().insert(nid);
        }
    }

    /// Claim `alloc` on a node and keep the placement index current.
    fn claim_on(&mut self, nid: NodeId, job: JobId, alloc: TaskAlloc, user: Uid) {
        self.state_version += 1;
        let node = self.nodes.get_mut(&nid).expect("placement on known node");
        let prev_owner = node.owner();
        node.claim(job, alloc, user);
        let new_owner = node.owner();
        self.idle_nodes.remove(&nid);
        if node.free_cores() == 0 {
            self.avail_nodes.remove(&nid);
        }
        self.reindex_owner(nid, prev_owner, new_owner);
        self.mirror_update(nid);
    }

    /// Release a job's holdings on a node and keep the placement index
    /// current. A Down node's capacity returns but it rejoins no candidate
    /// set until repair.
    fn release_on(&mut self, nid: NodeId, job: JobId) -> Option<TaskAlloc> {
        self.state_version += 1;
        let node = self.nodes.get_mut(&nid)?;
        let prev_owner = node.owner();
        let alloc = node.release(job)?;
        let new_owner = node.owner();
        self.reindex_owner(nid, prev_owner, new_owner);
        let node = &self.nodes[&nid];
        if node.state == NodeState::Up {
            if node.free_cores() > 0 {
                self.avail_nodes.insert(nid);
            }
            if node.is_idle() {
                self.idle_nodes.insert(nid);
            }
        }
        self.mirror_update(nid);
        Some(alloc)
    }

    fn finish_job(&mut self, id: JobId, state: JobState) {
        let job = self.jobs.get_mut(&id).expect("known job");
        debug_assert_eq!(job.state, JobState::Running);
        job.state = state;
        job.ended = Some(self.now);
        let user = job.spec.user;
        let started = job.started.expect("running has start");
        let cpus_per_task = job.spec.cpus_per_task;
        let end_key = (started + job.spec.duration, id);
        // The running_ends snapshot is this job's allocations, taken at
        // dispatch and immutable since — reuse it instead of re-collecting
        // the map. Every terminal path arrives here with the entry present
        // (preemption removes it but requeues instead of finishing); the
        // fallback is defensive only.
        let allocations: Vec<(NodeId, TaskAlloc)> = match self.running_ends.remove(&end_key) {
            Some(snap) => snap.into_vec(),
            None => job.allocations.iter().map(|(n, a)| (*n, *a)).collect(),
        };
        let mut released_cores = 0u32;
        let mut released_used = 0u32;
        for (nid, alloc) in &allocations {
            if self.release_on(*nid, id).is_some() {
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
        self.obs.rec.incr(self.obs.c_finishes);
        let outcome = match state {
            JobState::Completed => 0,
            JobState::Failed => 1,
            JobState::Timeout => 2,
            _ => 3,
        };
        self.obs
            .rec
            .event(self.now, "job.end", id.0, outcome, released_cores as u64);
        self.charge_fair_share(id, user, released_cores, started);
        // Epilog per node, with the "is the user gone from this node" bit.
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

    /// Charge a run's consumed core-seconds to the fair-share ledger
    /// (no-op unless `fair_share` is on) and move the user's entries in
    /// the class's head index to the new score — or, when the charge
    /// rebased the ledger, rebuild every class's index: a rebase rescales
    /// every score the indexes hold by value.
    fn charge_fair_share(&mut self, id: JobId, user: Uid, cores: u32, started: SimTime) {
        if !self.config.fair_share {
            return;
        }
        let class = self.queued_scope(id);
        let now = self.now;
        let consumed = cores as f64 * now.since(started).as_secs_f64();
        let Scheduler {
            classes,
            ledger,
            partitions,
            ..
        } = self;
        if ledger.charge_class(class, user, consumed, now) {
            for c in partitions.classes() {
                if let Some(cs) = classes.get_mut(c.index()) {
                    cs.rebuild_heads(|u| ledger.score_class(c, u));
                }
            }
        } else if let Some(cs) = classes.get_mut(class.index()) {
            cs.rescore(user, ledger.score_class(class, user));
        }
    }

    fn start_job(&mut self, id: JobId, placement: Vec<(NodeId, TaskAlloc)>) {
        let now = self.now;
        let (user, duration, submitted, cpus_per_task, qos) = {
            let job = &self.jobs[&id];
            (
                job.spec.user,
                job.spec.duration,
                job.submitted,
                job.spec.cpus_per_task,
                job.spec.qos,
            )
        };
        let mut total_cores = 0u32;
        let mut used_cores = 0u32;
        for (nid, alloc) in &placement {
            self.claim_on(*nid, id, *alloc, user);
            total_cores += alloc.cores;
            used_cores += alloc.tasks * cpus_per_task;
        }
        // Snapshot in NodeId order — the same order the allocations map
        // iterates in — so every consumer (shadow replay, calendar profile,
        // finish-time epilogs) sees exactly what the map walk saw.
        let mut run_allocs: RunAllocs = placement.iter().copied().collect();
        run_allocs.sort_unstable_by_key(|&(n, _)| n);
        {
            let job = self.jobs.get_mut(&id).expect("known job");
            job.state = JobState::Running;
            job.started = Some(now);
            job.allocations = placement.into_iter().collect();
        }
        self.running_ends.insert((now + duration, id), run_allocs);
        self.obs.rec.incr(self.obs.c_starts);
        if !self.submit_traces.is_empty() {
            if let Some(ctx) = self.submit_traces.remove(&id) {
                let _ = self.obs.trace.hit(ctx, "sched.job.dispatch", now, id.0);
            }
        }
        self.obs.rec.event(
            now,
            "job.start",
            id.0,
            self.jobs[&id].allocations.len() as u64,
            total_cores as u64,
        );
        self.metrics.busy_cores.add(now, total_cores as f64);
        self.metrics.used_cores.add(now, used_cores as f64);
        let epoch = self.run_epoch(id);
        if epoch == 0 {
            // A preempted job's wait was recorded at its first dispatch;
            // requeue delay is preemption cost, not queue wait.
            self.metrics
                .wait_times
                .record(now.since(submitted).as_secs_f64());
            if qos == crate::job::QosClass::Interactive {
                self.obs.rec.add(
                    self.obs.c_interactive_wait_us,
                    now.since(submitted).as_micros(),
                );
                self.obs.rec.incr(self.obs.c_interactive_waits);
            }
        }
        // The step daemon enforces the requested wall-time limit.
        let runtime = duration.min(self.jobs[&id].spec.time_limit);
        self.push_event(now + runtime, Ev::JobEnd(id, epoch));
    }

    // ------------------------------------------------------------------
    // Placement over the incremental index
    // ------------------------------------------------------------------

    // analyze:hot-path-begin(sched-placement)
    /// The greedy per-node allocation, identical to the reference's.
    pub(crate) fn alloc_for(
        node: &SchedNode,
        spec: &JobSpec,
        policy: NodeSharing,
        fit: u32,
    ) -> TaskAlloc {
        if policy.charges_whole_node(spec) {
            // Exclusive: the job takes the whole node.
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
        }
    }

    /// Try to place `spec` using the maintained candidate index instead of
    /// scanning and sorting every node. Candidate order reproduces the old
    /// sort exactly: the user's solely-owned nodes first (packing
    /// affinity), then the policy-relevant remainder, both in id order.
    fn placement_for(
        &self,
        spec: &JobSpec,
        eligible: Option<&BTreeSet<NodeId>>,
    ) -> Option<Vec<(NodeId, TaskAlloc)>> {
        self.placement_walk(spec, eligible).0
    }

    /// The placement walk, also returning the *uncapped* `Σ fit` over every
    /// candidate it visited. On a failed walk that sum is exact over ALL
    /// eligible nodes — any node with positive fit is in the walked sets
    /// (owned ∪ source: `fit > 0` ⇒ free cores ⇒ avail on the shared path,
    /// idle otherwise — running jobs zero the fit under `Exclusive` /
    /// `--exclusive`, and a foreign owner zeroes it under `WholeNodeUser`)
    /// — so the caller can prime [`HeadFit`] without an O(nodes) sum.
    fn placement_walk(
        &self,
        spec: &JobSpec,
        eligible: Option<&BTreeSet<NodeId>>,
    ) -> (Option<Vec<(NodeId, TaskAlloc)>>, u64) {
        let user = spec.user;
        let policy = self.config.policy;
        let rows = &self.shadow_mirror;
        // Phase 2's "phase 1 already visited" test.
        let owned_by_user =
            |nid: NodeId| rows.get(slot_of(nid)).and_then(|row| row.owner) == Some(user);
        let mut remaining = spec.tasks;
        let mut fit_sum = 0u64;
        let mut placement = Vec::new();

        let mut try_node = |nid: NodeId, remaining: &mut u32, placement: &mut Vec<_>| {
            if eligible.is_some_and(|set| !set.contains(&nid)) {
                return;
            }
            let full = rows
                .get(slot_of(nid))
                .map_or(0, |row| row.fit(spec, policy));
            fit_sum += full;
            let fit = (full.min(u32::MAX as u64) as u32).min(*remaining);
            if fit == 0 {
                return;
            }
            let Some(node) = self.nodes.get(&nid) else {
                return; // stale index entry: node was removed this cycle
            };
            placement.push((nid, Self::alloc_for(node, spec, policy, fit)));
            *remaining -= fit;
        };

        // Phase 1: nodes this user solely owns (admissibility still checked
        // — under Exclusive / per-job --exclusive they are busy and refuse).
        if let Some(owned) = self.owned_nodes.get(&user) {
            for &nid in owned {
                if remaining == 0 {
                    break;
                }
                try_node(nid, &mut remaining, &mut placement);
            }
        }

        // Phase 2: the policy-relevant remainder. Under Shared (without a
        // per-job --exclusive) any Up node with free cores is admissible;
        // under every other policy only idle nodes are. Skip nodes already
        // visited in phase 1.
        if remaining > 0 {
            let shared_path = matches!(policy, NodeSharing::Shared) && !spec.request_exclusive;
            let source: &NodeSet = if shared_path {
                &self.avail_nodes
            } else {
                &self.idle_nodes
            };
            // Walk the smaller of (source, eligible); both are id-ordered
            // so candidate order is preserved either way.
            match eligible {
                Some(set) if set.len() < source.len() => {
                    for &nid in set {
                        if remaining == 0 {
                            break;
                        }
                        if !source.contains(&nid) {
                            continue;
                        }
                        if shared_path && owned_by_user(nid) {
                            continue; // phase 1 already visited
                        }
                        try_node(nid, &mut remaining, &mut placement);
                    }
                }
                _ => {
                    for nid in source.iter() {
                        if remaining == 0 {
                            break;
                        }
                        if shared_path && owned_by_user(nid) {
                            continue; // phase 1 already visited
                        }
                        try_node(nid, &mut remaining, &mut placement);
                    }
                }
            }
        }

        if remaining == 0 {
            (Some(placement), fit_sum)
        } else {
            (None, fit_sum)
        }
    }
    // analyze:hot-path-end

    /// Earliest time the head job could start, assuming running jobs end on
    /// schedule (the EASY shadow time).
    ///
    /// Replays running-job releases in end-time order over a flat capacity
    /// vector, maintaining the total task-fit incrementally: placement for
    /// the head exists **iff** the summed per-node fit reaches its task
    /// count (per-node fits are independent), so the first release that
    /// pushes the sum over the line is the shadow time. No node-map clone,
    /// no repeated full placements, reusable scratch. Released nodes are
    /// first-touch copied from the capacity rows into the replay overlay,
    /// and the initial total-fit sum comes from
    /// the incrementally-maintained [`HeadFit`] when this head was already
    /// being tracked, so a shadow recompute after a claim/release delta
    /// costs O(releases) rather than O(nodes).
    ///
    /// `part` is the head's partition class. `track = false` leaves the
    /// incremental head-fit tracker alone — for ad-hoc probes
    /// ([`earliest_start`](Self::earliest_start)) that must not evict the
    /// real head's maintained sum between scheduling cycles.
    fn shadow_time_scoped(
        &mut self,
        head: JobId,
        spec: &Arc<JobSpec>,
        part: ClassId,
        track: bool,
    ) -> SimTime {
        let total = self.head_total_fit(head, spec, part, track);
        self.shadow_replay(spec, part, total)
    }

    /// `Σ fit(spec)` over `part`'s members (the whole cluster for
    /// [`ClassId::GLOBAL`]), read straight off the capacity rows.
    fn scope_fit_sum(&self, part: ClassId, spec: &JobSpec) -> u64 {
        class_rows(&self.shadow_mirror, self.partitions.class_nodes(part))
            .map(|sn| sn.fit(spec, self.config.policy))
            .sum()
    }

    // analyze:hot-path-begin(sched-shadow-replay)
    /// The maintained `Σ fit` for `head` over its eligible nodes,
    /// establishing the incremental tracker on first sight of this head
    /// (unless `track` is off — ad-hoc probes read, never evict).
    fn head_total_fit(
        &mut self,
        head: JobId,
        spec: &Arc<JobSpec>,
        part: ClassId,
        track: bool,
    ) -> u64 {
        if let Some(hf) = self
            .head_fit
            .as_ref()
            .filter(|hf| hf.job == head && hf.part == part)
        {
            debug_assert_eq!(
                hf.total,
                self.scope_fit_sum(part, spec),
                "incremental head fit drifted from the mirror"
            );
            return hf.total;
        }
        let total = self.scope_fit_sum(part, spec);
        if track {
            self.head_fit = Some(HeadFit {
                job: head,
                spec: Arc::clone(spec),
                part,
                total,
            });
        }
        total
    }

    /// Replay running-job releases in end-time order through the
    /// epoch-stamped overlay: each touched node is first-touch copied from
    /// the persistent mirror, so a replay costs O(touched releases) — no
    /// O(nodes) mirror copy, partitioned or not. `running_ends` is
    /// maintained in end-time order, so no per-cycle collect + sort either.
    fn shadow_replay(&mut self, spec: &Arc<JobSpec>, part: ClassId, mut total: u64) -> SimTime {
        let policy = self.config.policy;
        let needed = spec.tasks as u64;
        if total >= needed {
            self.obs.rec.incr(self.obs.c_shadow_early_exit);
            return self.now;
        }
        self.obs.rec.incr(self.obs.c_shadow_replays);
        self.shadow_epoch += 1;
        let epoch = self.shadow_epoch;
        let mut overlay = std::mem::take(&mut self.shadow_overlay);
        let mut stamp = std::mem::take(&mut self.shadow_stamp);
        let members = self.partitions.class_nodes(part);
        let mut result = SimTime::MAX;
        'replay: for (&(end_t, _jid), allocs) in &self.running_ends {
            for &(nid, ref alloc) in allocs.iter() {
                if members.is_some_and(|set| !set.contains(&nid)) {
                    continue; // allocation on an ineligible node
                }
                let i = slot_of(nid);
                let (Some(st), Some(sn)) = (stamp.get_mut(i), overlay.get_mut(i)) else {
                    continue;
                };
                if *st != epoch {
                    let Some(base) = self.shadow_mirror.get(i) else {
                        continue;
                    };
                    *sn = *base;
                    *st = epoch;
                }
                sn.fold_release(alloc, spec, policy, &mut total);
            }
            if total >= needed {
                result = end_t;
                break 'replay;
            }
        }
        self.shadow_overlay = overlay;
        self.shadow_stamp = stamp;
        result
    }
    // analyze:hot-path-end

    // ------------------------------------------------------------------
    // The scheduling cycle: classes, preemption, backfill
    // ------------------------------------------------------------------

    /// The one scheduling cycle. Without fair-share the whole queue is one
    /// class (global FIFO order; preemption and reservations still apply).
    /// Under fair-share every partition is its own class with its own
    /// head, shadow, and backfill budget — one backlogged partition cannot
    /// head-of-line-block the others.
    fn try_schedule(&mut self) {
        if !self.config.fair_share {
            return self.schedule_class(ClassId::GLOBAL);
        }
        // The classes with queued work as the cycle opens, in the order
        // their names sort (the whole cluster's `""` first). Fixed for the
        // cycle: a class that preemption refills mid-cycle waits for the
        // next event, as it always has.
        let mut active = std::mem::take(&mut self.cycle_classes);
        active.clear();
        active.extend(self.partitions.classes().filter(|c| {
            self.classes
                .get(c.index())
                .is_some_and(|cs| !cs.fifo.is_empty())
        }));
        for &class in &active {
            self.schedule_class(class);
        }
        self.cycle_classes = active;
    }

    // analyze:hot-path-begin(sched-cycle)
    /// The head of a scheduling class: the first entry of the index the
    /// knobs select (see [`ClassState::head`]) — a read, not a scan.
    fn select_head(&self, class: ClassId) -> Option<JobId> {
        self.classes
            .get(class.index())?
            .head(self.config.fair_share, self.config.preemption)
    }

    /// The memoized shadow of `head` if it is memoized as blocked for
    /// `class` at this state version. While nothing claimed or released
    /// *and the selected head is unchanged*, a blocked class head stays
    /// blocked and its shadow stays put.
    fn known_blocked(&self, class: ClassId, head: JobId) -> Option<SimTime> {
        self.classes
            .get(class.index())
            .and_then(|cs| cs.head_memo)
            .filter(|&(j, v, _)| j == head && v == self.state_version)
            .map(|(_, _, shadow)| shadow)
    }

    /// The partition class a job resolved to when it was (last) enqueued.
    fn queued_scope(&self, job: JobId) -> ClassId {
        self.job_class
            .get(job.0 as usize)
            .copied()
            .unwrap_or(ClassId::GLOBAL)
    }

    /// Run one class's dispatch loop: place heads while they fit, preempt
    /// for latency-sensitive blocked heads, then backfill behind the
    /// blocked head under the shadow bound (and, with reservations on, the
    /// full conservative calendar).
    fn schedule_class(&mut self, class: ClassId) {
        let (head, head_spec, part, memo) = loop {
            let sel_tok = self.obs.rec.span_start();
            let selected = self.select_head(class);
            self.obs.rec.span_end(self.obs.sp_select, sel_tok);
            let Some(head) = selected else {
                return;
            };
            let memo = self.known_blocked(class, head);
            if memo.is_some() && !self.config.backfill {
                // Arrival-flood fast path: nothing below reads the spec, so
                // don't pay the jobs-map probe at 100k entries.
                self.obs.rec.incr(self.obs.c_head_memo_hit);
                return;
            }
            let Some(head_spec) = self.jobs.get(&head).map(|j| Arc::clone(&j.spec)) else {
                return;
            };
            let part = self.queued_scope(head);
            if memo.is_some() {
                self.obs.rec.incr(self.obs.c_head_memo_hit);
                break (head, head_spec, part, memo);
            }
            self.obs.rec.incr(self.obs.c_head_memo_miss);
            // O(1) certain-fail gate: the maintained Σ fit for this head is
            // exact (see `placement_walk`), so a total below the task count
            // proves the walk would fail.
            let gated = matches!(
                &self.head_fit,
                Some(hf) if hf.job == head && hf.part == part
                    && hf.total < head_spec.tasks as u64
            );
            let placed = if gated {
                self.obs.rec.incr(self.obs.c_fit_gate);
                None
            } else {
                let tok = self.obs.rec.span_start();
                let eligible = self.partitions.class_nodes(part);
                let (p, fit_sum) = self.placement_walk(&head_spec, eligible);
                self.obs.rec.span_end(self.obs.sp_dispatch, tok);
                if p.is_none() {
                    // Prime the incremental tracker from the failed walk's
                    // exact sum — later cycles gate in O(1).
                    self.head_fit = Some(HeadFit {
                        job: head,
                        spec: Arc::clone(&head_spec),
                        part,
                        total: fit_sum,
                    });
                }
                p
            };
            if let Some(p) = placed {
                self.dequeue(head);
                self.start_job(head, p);
                continue;
            }
            // The head would wait: a latency-sensitive class may
            // displace the cheapest lower-QoS victim set instead.
            if self.config.preemption {
                self.obs.rec.incr(self.obs.c_preempt_searches);
                let pre_tok = self.obs.rec.span_start();
                let preempted = self.try_preempt_for(head, &head_spec, part);
                self.obs.rec.span_end(self.obs.sp_preempt, pre_tok);
                if let Some(p) = preempted {
                    self.dequeue(head);
                    self.start_job(head, p);
                    continue;
                }
            }
            break (head, head_spec, part, None);
        };
        let shadow = match memo {
            Some(s) => {
                self.obs.rec.incr(self.obs.c_shadow_memo_hit);
                s
            }
            // Backfill off reads no shadow: the memo records the block only.
            None if !self.config.backfill => SimTime::MAX,
            None => {
                self.obs.rec.incr(self.obs.c_shadow_memo_miss);
                let tok = self.obs.rec.span_start();
                let s = self.shadow_time_scoped(head, &head_spec, part, true);
                self.obs.rec.span_end(self.obs.sp_shadow, tok);
                s
            }
        };
        if let Some(cs) = self.classes.get_mut(class.index()) {
            cs.head_memo = Some((head, self.state_version, shadow));
        }
        if !self.config.backfill {
            return;
        }
        if self.config.reservations > 0 {
            self.rebuild_calendar(class, head);
        }
        let bf_tok = self.obs.rec.span_start();
        self.backfill_class(class, head, shadow);
        self.obs.rec.span_end(self.obs.sp_backfill, bf_tok);
    }

    /// Backfill scan for one class: candidates in enqueue order (skipping
    /// the head, which under fair-share need not be the earliest seq), the
    /// EASY shadow bound, the per-version failure memo, and — with
    /// reservations on — the conservative no-collision test against every
    /// held reservation.
    ///
    /// The window is one forward walk of the class FIFO, which carries
    /// each job's `time_limit` beside its id: a candidate the shadow bound
    /// rejects — nearly all of them — costs one iterator step and a
    /// compare, no jobs-map probe. The walk only restarts (behind the
    /// accepted key) after an accept, which needs `&mut self`.
    fn backfill_class(&mut self, class: ClassId, head: JobId, shadow: SimTime) {
        let Some(&head_seq) = self.queue_pos.get(head.0 as usize) else {
            return;
        };
        let now = self.now;
        // The cross-class holds (overlapping partitions share nodes),
        // snapshotted for the whole scan at the first candidate that finds
        // a placement — no calendar is rebuilt and no job changes state
        // before that point, so it is the snapshot a scan-start copy would
        // be. Starting a candidate bumps the state version, which must not
        // silently drop the collision test for the rest of the scan; the
        // snapshot stays conservative — our own starts within this scan
        // only consume capacity the plan already assumed free-later.
        let mut holds: Option<Vec<Reservation>> = None;
        let mut scanned = 0;
        let mut shadow_rejects = 0u64;
        let mut cursor = Bound::Unbounded;
        'scan: while let Some(cs) = self.classes.get(class.index()) {
            let mut accepted = None;
            for (&key, q) in cs.fifo.range((cursor, Bound::Unbounded)) {
                if key == head_seq {
                    continue;
                }
                if scanned >= BACKFILL_DEPTH {
                    break 'scan;
                }
                scanned += 1;
                let cand = q.job;
                let cand_end = now + q.time_limit;
                if shadow != SimTime::MAX && cand_end > shadow {
                    shadow_rejects += 1;
                    continue;
                }
                if self.backfill_fails.0 != self.state_version {
                    self.backfill_fails = (self.state_version, BTreeSet::new());
                }
                if self.backfill_fails.1.contains(&cand) {
                    self.obs.rec.incr(self.obs.c_bf_memo_rejects);
                    continue;
                }
                self.obs.rec.incr(self.obs.c_bf_attempts);
                let Some(job) = self.jobs.get(&cand) else {
                    continue;
                };
                let eligible = self.partitions.class_nodes(self.queued_scope(cand));
                match self.placement_for(&job.spec, eligible) {
                    Some(p) => {
                        let holds = holds.get_or_insert_with(|| self.pending_holds());
                        if crate::calendar::blocks_any(holds, cand, &p, cand_end) {
                            // Placement exists but collides with a held
                            // reservation: conservative backfill refuses.
                            // Not memoized — the memo records placement
                            // failures, and this isn't one.
                            self.obs.rec.incr(self.obs.c_bf_rsv_refusals);
                            continue;
                        }
                        accepted = Some((key, cand, p));
                        break;
                    }
                    None => {
                        self.backfill_fails.1.insert(cand);
                    }
                }
            }
            let Some((key, cand, p)) = accepted else {
                break;
            };
            self.obs.rec.incr(self.obs.c_bf_accepts);
            self.dequeue(cand);
            self.start_job(cand, p);
            cursor = Bound::Excluded(key);
        }
        self.obs
            .rec
            .add(self.obs.c_bf_shadow_rejects, shadow_rejects);
    }

    /// Every held reservation, across every class's calendar, whose job
    /// is still pending (a hold whose job has started is spent).
    fn pending_holds(&self) -> Vec<Reservation> {
        if self.config.reservations == 0 {
            return Vec::new();
        }
        self.classes
            .iter()
            .flat_map(|cs| cs.calendar.reservations.iter())
            .filter(|r| {
                self.jobs
                    .get(&r.job)
                    .is_some_and(|j| j.state == JobState::Pending)
            })
            .cloned()
            .collect()
    }
    // analyze:hot-path-end
}

// ----------------------------------------------------------------------
// Preemption and the reservation calendar
// ----------------------------------------------------------------------
impl Scheduler {
    /// Try to free enough capacity for a blocked latency-sensitive head by
    /// killing-and-requeuing strictly-lower-QoS running jobs, cheapest
    /// first (cost = remaining core-seconds of lost work). Feasibility is
    /// judged by the same per-node fit-sum the shadow uses — victims are
    /// only actually killed once the sum proves the head will fit. Returns
    /// the head's placement on the freed capacity.
    fn try_preempt_for(
        &mut self,
        head: JobId,
        spec: &Arc<JobSpec>,
        part: ClassId,
    ) -> Option<Vec<(NodeId, TaskAlloc)>> {
        let policy = self.config.policy;
        let qos = spec.qos;
        if !qos.may_preempt(crate::job::QosClass::Bulk) {
            return None; // not a preemptor class at all
        }
        let eligible = self.partitions.class_nodes(part);
        // Candidate victims: running, strictly lower class, holding at
        // least one eligible node. Cost-sorted ascending.
        let mut victims: Vec<(u64, JobId)> = Vec::new();
        for &(end_t, jid) in self.running_ends.keys() {
            let vj = &self.jobs[&jid];
            if !qos.may_preempt(vj.spec.qos) {
                continue;
            }
            if let Some(set) = eligible {
                if !vj.allocations.keys().any(|n| set.contains(n)) {
                    continue;
                }
            }
            let cores: u64 = vj.allocations.values().map(|a| a.cores as u64).sum();
            let remaining = end_t.since(self.now).as_secs_f64();
            victims.push(((cores as f64 * remaining) as u64, jid));
        }
        if victims.is_empty() {
            return None;
        }
        victims.sort_unstable();
        // Simulate releases over the reusable scratch capacity copy until
        // the head's fit-sum clears its task count (allocation-free in
        // steady state — the buffer persists across calls).
        let mut snodes = std::mem::take(&mut self.scan_scratch);
        snodes.clear();
        snodes.extend(class_rows(&self.shadow_mirror, eligible));
        let needed = spec.tasks as u64;
        let mut total: u64 = snodes.iter().map(|sn| sn.fit(spec, policy)).sum();
        let mut chosen: Vec<JobId> = Vec::new();
        for (_, v) in victims {
            if total >= needed {
                break;
            }
            for (&nid, alloc) in &self.jobs[&v].allocations {
                let Ok(i) = snodes.binary_search_by_key(&nid, |sn| sn.id) else {
                    continue;
                };
                if let Some(sn) = snodes.get_mut(i) {
                    sn.fold_release(alloc, spec, policy, &mut total);
                }
            }
            chosen.push(v);
        }
        let feasible = total >= needed;
        self.scan_scratch = snodes;
        if !feasible {
            return None; // even killing every eligible victim won't fit it
        }
        for v in &chosen {
            self.preempt_job(*v, head);
        }
        let placement = self.placement_for(spec, self.partitions.class_nodes(part));
        debug_assert!(
            placement.is_some(),
            "fit-sum proved the freed capacity admits the head"
        );
        placement
    }

    /// Kill-and-requeue one victim: release its holdings (placement index,
    /// capacity rows and head fit stay current), emit the full separation
    /// epilog per node — the scrub/cleanup the cluster layer runs *before*
    /// any new tenant's prolog — charge its consumed work to the
    /// fair-share ledger, bump its run epoch (stale end events die), and
    /// put it back in the queue.
    fn preempt_job(&mut self, id: JobId, by: JobId) {
        let (user, started, duration, cpus_per_task) = {
            let job = &self.jobs[&id];
            debug_assert_eq!(job.state, JobState::Running);
            (
                job.spec.user,
                job.started.expect("running has start"),
                job.spec.duration,
                job.spec.cpus_per_task,
            )
        };
        self.running_ends.remove(&(started + duration, id));
        *self.run_epochs.entry(id).or_insert(0) += 1;
        let allocations: Vec<(NodeId, TaskAlloc)> = self.jobs[&id]
            .allocations
            .iter()
            .map(|(n, a)| (*n, *a))
            .collect();
        let mut released_cores = 0u32;
        let mut released_used = 0u32;
        for (nid, alloc) in &allocations {
            if self.release_on(*nid, id).is_some() {
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
        self.charge_fair_share(id, user, released_cores, started);
        let spec = {
            let job = self.jobs.get_mut(&id).expect("known job");
            job.state = JobState::Pending;
            job.started = None;
            job.allocations.clear();
            Arc::clone(&job.spec)
        };
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
        self.enqueue(id, &spec);
        self.obs.rec.incr(self.obs.c_preempt_kills);
        self.obs.rec.event(
            self.now,
            "preempt.kill",
            id.0,
            by.0,
            allocations.len() as u64,
        );
        self.preemptions.push(PreemptionRecord {
            victim: id,
            victim_user: user,
            preempted_by: by,
            at: self.now,
            nodes: allocations.iter().map(|(n, _)| *n).collect(),
        });
    }

    // analyze:hot-path-begin(sched-calendar-rebuild)
    /// Bring a class's reservation calendar up to the current
    /// [`calendar_key`](Self::calendar_key): plan starts for the top-K
    /// queued jobs sequentially against a capacity profile containing
    /// running-job releases and every earlier reservation's claim/release.
    /// Anchor feasibility uses each node's *minimum* free capacity over
    /// the candidate window (future claims subtracted, releases ignored) —
    /// the conservative rule that makes double-booking impossible.
    ///
    /// The whole call sits inside the `sched.calendar.plan` span: the
    /// top-K selection and the retag test are calendar work too.
    fn rebuild_calendar(&mut self, class: ClassId, head: JobId) {
        let tok = self.obs.rec.span_start();
        self.refresh_calendar(class, head);
        self.obs.rec.span_end(self.obs.sp_calendar, tok);
    }

    fn refresh_calendar(&mut self, class: ClassId, head: JobId) {
        let key = self.calendar_key();
        let Some(cs) = self.classes.get_mut(class.index()) else {
            return;
        };
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        cs.top_k(
            head,
            self.config.reservations,
            self.config.fair_share,
            self.config.preemption,
            &mut scratch.order,
            &mut scratch.heap,
        );
        // Arrival floods (and repeat asks with nothing changed): if nothing
        // claimed or released and the top-K is the same job list the
        // standing plan was built from, the plan is still exact — re-tag
        // it instead of re-deriving the profile.
        let cal = &mut cs.calendar;
        if cal.built_version.is_some_and(|v| v.0 == key.0) && cal.planned_for == scratch.order {
            cal.built_version = Some(key);
            self.obs.rec.incr(self.obs.c_cal_retags);
            self.plan_scratch = scratch;
            return;
        }
        let mut cal = self
            .classes
            .get_mut(class.index())
            .map(|cs| std::mem::take(&mut cs.calendar))
            .unwrap_or_default();
        // Capacity deltas over time: running releases (+), reservation
        // claims (−) and releases (+), time-sorted. `running_ends` iterates
        // in end-time order, so the releases arrive sorted; reservation
        // claims/releases are inserted at their binary-searched position.
        // A delta's `pos` is its node's place in the class's gathered rows.
        cal.profile.clear();
        scratch.gather(&self.shadow_mirror, self.partitions.class_nodes(class));
        for (&(end_t, _jid), allocs) in &self.running_ends {
            for &(nid, alloc) in allocs.iter() {
                if let Some(pos) = scratch.position(nid) {
                    cal.profile.push(CapDelta {
                        at: end_t,
                        pos,
                        cores: alloc.cores as i64,
                        mem: alloc.mem_mib as i64,
                        gpus: alloc.gpus as i64,
                    });
                }
            }
        }
        // Plan into the standing reservations' buffers, in place.
        let mut order = std::mem::take(&mut scratch.order);
        let mut held = 0;
        for &job in &order {
            let Some(spec) = self.jobs.get(&job).map(|j| &j.spec) else {
                continue;
            };
            if cal.reservations.len() == held {
                cal.reservations.push(Reservation {
                    job,
                    user: spec.user,
                    start: self.now,
                    end: self.now,
                    allocs: Vec::new(),
                });
            }
            let Some(r) = cal.reservations.get_mut(held) else {
                break;
            };
            let ctx = self.plan_ctx(class, self.queued_scope(job));
            let Some(start) = scratch.plan(&ctx, spec, &cal.profile, &mut r.allocs) else {
                continue;
            };
            (r.job, r.user, r.start, r.end) = (job, spec.user, start, start + spec.time_limit);
            let profile = &mut cal.profile;
            for (&(_, a), &pos) in r.allocs.iter().zip(&scratch.alloc_pos) {
                let mut fold = |at: SimTime, sign: i64| {
                    // Within one instant every release precedes every
                    // claim, so a sweep never applies a claim before a
                    // release that makes room for it.
                    let i = if sign > 0 {
                        profile.partition_point(|e| e.at < at)
                    } else {
                        profile.partition_point(|e| e.at <= at)
                    };
                    let (cores, mem, gpus) = (a.cores as i64, a.mem_mib as i64, a.gpus as i64);
                    profile.insert(
                        i,
                        CapDelta {
                            at,
                            pos,
                            cores: sign * cores,
                            mem: sign * mem,
                            gpus: sign * gpus,
                        },
                    );
                };
                fold(r.start, -1);
                fold(r.end, 1);
            }
            held += 1;
        }
        cal.reservations.truncate(held);
        std::mem::swap(&mut cal.planned_for, &mut order);
        scratch.order = order;
        cal.built_version = Some(key);
        if let Some(cs) = self.classes.get_mut(class.index()) {
            cs.calendar = cal;
        }
        self.plan_scratch = scratch;
        self.obs.rec.incr(self.obs.c_cal_plans);
    }

    /// What a plan for a job of partition class `scope`, planned in
    /// `class`, reads of the scheduler. The per-node eligibility filter is
    /// only needed when the job's partition is narrower than the class's
    /// rows (a partitioned job in the global class).
    fn plan_ctx(&self, class: ClassId, scope: ClassId) -> PlanCtx<'_> {
        PlanCtx {
            now: self.now,
            policy: self.config.policy,
            nodes: &self.nodes,
            eligible: if scope == class {
                None
            } else {
                self.partitions.class_nodes(scope)
            },
        }
    }

    /// Plan a one-off reservation for a job beyond `class`'s top-K on top
    /// of the calendar's finished profile. Holds nothing.
    fn plan_probe(&mut self, class: ClassId, scope: ClassId, spec: &JobSpec) -> Option<SimTime> {
        let mut scratch = std::mem::take(&mut self.plan_scratch);
        scratch.gather(&self.shadow_mirror, self.partitions.class_nodes(class));
        let mut allocs = Vec::new();
        let profile = &self.classes.get(class.index())?.calendar.profile;
        let start = scratch.plan(&self.plan_ctx(class, scope), spec, profile, &mut allocs);
        self.plan_scratch = scratch;
        start
    }
    // analyze:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: NodeSharing, nodes: u32, cores: u32) -> Scheduler {
        let mut s = Scheduler::new(SchedConfig {
            policy,
            ..SchedConfig::default()
        });
        for _ in 0..nodes {
            s.add_node(cores, 64_000, 0);
        }
        s
    }

    fn job(user: u32, tasks: u32, secs: u64) -> JobSpec {
        JobSpec::new(
            Uid(user),
            format!("u{user}-job"),
            SimDuration::from_secs(secs),
        )
        .with_tasks(tasks)
        .with_mem_per_task(100)
    }

    /// A 16-core, 32 GiB, 2-GPU node holding one 2-core task of user 1.
    fn busy_node() -> SchedNode {
        let mut n = SchedNode::new(NodeId(1), 16, 32_768, 2);
        let alloc = TaskAlloc {
            tasks: 1,
            cores: 2,
            mem_mib: 4096,
            gpus: 0,
        };
        n.claim(JobId(1), alloc, Uid(1));
        n
    }

    #[test]
    fn fit_admits_by_policy() {
        let idle = ShadowNode::from_node(&SchedNode::new(NodeId(1), 16, 32_768, 2));
        let busy = ShadowNode::from_node(&busy_node());
        let (own, other) = (job(1, 1, 10), job(2, 1, 10));
        for policy in NodeSharing::all() {
            assert!(
                idle.fit(&other, policy) > 0,
                "{policy}: an idle node admits"
            );
            assert_eq!(busy.fit(&own.clone().exclusive(), policy), 0, "--exclusive");
        }
        assert!(busy.fit(&other, NodeSharing::Shared) > 0);
        assert_eq!(busy.fit(&own, NodeSharing::Exclusive), 0, "even the owner");
        assert!(busy.fit(&own, NodeSharing::WholeNodeUser) > 0);
        assert_eq!(busy.fit(&other, NodeSharing::WholeNodeUser), 0);
    }

    #[test]
    fn fit_is_the_min_over_resources_and_zero_when_down() {
        let n = ShadowNode::from_node(&SchedNode::new(NodeId(1), 16, 32_768, 2));
        let spec = job(1, 1, 10).with_cpus_per_task(2).with_mem_per_task(4096);
        assert_eq!(n.fit(&spec, NodeSharing::Shared), 8, "8 by cores, 8 by mem");
        let gpus = spec.clone().with_gpus_per_task(1);
        assert_eq!(n.fit(&gpus, NodeSharing::Shared), 2);
        let fat = spec.clone().with_mem_per_task(20_000);
        assert_eq!(n.fit(&fat, NodeSharing::Shared), 1);
        let mut down = SchedNode::new(NodeId(1), 16, 32_768, 2);
        down.state = NodeState::Down;
        assert_eq!(
            ShadowNode::from_node(&down).fit(&spec, NodeSharing::Shared),
            0
        );
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        let id = s.submit_at(SimTime::from_secs(1), job(1, 4, 10));
        let end = s.run_to_completion();
        assert_eq!(end, SimTime::from_secs(11));
        let j = &s.jobs[&id];
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.started, Some(SimTime::from_secs(1)));
        assert_eq!(s.metrics.completed.get(), 1);
        assert!(s.nodes.values().all(|n| n.is_idle()));
    }

    #[test]
    fn shared_packs_two_users_on_one_node() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 4, 10));
        s.submit_at(SimTime::ZERO, job(2, 4, 10));
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.running_count(), 2, "both fit simultaneously");
    }

    #[test]
    fn whole_node_serializes_different_users_on_one_node() {
        let mut s = sched(NodeSharing::WholeNodeUser, 1, 8);
        let a = s.submit_at(SimTime::ZERO, job(1, 4, 10));
        let b = s.submit_at(SimTime::ZERO, job(2, 4, 10));
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.running_count(), 1, "second user must wait");
        let end = s.run_to_completion();
        assert_eq!(end, SimTime::from_secs(20));
        assert_eq!(s.jobs[&a].state, JobState::Completed);
        assert_eq!(s.jobs[&b].started, Some(SimTime::from_secs(10)));
    }

    #[test]
    fn whole_node_packs_same_user() {
        let mut s = sched(NodeSharing::WholeNodeUser, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 4, 10));
        s.submit_at(SimTime::ZERO, job(1, 4, 10));
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.running_count(), 2, "same user's jobs co-schedule");
    }

    #[test]
    fn exclusive_charges_whole_node() {
        let mut s = sched(NodeSharing::Exclusive, 2, 8);
        s.submit_at(SimTime::ZERO, job(1, 1, 10));
        s.submit_at(SimTime::ZERO, job(1, 1, 10));
        s.submit_at(SimTime::ZERO, job(1, 1, 10));
        s.run_until(SimTime::from_secs(1));
        // Two nodes → two exclusive jobs; the third waits even though cores
        // are plentiful.
        assert_eq!(s.running_count(), 2);
        assert_eq!(s.pending_count(), 1);
        // Utilization is charged for the whole node: 16 cores for the next
        // second.
        let t = SimTime::from_secs(1);
        let busy = &s.metrics.busy_cores;
        assert_eq!(
            busy.integral(t + SimDuration::from_secs(1)) - busy.integral(t),
            16.0
        );
    }

    #[test]
    fn multi_node_job_spreads() {
        let mut s = sched(NodeSharing::Shared, 3, 4);
        let id = s.submit_at(SimTime::ZERO, job(1, 10, 5));
        s.run_until(SimTime::from_secs(1));
        let j = &s.jobs[&id];
        assert_eq!(j.state, JobState::Running);
        assert_eq!(j.allocations.len(), 3);
        let tasks: u32 = j.allocations.values().map(|a| a.tasks).sum();
        assert_eq!(tasks, 10);
    }

    #[test]
    fn job_too_big_never_starts() {
        let mut s = sched(NodeSharing::Shared, 1, 4);
        let id = s.submit_at(SimTime::ZERO, job(1, 100, 5));
        s.run_until(SimTime::from_secs(100));
        assert_eq!(s.jobs[&id].state, JobState::Pending);
        assert_eq!(s.pending_count(), 1);
    }

    #[test]
    fn backfill_fills_hole_without_delaying_head() {
        // 8-core node, fully busy 100s; head (8 cores) must wait to t=100; a
        // tiny 2-core job cannot start either (node full) and, once the head
        // takes the whole node at t=100, waits for the head too.
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 8, 100)); // fills the node
        let head = s.submit_at(SimTime::from_secs(1), job(2, 8, 50)); // must wait to t=100
        let small = s.submit_at(SimTime::from_secs(2), job(3, 8, 99).with_cpus_per_task(0));
        s.cancel(small);
        let tiny = s.submit_at(SimTime::from_secs(2), job(3, 2, 10));
        s.run_until(SimTime::from_secs(3));
        assert_eq!(s.running_count(), 1);
        s.run_to_completion();
        assert_eq!(s.jobs[&head].started, Some(SimTime::from_secs(100)));
        assert_eq!(s.jobs[&tiny].started, Some(SimTime::from_secs(150)));
    }

    #[test]
    fn backfill_true_hole_filling() {
        // Node of 8 cores: job A (6 cores, 100s) leaves a 2-core hole.
        // Head job B needs 8 cores → shadow = 100. Candidate C (2 cores,
        // 50s) fits the hole and ends at ~52 < 100 → backfills.
        let mut s = sched(NodeSharing::Shared, 1, 8);
        let a = s.submit_at(SimTime::ZERO, job(1, 6, 100));
        let b = s.submit_at(SimTime::from_secs(1), job(2, 8, 10));
        let c = s.submit_at(SimTime::from_secs(2), job(3, 2, 50));
        s.run_until(SimTime::from_secs(3));
        assert_eq!(s.jobs[&a].state, JobState::Running);
        assert_eq!(s.jobs[&b].state, JobState::Pending, "head waits");
        assert_eq!(s.jobs[&c].state, JobState::Running, "C backfilled");
        s.run_to_completion();
        assert_eq!(
            s.jobs[&b].started,
            Some(SimTime::from_secs(100)),
            "head not delayed by backfill"
        );
    }

    #[test]
    fn backfill_refuses_delaying_candidates() {
        // Same setup but C runs 200s > shadow → must NOT backfill.
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 6, 100));
        let b = s.submit_at(SimTime::from_secs(1), job(2, 8, 10));
        let c = s.submit_at(SimTime::from_secs(2), job(3, 2, 200));
        s.run_until(SimTime::from_secs(3));
        assert_eq!(s.jobs[&c].state, JobState::Pending, "would delay head");
        s.run_to_completion();
        assert_eq!(s.jobs[&b].started, Some(SimTime::from_secs(100)));
    }

    #[test]
    fn node_failure_kills_jobs_and_repairs() {
        let mut s = sched(NodeSharing::Shared, 2, 8);
        let a = s.submit_at(SimTime::ZERO, job(1, 4, 1000));
        let bjob = s.submit_at(SimTime::ZERO, job(2, 4, 1000));
        s.schedule_node_failure(SimTime::from_secs(10), NodeId(1));
        s.run_until(SimTime::from_secs(11));
        // Both jobs were packed onto node 1 (first fit) in shared mode.
        assert_eq!(s.jobs[&a].state, JobState::Failed);
        assert_eq!(s.jobs[&bjob].state, JobState::Failed);
        assert_eq!(s.failures.len(), 1);
        assert_eq!(s.failures[0].affected_users().len(), 2, "blast radius 2");
        assert_eq!(s.metrics.failed.get(), 2);
        // Node repairs after REPAIR_TIME (600 s).
        s.run_until(SimTime::from_secs(700));
        assert_eq!(s.nodes[&NodeId(1)].state, NodeState::Up);
    }

    #[test]
    fn whole_node_failure_blast_radius_is_one_user() {
        let mut s = sched(NodeSharing::WholeNodeUser, 2, 8);
        s.submit_at(SimTime::ZERO, job(1, 4, 1000));
        s.submit_at(SimTime::ZERO, job(2, 4, 1000));
        s.schedule_node_failure(SimTime::from_secs(10), NodeId(1));
        s.run_until(SimTime::from_secs(11));
        assert_eq!(
            s.failures[0].affected_users().len(),
            1,
            "only node 1's owner"
        );
    }

    #[test]
    fn failed_node_rejoins_scheduling_after_repair() {
        // Regression for the placement index: a repaired node must re-enter
        // the idle/avail candidate sets and accept work again.
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 4, 1000));
        s.schedule_node_failure(SimTime::from_secs(10), NodeId(1));
        s.run_until(SimTime::from_secs(11));
        let late = s.submit_at(SimTime::from_secs(20), job(2, 4, 10));
        s.run_until(SimTime::from_secs(21));
        assert_eq!(s.jobs[&late].state, JobState::Pending, "node still down");
        s.run_to_completion();
        assert_eq!(
            s.jobs[&late].started,
            Some(SimTime::from_secs(610)),
            "starts at repair (10s failure + 600s REPAIR_TIME)"
        );
    }

    #[test]
    fn epilogs_emitted_with_user_departure_flag() {
        let mut s = sched(NodeSharing::WholeNodeUser, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 2, 10));
        s.submit_at(SimTime::ZERO, job(1, 2, 20));
        s.run_to_completion();
        let epilogs = s.drain_epilogs();
        assert_eq!(epilogs.len(), 2);
        // First job ends at t=10 while the second still runs.
        assert!(epilogs[0].user_still_active_on_node);
        // Second ending leaves the node empty of that user.
        assert!(!epilogs[1].user_still_active_on_node);
        assert!(s.drain_epilogs().is_empty(), "drain empties");
    }

    #[test]
    fn squeue_respects_private_data() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.config.private_data = PrivateData::llsc();
        s.add_admin(Uid(50));
        s.submit_at(SimTime::ZERO, job(1, 1, 100));
        s.submit_at(SimTime::ZERO, job(2, 1, 100));
        s.run_until(SimTime::from_secs(1));

        let u1 = Credentials::new(Uid(1), eus_simos::Gid(1));
        let views = s.squeue(&u1);
        assert_eq!(views.len(), 1, "only own jobs");
        assert_eq!(views[0].user, Uid(1));
        assert_eq!(views[0].spec.name, "u1-job");

        let admin = Credentials::new(Uid(50), eus_simos::Gid(50));
        assert_eq!(s.squeue(&admin).len(), 2, "admins see all");
        assert_eq!(s.squeue(&Credentials::root()).len(), 2);

        s.config.private_data = PrivateData::open();
        assert_eq!(s.squeue(&u1).len(), 2, "open config shows all");
    }

    #[test]
    fn cancel_only_pending() {
        let mut s = sched(NodeSharing::Shared, 1, 2);
        let a = s.submit_at(SimTime::ZERO, job(1, 2, 100));
        let b = s.submit_at(SimTime::ZERO, job(2, 2, 100));
        s.run_until(SimTime::from_secs(1));
        assert!(!s.cancel(a), "running job not cancellable here");
        assert!(s.cancel(b));
        assert_eq!(s.jobs[&b].state, JobState::Cancelled);
        assert!(!s.cancel(b), "idempotent");
    }

    #[test]
    fn utilization_math() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.submit_at(SimTime::ZERO, job(1, 8, 50));
        s.run_until(SimTime::from_secs(100));
        // 8 cores × 50 s busy out of 8 × 100 capacity = 0.5.
        assert!((s.utilization() - 0.5).abs() < 1e-9, "{}", s.utilization());
    }

    #[test]
    fn wall_time_limit_enforced() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        // Actual runtime 100s, requested limit 30s: killed at 30.
        let j = s.submit_at(
            SimTime::ZERO,
            JobSpec {
                time_limit: SimDuration::from_secs(30),
                ..job(1, 2, 100)
            },
        );
        // A well-behaved job for contrast.
        let ok = s.submit_at(SimTime::ZERO, job(2, 2, 20));
        s.run_to_completion();
        assert_eq!(s.jobs[&j].state, JobState::Timeout);
        assert_eq!(s.jobs[&j].ended, Some(SimTime::from_secs(30)));
        assert_eq!(s.jobs[&ok].state, JobState::Completed);
        assert_eq!(s.metrics.timed_out.get(), 1);
        assert_eq!(s.metrics.completed.get(), 1);
        // Resources released at the limit, not the would-be duration.
        assert!(s.nodes.values().all(|n| n.is_idle()));
    }

    #[test]
    fn partition_confines_placement() {
        let mut s = sched(NodeSharing::Shared, 4, 8);
        s.partitions_mut()
            .add("batch", [NodeId(1), NodeId(2)], true)
            .unwrap();
        s.partitions_mut().add("debug", [NodeId(3)], false).unwrap();
        // Default-partition job lands on nodes 1-2 only, even when 3-4 idle.
        let a = s.submit_at(SimTime::ZERO, job(1, 16, 10)); // needs 2 nodes
                                                            // Debug job lands on node 3.
        let d = s.submit_at(SimTime::ZERO, job(2, 2, 10).with_partition("debug"));
        s.run_until(SimTime::from_secs(1));
        let a_nodes: Vec<NodeId> = s.jobs[&a].allocations.keys().copied().collect();
        assert_eq!(a_nodes, vec![NodeId(1), NodeId(2)]);
        let d_nodes: Vec<NodeId> = s.jobs[&d].allocations.keys().copied().collect();
        assert_eq!(d_nodes, vec![NodeId(3)]);
        // Node 4 belongs to no partition: never used.
        assert!(s.nodes[&NodeId(4)].is_idle());
    }

    #[test]
    fn partition_queues_when_full_despite_free_foreign_nodes() {
        let mut s = sched(NodeSharing::Shared, 2, 8);
        s.partitions_mut().add("small", [NodeId(1)], true).unwrap();
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        let waiting = s.submit_at(SimTime::ZERO, job(2, 8, 10));
        s.run_until(SimTime::from_secs(1));
        assert_eq!(
            s.jobs[&waiting].state,
            JobState::Pending,
            "node 2 is off-limits"
        );
        s.run_to_completion();
        assert_eq!(s.jobs[&waiting].started, Some(SimTime::from_secs(100)));
    }

    #[test]
    fn unknown_partition_rejected_at_submit() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.partitions_mut().add("batch", [NodeId(1)], true).unwrap();
        let id = s.submit_at(SimTime::ZERO, job(1, 1, 10).with_partition("nope"));
        assert_eq!(s.jobs[&id].state, JobState::Cancelled);
        s.run_to_completion();
        assert_eq!(s.jobs[&id].state, JobState::Cancelled);
        assert_eq!(s.metrics.completed.get(), 0);
    }

    // ------------------------------------------------------------------
    // Policy plane
    // ------------------------------------------------------------------

    use crate::job::QosClass;

    #[test]
    fn urgent_head_preempts_bulk_and_victim_requeues() {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            preemption: true,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        // Bulk fills the node for 1000 s.
        let bulk = s.submit_at(SimTime::ZERO, job(1, 8, 1000).with_qos(QosClass::Bulk));
        // Urgent 4-task job arrives at t=10.
        let urgent = s.submit_at(
            SimTime::from_secs(10),
            job(2, 4, 50).with_qos(QosClass::Urgent),
        );
        s.run_until(SimTime::from_secs(11));
        assert_eq!(s.jobs[&urgent].state, JobState::Running, "preempted in");
        assert_eq!(s.jobs[&urgent].started, Some(SimTime::from_secs(10)));
        assert_eq!(s.jobs[&bulk].state, JobState::Pending, "requeued");
        assert_eq!(s.preemptions.len(), 1);
        assert_eq!(s.preemptions[0].victim, bulk);
        assert_eq!(s.preemptions[0].preempted_by, urgent);
        // The victim's separation epilog fired at preemption time.
        let epilogs = s.drain_epilogs();
        assert!(epilogs
            .iter()
            .any(|e| e.job == bulk && e.at == SimTime::from_secs(10)));
        // The victim reruns after the urgent job and completes; its stale
        // end event (t=1000 from the killed run) must not truncate it.
        let end = s.run_to_completion();
        assert_eq!(s.jobs[&bulk].state, JobState::Completed);
        assert_eq!(s.jobs[&bulk].started, Some(SimTime::from_secs(60)));
        assert_eq!(end, SimTime::from_secs(1060), "full 1000 s rerun");
        assert_eq!(s.metrics.completed.get(), 2);
    }

    #[test]
    fn normal_class_never_preempts_and_off_knob_ignores_qos() {
        // Normal-class head: blocked, no preemption even over Bulk.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            preemption: true,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(SimTime::ZERO, job(1, 8, 100).with_qos(QosClass::Bulk));
        let normal = s.submit_at(SimTime::from_secs(1), job(2, 8, 10));
        s.run_until(SimTime::from_secs(2));
        assert_eq!(s.jobs[&normal].state, JobState::Pending);
        assert!(s.preemptions.is_empty());

        // Urgent head with the knob OFF: waits like anyone else.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(SimTime::ZERO, job(1, 8, 100).with_qos(QosClass::Bulk));
        let urgent = s.submit_at(
            SimTime::from_secs(1),
            job(2, 8, 10).with_qos(QosClass::Urgent),
        );
        s.run_until(SimTime::from_secs(2));
        assert_eq!(s.jobs[&urgent].state, JobState::Pending, "qos ignored");
        assert!(s.preemptions.is_empty());
    }

    #[test]
    fn urgent_arrival_jumps_a_deep_backlog_and_preempts() {
        // The urgent job is nowhere near the FIFO head — with preemption
        // on, dispatch is QoS-band-major, so it surfaces immediately.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            preemption: true,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(SimTime::ZERO, job(1, 8, 5000).with_qos(QosClass::Bulk));
        for _ in 0..40 {
            s.submit_at(SimTime::ZERO, job(1, 8, 1000).with_qos(QosClass::Bulk));
        }
        let urgent = s.submit_at(
            SimTime::from_secs(30),
            job(2, 4, 60).with_qos(QosClass::Urgent),
        );
        s.run_until(SimTime::from_secs(31));
        assert_eq!(s.jobs[&urgent].state, JobState::Running);
        assert_eq!(s.jobs[&urgent].started, Some(SimTime::from_secs(30)));
        assert_eq!(s.preemptions.len(), 1);
    }

    #[test]
    fn preemption_kills_cheapest_victims_only() {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            preemption: true,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.add_node(8, 64_000, 0);
        // Expensive victim: 8 cores × long remaining. Cheap victim: 8 × short.
        let expensive = s.submit_at(SimTime::ZERO, job(1, 8, 10_000).with_qos(QosClass::Bulk));
        let cheap = s.submit_at(SimTime::ZERO, job(2, 8, 500).with_qos(QosClass::Bulk));
        // Interactive job needs one node's worth.
        let inter = s.submit_at(
            SimTime::from_secs(5),
            job(3, 8, 60).with_qos(QosClass::Interactive),
        );
        s.run_until(SimTime::from_secs(6));
        assert_eq!(s.jobs[&inter].state, JobState::Running);
        assert_eq!(s.preemptions.len(), 1, "one victim sufficed");
        assert_eq!(s.preemptions[0].victim, cheap, "cheapest remaining work");
        assert_eq!(s.jobs[&expensive].state, JobState::Running, "spared");
    }

    #[test]
    fn fair_share_unblocks_backlogged_partitions() {
        let debug_state = |fair_share| {
            let mut s = Scheduler::new(SchedConfig {
                policy: NodeSharing::Shared,
                fair_share,
                ..SchedConfig::default()
            });
            for _ in 0..2 {
                s.add_node(8, 64_000, 0);
            }
            s.partitions_mut().add("batch", [NodeId(1)], true).unwrap();
            s.partitions_mut().add("debug", [NodeId(2)], false).unwrap();
            // A batch backlog deeper than backfill scans, ahead of the
            // debug job in global order.
            for i in 0..BACKFILL_DEPTH as u64 + 16 {
                s.submit_at(SimTime::ZERO, job(1, 8, 1000 + i));
            }
            let debug_job =
                s.submit_at(SimTime::from_secs(1), job(2, 4, 10).with_partition("debug"));
            s.run_until(SimTime::from_secs(2));
            s.jobs[&debug_job].state
        };
        assert_eq!(
            debug_state(false),
            JobState::Pending,
            "global FCFS starves debug behind the backlog"
        );
        assert_eq!(
            debug_state(true),
            JobState::Running,
            "debug partition schedules despite the batch backlog"
        );
    }

    #[test]
    fn fair_share_orders_by_decayed_usage() {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            fair_share: true,
            backfill: false,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        // User 1 burns the node; then both users queue a full-node job,
        // user 1 first. FIFO would run u1; fair-share runs u2 first.
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        let u1_next = s.submit_at(SimTime::from_secs(1), job(1, 8, 10));
        let u2_first = s.submit_at(SimTime::from_secs(2), job(2, 8, 10));
        s.run_to_completion();
        assert_eq!(s.jobs[&u2_first].started, Some(SimTime::from_secs(100)));
        assert_eq!(s.jobs[&u1_next].started, Some(SimTime::from_secs(110)));
        let ledger = s.fair_share_ledger();
        assert!(
            ledger.score("", Uid(1)) > ledger.score("", Uid(2)),
            "heavier user carries more decayed usage"
        );
    }

    #[test]
    fn reservations_answer_earliest_start_and_stay_conservative() {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            reservations: 4,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        // Running job holds the node until t=100.
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        // Two full-node jobs queue behind it.
        let second = s.submit_at(SimTime::from_secs(1), job(2, 8, 50));
        let third = s.submit_at(SimTime::from_secs(2), job(3, 8, 30));
        s.run_until(SimTime::from_secs(3));
        // The calendar plans them back to back.
        assert_eq!(s.earliest_start(second), Some(SimTime::from_secs(100)));
        assert_eq!(s.earliest_start(third), Some(SimTime::from_secs(150)));
        let held = s.held_reservations();
        assert_eq!(held.len(), 2);
        // No double-booked cores at any overlap: the two reservations are
        // disjoint in time on the single node.
        assert!(held[0].end <= held[1].start || held[1].end <= held[0].start);
        s.run_to_completion();
        assert_eq!(s.jobs[&second].started, Some(SimTime::from_secs(100)));
        assert_eq!(s.jobs[&third].started, Some(SimTime::from_secs(150)));
    }

    #[test]
    fn conservative_backfill_protects_second_reservation() {
        // EASY protects only the head; conservative backfill must also
        // protect reservation #2. Node A busy to t=100 (head wants it);
        // node B busy to t=50, reservation #2 wants node B at t=50. A
        // 2-core 500 s filler fits node B *now* and would end after t=50:
        // EASY admits it (head's shadow is node A's t=100 — no, shadow
        // would be 50 if head fits B... so head is sized to need A+B).
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            reservations: 4,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0); // A
        s.add_node(8, 64_000, 0); // B
        s.submit_at(SimTime::ZERO, job(1, 8, 100)); // fills A
        s.submit_at(SimTime::ZERO, job(2, 6, 50)); // fills 6/8 of B
                                                   // Head needs 10 cores → both nodes → shadow t=100.
        let head = s.submit_at(SimTime::from_secs(1), job(3, 10, 20));
        // Second-in-line wants a full node at t=50 (B frees first).
        let second = s.submit_at(SimTime::from_secs(2), job(4, 8, 10));
        // Filler: 2 cores, 30 s — fits B's hole now, ends t≈33 < 50: fine.
        let ok_filler = s.submit_at(SimTime::from_secs(3), job(5, 2, 30));
        // Greedy filler: 2 cores, 60 s — fits B's hole now, ends t≈64 > 50:
        // would sit on capacity reserved for `second` at t=50.
        let bad_filler = s.submit_at(SimTime::from_secs(4), job(6, 2, 60));
        s.run_until(SimTime::from_secs(5));
        assert_eq!(s.jobs[&head].state, JobState::Pending);
        assert_eq!(s.jobs[&ok_filler].state, JobState::Running, "harmless");
        assert_eq!(
            s.jobs[&bad_filler].state,
            JobState::Pending,
            "would collide with the second reservation"
        );
        s.run_to_completion();
        // `second` was not delayed past its planned start window.
        assert!(s.jobs[&second].started.unwrap() <= SimTime::from_secs(50));
    }

    #[test]
    fn cancel_invalidates_the_calendar() {
        // One 8-core node busy to t=100; three 50 s full-node jobs queue
        // behind it, K=2 holds the first two at t=100 and t=150.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            reservations: 2,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        let first = s.submit_at(SimTime::from_secs(1), job(2, 8, 50));
        let next = s.submit_at(SimTime::from_secs(2), job(3, 8, 50));
        let last = s.submit_at(SimTime::from_secs(3), job(4, 8, 50));
        s.run_until(SimTime::from_secs(4));
        assert_eq!(s.earliest_start(next), Some(SimTime::from_secs(150)));
        assert!(s.held_reservations().iter().any(|r| r.job == first));
        // Cancelling a top-K job moves no node state and adds no arrival:
        // the plan must still be recognized as stale.
        assert!(s.cancel(first));
        assert!(
            s.held_reservations().iter().all(|r| r.job != first),
            "a hold for a cancelled job is served from the stale plan"
        );
        assert_eq!(s.earliest_start(next), Some(SimTime::from_secs(100)));
        assert_eq!(s.earliest_start(last), Some(SimTime::from_secs(150)));
        let held: Vec<JobId> = s.held_reservations().iter().map(|r| r.job).collect();
        assert_eq!(held, vec![next, last]);
        s.run_to_completion();
        assert_eq!(s.jobs[&next].started, Some(SimTime::from_secs(100)));
        assert_eq!(s.jobs[&last].started, Some(SimTime::from_secs(150)));
    }

    #[test]
    fn a_hold_ending_where_an_earlier_planned_hold_starts_frees_nothing() {
        // Three 8-core nodes: node 1 busy to t=100, node 2 to t=300, node 3
        // has 3 cores free until t=5000. The head holds node 1 from t=100.
        // `x` (11 tasks) is planned first, at t=300 (node 2 + node 3's
        // three cores); `y` is planned after it, on node 3's three cores
        // *now* until exactly t=300. At t=300 node 3 has no core to spare
        // for `z` until `x` ends at t=1300, whatever order the plan lists
        // `x`'s claim and `y`'s release in.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            reservations: 4,
            ..SchedConfig::default()
        });
        for _ in 0..3 {
            s.add_node(8, 64_000, 0);
        }
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        s.submit_at(SimTime::ZERO, job(2, 8, 300));
        s.submit_at(SimTime::ZERO, job(3, 5, 5000));
        let at = SimTime::from_secs(1);
        s.submit_at(at, job(4, 8, 10_000));
        let x = s.submit_at(at, job(5, 11, 1000));
        let y = s.submit_at(at, job(6, 3, 299));
        let z = s.submit_at(at, job(7, 3, 100));
        s.run_until(SimTime::from_secs(2));
        assert_eq!(s.earliest_start(x), Some(SimTime::from_secs(300)));
        assert_eq!(s.earliest_start(y), Some(at));
        assert_eq!(
            s.earliest_start(z),
            Some(SimTime::from_secs(1300)),
            "z planned onto the cores held for x: {:?}",
            s.held_reservations()
        );
    }

    #[test]
    fn fair_share_class_of_an_unpartitioned_cluster_plans_over_every_node() {
        // No partition table: the one fair-share class is the whole
        // cluster, and its calendar must plan against the whole cluster's
        // capacity, not an empty partition mirror.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            fair_share: true,
            reservations: 2,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        let second = s.submit_at(SimTime::from_secs(1), job(2, 8, 50));
        let third = s.submit_at(SimTime::from_secs(2), job(3, 8, 30));
        s.run_until(SimTime::from_secs(3));
        assert_eq!(s.held_reservations().len(), 2);
        assert_eq!(s.earliest_start(second), Some(SimTime::from_secs(100)));
        assert_eq!(s.earliest_start(third), Some(SimTime::from_secs(150)));
    }

    #[test]
    fn earliest_start_of_a_job_still_to_arrive_holds_nothing_twice() {
        // Under fair-share a job belongs to its partition's class from the
        // moment it is asked about, arrived or not: asking must not plan a
        // second, whole-cluster calendar over jobs other classes already
        // hold starts for.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            fair_share: true,
            reservations: 2,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.add_node(8, 64_000, 0);
        s.partitions_mut().add("batch", [NodeId(1)], true).unwrap();
        s.partitions_mut().add("debug", [NodeId(2)], false).unwrap();
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        s.submit_at(SimTime::from_secs(1), job(2, 8, 50));
        s.submit_at(SimTime::ZERO, job(3, 8, 100).with_partition("debug"));
        s.submit_at(SimTime::from_secs(1), job(4, 8, 50).with_partition("debug"));
        let future = s.submit_at(
            SimTime::from_secs(500),
            job(5, 8, 10).with_partition("debug"),
        );
        s.run_until(SimTime::from_secs(2));
        assert_eq!(
            s.earliest_start(future),
            Some(SimTime::from_secs(150)),
            "planned behind debug's own queue"
        );
        let held = s.held_reservations();
        let jobs: BTreeSet<JobId> = held.iter().map(|r| r.job).collect();
        assert_eq!(jobs.len(), held.len(), "one hold per job: {held:?}");
    }

    /// The slot is the truth and the capacity row its one derived copy;
    /// a maintained head fit is the sum over the rows in its scope.
    fn assert_rows_match_slots(s: &Scheduler) {
        for n in s.nodes.values() {
            let row = s.shadow_mirror[slot_of(n.id)];
            assert_eq!(row, ShadowNode::from_node(n), "row of {}", n.id);
        }
        if let Some(hf) = &s.head_fit {
            let sum = s.scope_fit_sum(hf.part, &hf.spec);
            assert_eq!(hf.total, sum, "head fit of {}", hf.job);
        }
    }

    #[test]
    fn capacity_rows_and_head_fit_equal_the_slots_after_every_event() {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            fair_share: true,
            preemption: true,
            reservations: 2,
            ..SchedConfig::default()
        });
        for _ in 0..5 {
            s.add_node(8, 64_000, 0);
        }
        s.partitions_mut()
            .add("batch", [NodeId(1), NodeId(2)], true)
            .unwrap();
        s.partitions_mut()
            .add("debug", [NodeId(3), NodeId(4)], false)
            .unwrap();
        let at = SimTime::from_secs;
        // Batch: bulk work fills both nodes, a backlog builds the calendar,
        // an urgent arrival preempts.
        for i in 0..6 {
            s.submit_at(at(i), job(1, 8, 60).with_qos(QosClass::Bulk));
        }
        s.submit_at(at(10), job(2, 12, 30).with_qos(QosClass::Urgent));
        // Debug: a backlog of its own, across a failure and its repair.
        for i in 0..6 {
            s.submit_at(at(i), job(3 + i as u32 % 2, 6, 25).with_partition("debug"));
        }
        s.schedule_node_failure(at(20), NodeId(1));
        s.schedule_node_failure(at(30), NodeId(3));
        let edit_at = at(45);
        let mut edited = false;
        let mut events = 0;
        while let Some(Reverse((t, _, ev))) = s.events.pop() {
            if !edited && t > edit_at {
                // A partition naming a node that joins only after it.
                s.partitions_mut()
                    .add("spare", [NodeId(5), NodeId(6)], false)
                    .unwrap();
                for i in 0..3 {
                    s.submit_at(t, job(5, 8, 20 + i).with_partition("spare"));
                }
                assert_eq!(s.add_node(8, 64_000, 0), NodeId(6));
                assert_rows_match_slots(&s);
                edited = true;
            }
            s.now = t;
            s.fire(ev);
            assert_rows_match_slots(&s);
            events += 1;
        }
        assert!(edited);
        assert!(events > 30, "rows were compared after {events} events");
        assert!(s.now >= at(30) + REPAIR_TIME, "ran past both repairs");
        assert!(s.nodes.values().all(|n| n.state == NodeState::Up));
        assert_eq!(s.preemptions.len(), 2, "the urgent job took both nodes");
        assert_eq!(s.failures.len(), 2);
        assert!(s.failures.iter().all(|f| !f.failed_jobs.is_empty()));
        assert_eq!(s.metrics.completed.get() + s.metrics.failed.get(), 16);
        let spare: Vec<&Job> = s.jobs.values().filter(|j| j.spec.user == Uid(5)).collect();
        assert!(spare.iter().all(|j| j.state == JobState::Completed));
        assert!(
            spare.iter().any(|j| j.allocations.contains_key(&NodeId(6))),
            "the late node ran spare work"
        );
    }

    /// Partition `p = {1, 2}` with only node 1 added: A fills node 1 and B
    /// is the blocked head (its first plan, with reservations on, is
    /// made); then node 2 joins.
    fn late_node_in_a_partition(fair_share: bool, reservations: usize) -> (Scheduler, JobId) {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            fair_share,
            reservations,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.partitions_mut()
            .add("p", [NodeId(1), NodeId(2)], true)
            .unwrap();
        s.submit_at(SimTime::ZERO, job(1, 8, 100));
        let b = s.submit_at(SimTime::from_secs(1), job(2, 8, 100));
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.jobs[&b].state, JobState::Pending, "B is blocked");
        s.add_node(8, 64_000, 0);
        (s, b)
    }

    #[test]
    fn a_node_joining_a_partition_widens_its_blocked_heads_fit() {
        let (mut s, b) = late_node_in_a_partition(false, 0);
        s.submit_at(SimTime::from_secs(2), job(3, 1, 10));
        s.run_until(SimTime::from_secs(2));
        assert_eq!(s.jobs[&b].started, Some(SimTime::from_secs(2)));
    }

    #[test]
    fn a_node_joining_a_partition_is_in_its_calendar() {
        let (mut s, b) = late_node_in_a_partition(true, 2);
        let planned = s.earliest_start(b).expect("B is queued");
        assert!(
            planned <= SimTime::from_secs(2),
            "B was planned for {planned:?}, behind A, without node 2"
        );
        s.submit_at(SimTime::from_secs(2), job(3, 1, 10));
        s.run_until(SimTime::from_secs(2));
        assert_eq!(s.jobs[&b].started, Some(SimTime::from_secs(2)));
    }

    #[test]
    fn pam_slurm_query_surface() {
        let mut s = sched(NodeSharing::Shared, 2, 8);
        s.submit_at(SimTime::ZERO, job(1, 1, 100));
        s.run_until(SimTime::from_secs(1));
        assert!(s.has_running_job_on(Uid(1), NodeId(1)));
        assert!(!s.has_running_job_on(Uid(1), NodeId(2)));
        assert!(!s.has_running_job_on(Uid(2), NodeId(1)));
    }

    #[test]
    fn obs_disabled_by_default_and_enabled_records_phases() {
        // Disabled: a full run records nothing, retains no events.
        let mut s = sched(NodeSharing::Shared, 2, 8);
        s.submit_at(SimTime::ZERO, job(1, 4, 10));
        s.submit_at(SimTime::ZERO, job(2, 4, 10));
        s.run_to_completion();
        assert!(!s.obs.rec.enabled());
        assert_eq!(s.obs.rec.counter_value(s.obs.c_starts), 0);
        assert!(s.obs.rec.flight.events().is_empty());

        // Enabled: the same trace leaves starts/finishes, span entries,
        // and a flight-recorder trail — and the scheduling outcome is
        // identical (observability must not perturb decisions).
        let mut e = sched(NodeSharing::Shared, 2, 8);
        e.enable_obs(eus_obs::ObsConfig::enabled());
        let a = e.submit_at(SimTime::ZERO, job(1, 4, 10));
        let b = e.submit_at(SimTime::ZERO, job(2, 4, 10));
        let end = e.run_to_completion();
        assert_eq!(end, SimTime::from_secs(10));
        assert_eq!(e.jobs[&a].state, JobState::Completed);
        assert_eq!(e.jobs[&b].state, JobState::Completed);
        assert_eq!(e.obs.rec.counter_value(e.obs.c_starts), 2);
        assert_eq!(e.obs.rec.counter_value(e.obs.c_finishes), 2);
        let kinds: Vec<&str> = e.obs.rec.flight.events().iter().map(|ev| ev.kind).collect();
        assert!(kinds.contains(&"job.submit"));
        assert!(kinds.contains(&"job.start"));
        assert!(kinds.contains(&"job.end"));
        let snap = e.obs.snapshot();
        let dispatch = snap.spans.iter().find(|s| s.name == "sched.cycle.dispatch");
        assert!(dispatch.unwrap().count > 0);
        assert!(snap.counters.iter().any(|&(n, _)| n == "sched.jobs.starts"));
    }

    #[test]
    fn obs_counts_backfill_and_shadow_memo() {
        let mut s = sched(NodeSharing::Shared, 1, 8);
        s.enable_obs(eus_obs::ObsConfig::enabled());
        // Head blocks (needs more cores than are free), filler backfills
        // into the one-core hole.
        s.submit_at(SimTime::ZERO, job(1, 7, 100));
        s.submit_at(SimTime::from_secs(1), job(2, 8, 50)); // blocked head
        s.submit_at(SimTime::from_secs(2), job(3, 1, 10)); // backfill candidate
        s.run_until(SimTime::from_secs(3));
        assert!(s.obs.rec.counter_value(s.obs.c_bf_attempts) >= 1);
        assert!(s.obs.rec.counter_value(s.obs.c_bf_accepts) >= 1);
        // The arrival at t=2 re-fires the cycle with node state untouched:
        // both the head-fail and shadow memos must have hit at least once.
        assert!(s.obs.rec.counter_value(s.obs.c_head_memo_hit) >= 1);
        assert!(s.obs.rec.counter_value(s.obs.c_shadow_memo_hit) >= 1);
        assert!(s.obs.shadow_memo_ratio() > 0.0);
    }

    #[test]
    fn earliest_start_beyond_top_k_is_reservation_backed() {
        // One 8-core node; K=1 so only the head gets a standing
        // reservation. Three FIFO jobs, each filling the node for 100 s:
        // the optimistic single-job shadow would answer t=100 for BOTH
        // queued jobs, but the probe plan must charge the head's hold and
        // answer t=200 for the job behind it.
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            reservations: 1,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(SimTime::ZERO, job(1, 8, 100)); // runs now
        let second = s.submit_at(SimTime::ZERO, job(2, 8, 100)); // head (top-K)
        let third = s.submit_at(SimTime::ZERO, job(3, 8, 100)); // beyond top-K
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.earliest_start(second), Some(SimTime::from_secs(100)));
        assert_eq!(
            s.earliest_start(third),
            Some(SimTime::from_secs(200)),
            "beyond-top-K answer must account for the held reservation"
        );
        s.enable_obs(eus_obs::ObsConfig::enabled());
        let _ = s.earliest_start(third);
        assert_eq!(s.obs.rec.counter_value(s.obs.c_cal_probes), 1);
        // The probe held nothing: the calendar still covers only the head.
        assert_eq!(s.held_reservations().len(), 1);
        // And the probe answer is consistent with what actually happens.
        s.run_to_completion();
        assert_eq!(s.jobs[&third].started, Some(SimTime::from_secs(200)));
    }
}
