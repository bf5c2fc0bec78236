//! # eus-sched — Slurm-like scheduler with user-separation policies
//!
//! Implements the scheduler half of the paper (Sec. IV-B):
//!
//! * [`policy::NodeSharing`] — the three node-sharing policies the paper
//!   contrasts: default **shared** nodes, per-job **exclusive** allocation,
//!   and LLSC's **whole-node user-based** policy (one user per node at any
//!   instant, intra-user packing preserved),
//! * [`engine::Scheduler`] — FCFS + EASY backfill over those policies, on an
//!   internal discrete-event clock, with utilization/wait metrics,
//!   node-failure injection ([`engine::FailureRecord`] measures the "blast
//!   radius" of Sec. IV-B/V), and epilog emission ([`engine::EpilogEvent`])
//!   for the GPU-scrub and cleanup duties of Sec. IV-F,
//! * [`privatedata`] / [`accounting`] — `PrivateData`-filtered `squeue` and
//!   `sacct` views,
//! * [`pam_slurm`] — ssh-only-where-your-job-runs, as a plain check over
//!   the scheduler the cluster lends for the login.
//!
//! # Scheduler internals
//!
//! The engine's scheduling cycle is built on incremental data structures
//! rather than scan-the-world passes, so it holds up at 10k-node /
//! 100k-job scale (see the module docs on [`engine`] for the full story):
//!
//! * a **placement index** — per-user solely-owned node sets (packing
//!   affinity), the idle-node set, and the free-cores set — maintained on
//!   every claim/release, reproducing the old sorted candidate order
//!   without building it;
//! * an **allocation-free EASY shadow**: running-job releases replayed in
//!   end-time order over a flat per-node capacity vector with an
//!   incrementally-maintained total-fit sum and early exit, instead of
//!   cloning the node map and re-running full placement per release;
//! * an **order-indexed queue** (enqueue-seq `BTreeMap`) instead of a
//!   shifting `Vec`, and `Arc`-shared job specs instead of per-cycle deep
//!   clones.
//!
//! The pre-overhaul engine is retained in [`mod@reference`] as the oracle for
//! `tests/sched_equivalence.rs` and `tests/sched_policy_properties.rs`, and
//! as the baseline for the `benches/sched_throughput.rs` criterion bench.
//!
//! # The policy plane
//!
//! Three opt-in [`engine::SchedConfig`] knobs — all **off** by default, in
//! which case the engine is observationally identical to [`mod@reference`]:
//!
//! * `fair_share` — per-partition queues ordered by a decayed
//!   per-user/per-partition usage ledger ([`accounting::FairShareLedger`]),
//!   so one partition's backlog cannot starve another's dispatch or
//!   backfill, and heavy recent users yield to light ones;
//! * `preemption` — jobs carry a [`job::QosClass`]; blocked
//!   latency-sensitive heads may kill-and-requeue strictly-lower-class
//!   work, with the full separation epilog (scrub, cleanup) between the
//!   victim and the new tenant ([`engine::PreemptionRecord`] is the audit
//!   trail);
//! * `reservations = K` — the EASY shadow generalizes into a
//!   [`calendar::ReservationCalendar`]: planned starts (with concrete
//!   capacity holds) for the top-K queued jobs, an
//!   [`engine::Scheduler::earliest_start`] answer for any job, and
//!   *conservative* backfill that refuses to collide with any held
//!   reservation.
//!
//! `tests/sched_policy_properties.rs` checks the plane on the workloads it
//! exists for (preemption cuts the interactive-vs-bulk storm's urgent wait
//! tenfold; fair-share starves no partition of the multi-partition storm)
//! and property-checks its separation invariants; the benchmark's
//! `sched_policy` workload measures it.

#![warn(missing_docs)]

pub mod accounting;
pub mod calendar;
mod class;
pub mod engine;
pub mod job;
pub mod node;
pub mod obs;
pub mod pam_slurm;
pub mod partition;
pub mod policy;
pub mod privatedata;
pub mod reference;
pub mod table;

pub use accounting::{AcctRecord, FairShareLedger, FAIR_SHARE_HALF_LIFE};
pub use calendar::{Reservation, ReservationCalendar};
pub use engine::{
    EpilogEvent, FailureRecord, PreemptionRecord, SchedConfig, SchedMetrics, Scheduler,
};
pub use job::{Job, JobId, JobKind, JobSpec, JobState, QosClass, TaskAlloc};
pub use node::{NodeState, SchedNode};
pub use obs::SchedObs;
pub use partition::{ClassId, Partition, PartitionError, PartitionTable};
pub use policy::{tasks_that_fit, NodeSharing};
pub use privatedata::{may_view, JobView, PrivateData};
pub use reference::ReferenceScheduler;
pub use table::{NodeSet, NodeTable};
