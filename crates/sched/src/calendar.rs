//! The reservation calendar: conservative-backfill bookkeeping.
//!
//! EASY backfill (PR 4's shadow) protects exactly one job — the queue head
//! — from being delayed by opportunistic backfill. The calendar generalizes
//! that: with `SchedConfig::reservations = K > 0`, the engine plans the
//! **top-K queued jobs** forward in time over the same flat capacity
//! vectors the shadow uses, producing one [`Reservation`] per job — an
//! earliest start, an end bound (`start + time_limit`), and the concrete
//! per-node allocation held for it. That turns the scheduler's "when will
//! my job run?" question ([`crate::engine::Scheduler::earliest_start`])
//! into a table lookup, and turns backfill *conservative*: a candidate may
//! start only if it cannot collide with **any** held reservation, not just
//! the head's shadow.
//!
//! # Construction invariant — no double-booked cores
//!
//! Reservations are placed sequentially in dispatch order against a
//! capacity profile that already contains (a) running jobs' releases at
//! their expected end times and (b) every earlier reservation's claim and
//! release. Feasibility at an anchor time `t` is judged against each
//! node's **minimum** free capacity over the whole window
//! `[t, t + time_limit)` — future claims inside the window are subtracted
//! up front, and releases inside the window are ignored (that is the
//! "conservative" in conservative backfill). A core is therefore never
//! promised to two reservations at an overlapping instant;
//! `tests/sched_policy_properties.rs` re-derives the invariant externally
//! over random traces.
//!
//! Ownership semantics (`WholeNodeUser`) are enforced at *dispatch* time by
//! real placement, not by the calendar — a reservation is a capacity hold
//! and a start-time answer, and may be optimistic about owner affinity.
//! Similarly, under fair-share each partition *plans* its calendar against
//! its own profile: with **overlapping** partitions (the Slurm
//! "all + subset" layout) two classes' plans may promise the same shared
//! node, in which case the later start is corrected at dispatch time (the
//! backfill collision test does consult every class's holds; only the
//! planned start estimates are optimistic). Disjoint partitions — the
//! layout fair-share queues are built for — plan exactly.
//! The calendar is rebuilt whenever the engine's state version moves (any
//! claim, release, failure, or repair) *or* the queue composition changes
//! (a new arrival deserves its reservation), so stale promises are never
//! consulted.

use crate::engine::{class_rows, Scheduler, ShadowNode};
use crate::job::{JobId, JobSpec, TaskAlloc};
use crate::policy::NodeSharing;
use crate::table::{slot_of, NodeTable};
use eus_simcore::SimTime;
use eus_simos::{NodeId, Uid};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// One signed capacity transition in a planning profile: a running job's
/// release (+) or a reservation's claim (−) / release (+) on one node of
/// the class. The engine refills the calendar's time-sorted
/// `Vec<CapDelta>` per rebuild and keeps it there so `earliest_start` can
/// probe-plan beyond-top-K jobs against the very same profile.
/// Transitions on nodes outside the class are left out: they change no
/// fit a plan can see, so the instants they would add as anchors can
/// never be the first feasible one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapDelta {
    /// When the transition happens.
    pub(crate) at: SimTime,
    /// The node's position in the class's gathered rows
    /// ([`PlanScratch::gather`]). Every state change that could move it
    /// (a node added, a partition added) also moves the state version, so
    /// a profile is never read against another gather.
    pub(crate) pos: u32,
    /// Core delta (claims negative).
    pub(crate) cores: i64,
    /// Memory delta, MiB (claims negative).
    pub(crate) mem: i64,
    /// GPU delta (claims negative).
    pub(crate) gpus: i64,
}

/// One planned future start: the calendar's row for a queued job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    /// The queued job this start is held for.
    pub job: JobId,
    /// Its owner (separation audits key on this).
    pub user: Uid,
    /// Planned start — the job's `earliest_start` answer.
    pub start: SimTime,
    /// Hold horizon: `start + time_limit` (the backfill bound).
    pub end: SimTime,
    /// Concrete capacity held per node.
    pub allocs: Vec<(NodeId, TaskAlloc)>,
}

impl Reservation {
    /// Does this reservation hold capacity on `node`?
    #[inline]
    pub fn holds_node(&self, node: NodeId) -> bool {
        self.allocs.iter().any(|(n, _)| *n == node)
    }

    /// Total cores held across nodes.
    pub fn total_cores(&self) -> u64 {
        self.allocs.iter().map(|(_, a)| a.cores as u64).sum()
    }
}

/// The held reservations for one scheduling class (a partition under
/// fair-share, or the whole queue otherwise), tagged with the engine state
/// version they were planned against.
#[derive(Debug, Clone, Default)]
pub struct ReservationCalendar {
    /// Planned starts, in dispatch (priority) order.
    pub reservations: Vec<Reservation>,
    /// Engine `(state_version, queue_seq, queue_shrink_epoch)` the plan is
    /// valid for — any claim/release, arrival *or* departure (`cancel`
    /// moves only the last) invalidates it; `None` = never built.
    pub(crate) built_version: Option<(u64, u64, u64)>,
    /// The top-K job list the plan was derived from. If an arrival leaves
    /// this list unchanged (and no capacity moved), the standing plan is
    /// still exact and is re-tagged instead of re-derived.
    pub(crate) planned_for: Vec<JobId>,
    /// The final capacity-delta profile the plan settled on (running
    /// releases + every reservation's claim/release, time-sorted, every
    /// release ahead of every claim within one instant — the sweep clamps
    /// free capacity at zero, so a claim applied first would eat the room
    /// the release makes). Valid exactly as long as `built_version`
    /// matches; `earliest_start` plans one-off probes for beyond-top-K
    /// jobs against it.
    pub(crate) profile: Vec<CapDelta>,
}

impl ReservationCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of held reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// The reservation held for `job`, if any.
    pub fn get(&self, job: JobId) -> Option<&Reservation> {
        self.reservations.iter().find(|r| r.job == job)
    }

    /// Would a job (`cand`) occupying `placement` until `cand_end` collide
    /// with any reservation held for a *different* job? See [`blocks_any`].
    #[cfg(test)]
    pub(crate) fn blocks(
        &self,
        cand: JobId,
        placement: &[(NodeId, TaskAlloc)],
        cand_end: SimTime,
    ) -> bool {
        blocks_any(&self.reservations, cand, placement, cand_end)
    }
}

/// Reusable buffers for calendar planning, all indexed by position in the
/// class's gathered rows. One lives in the scheduler; a steady-state
/// rebuild allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// The top-K list a rebuild is planning for (swapped into the
    /// calendar's `planned_for` once planned).
    pub(crate) order: Vec<JobId>,
    /// Fair-share top-K merge heap: `(score key, enqueue-seq, user)`.
    pub(crate) heap: BinaryHeap<Reverse<(i64, u64, Uid)>>,
    /// Row positions of the last plan's allocations, parallel to the
    /// `allocs` it filled.
    pub(crate) alloc_pos: Vec<u32>,
    /// The class's rows as of `now`, as [`gather`](Self::gather) left
    /// them: what every plan starts from.
    base: Vec<ShadowNode>,
    /// Node slot → position in `base`. Never cleared: an entry left by
    /// another class's gather fails the id check in
    /// [`position`](Self::position).
    pos: Vec<u32>,
    /// Capacity at the current anchor (every delta up to it applied).
    snodes: Vec<ShadowNode>,
    /// Per-node task fit at the current anchor, window claims subtracted.
    fits: Vec<u64>,
    /// Future claims inside the current window: `(cores, mem, gpus)` per
    /// node; all-zero = none.
    win: Vec<(u64, u64, u64)>,
}

/// What a plan reads of the scheduler besides the job and the profile.
pub(crate) struct PlanCtx<'a> {
    /// Anchors start here.
    pub(crate) now: SimTime,
    /// The node-sharing policy fits are judged under.
    pub(crate) policy: NodeSharing,
    /// Node totals, for whole-node charging.
    pub(crate) nodes: &'a NodeTable,
    /// The job's eligible nodes when they are a strict subset of the
    /// class (a partitioned job planned in the global class); `None` when
    /// the class *is* the job's own partition.
    pub(crate) eligible: Option<&'a BTreeSet<NodeId>>,
}

impl PlanScratch {
    /// Gather a class's rows (see [`class_rows`]) as the base every plan
    /// until the next gather starts from: the order [`CapDelta::pos`]
    /// indexes.
    pub(crate) fn gather(&mut self, rows: &[ShadowNode], members: Option<&BTreeSet<NodeId>>) {
        self.base.clear();
        self.pos.resize(rows.len(), u32::MAX);
        for sn in class_rows(rows, members) {
            self.pos[slot_of(sn.id)] = self.base.len() as u32;
            self.base.push(*sn);
        }
    }

    /// `nid`'s position in the gathered rows; `None` = not in the class.
    pub(crate) fn position(&self, nid: NodeId) -> Option<u32> {
        let p = *self.pos.get(slot_of(nid))?;
        self.base
            .get(p as usize)
            .is_some_and(|sn| sn.id == nid)
            .then_some(p)
    }

    // analyze:hot-path-begin(sched-calendar-plan)
    /// Plan the earliest conservative reservation for one job against the
    /// gathered rows plus a time-sorted delta profile: fill
    /// `allocs` (and `alloc_pos`) with the concrete per-node holds and
    /// return the start. `None` = the job fits at no anchor (it would
    /// never start even after every release). Pure with respect to
    /// scheduler state — a calendar rebuild calls it per top-K job,
    /// folding each plan back into the profile, and `earliest_start` calls
    /// it once against a finished profile to answer beyond-top-K jobs.
    ///
    /// Anchors are `now`, then every later delta instant, visited lazily.
    /// Two-pointer sweep: deltas below `applied` are folded into `snodes`
    /// (at ≤ anchor); claims with index in `[applied, win_end)` sit in the
    /// `win` overlay (the future claims inside the current window,
    /// subtracted for the conservative minimum). Each delta enters and
    /// leaves each structure exactly once, and per-node fits update
    /// incrementally — O(deltas) per job.
    pub(crate) fn plan(
        &mut self,
        ctx: &PlanCtx<'_>,
        spec: &JobSpec,
        deltas: &[CapDelta],
        allocs: &mut Vec<(NodeId, TaskAlloc)>,
    ) -> Option<SimTime> {
        let PlanScratch {
            alloc_pos,
            base,
            snodes,
            fits,
            win,
            ..
        } = self;
        let policy = ctx.policy;
        let needed = spec.tasks as u64;
        snodes.clear();
        snodes.extend_from_slice(base);
        win.clear();
        win.resize(snodes.len(), (0, 0, 0));
        fits.clear();
        let fit_with = |sn: &ShadowNode, w: (u64, u64, u64)| -> u64 {
            if ctx.eligible.is_some_and(|set| !set.contains(&sn.id)) {
                return 0;
            }
            let mut s = *sn;
            if w != (0, 0, 0) {
                s.free_cores = s.free_cores.saturating_sub(w.0 as u32);
                s.free_mem_mib = s.free_mem_mib.saturating_sub(w.1);
                s.free_gpus = s.free_gpus.saturating_sub(w.2 as u32);
                // A reserved slice makes the node non-idle for
                // exclusive-style admission.
                s.jobs += 1;
            }
            s.fit(spec, policy)
        };
        let mut total = 0u64;
        // Re-derive node `i`'s fit after its capacity or window moved
        // (a no-op until the first anchor has seeded `fits`).
        let refit = |i: usize,
                     snodes: &[ShadowNode],
                     win: &[(u64, u64, u64)],
                     fits: &mut [u64],
                     total: &mut u64| {
            if let (Some(sn), Some(w), Some(f)) = (snodes.get(i), win.get(i), fits.get_mut(i)) {
                let nf = fit_with(sn, *w);
                *total = *total + nf - *f;
                *f = nf;
            }
        };
        let mut applied = 0usize;
        let mut win_end = 0usize;
        let mut t = ctx.now;
        loop {
            let window_end = t + spec.time_limit;
            while let Some(d) = deltas.get(applied).filter(|d| d.at <= t) {
                let i = d.pos as usize;
                // Leaving the window overlay (if it was a claim that had
                // been counted as "future").
                if d.cores < 0 && applied < win_end {
                    if let Some(w) = win.get_mut(i) {
                        w.0 -= (-d.cores) as u64;
                        w.1 -= (-d.mem) as u64;
                        w.2 -= (-d.gpus) as u64;
                    }
                }
                if let Some(sn) = snodes.get_mut(i) {
                    sn.free_cores = (sn.free_cores as i64 + d.cores).max(0) as u32;
                    sn.free_mem_mib = (sn.free_mem_mib as i64 + d.mem).max(0) as u64;
                    sn.free_gpus = (sn.free_gpus as i64 + d.gpus).max(0) as u32;
                    if d.cores > 0 && sn.jobs > 0 {
                        sn.jobs -= 1;
                        if sn.jobs == 0 {
                            sn.owner = None;
                        }
                    } else if d.cores < 0 {
                        sn.jobs += 1;
                    }
                }
                refit(i, snodes, win, fits, &mut total);
                applied += 1;
                win_end = win_end.max(applied);
            }
            // New future claims entering the window's far edge.
            while let Some(d) = deltas.get(win_end).filter(|d| d.at < window_end) {
                if d.cores < 0 {
                    let i = d.pos as usize;
                    if let Some(w) = win.get_mut(i) {
                        w.0 += (-d.cores) as u64;
                        w.1 += (-d.mem) as u64;
                        w.2 += (-d.gpus) as u64;
                    }
                    refit(i, snodes, win, fits, &mut total);
                }
                win_end += 1;
            }
            if fits.is_empty() {
                // One full pass to seed the incremental fits.
                fits.extend(
                    snodes
                        .iter()
                        .zip(win.iter())
                        .map(|(sn, w)| fit_with(sn, *w)),
                );
                total = fits.iter().sum();
            }
            if total >= needed {
                // Feasible: pick the concrete allocation greedily in id
                // order against the window-minimum capacity.
                let mut remaining = spec.tasks;
                allocs.clear();
                alloc_pos.clear();
                for (i, (sn, &f)) in snodes.iter().zip(fits.iter()).enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let fit = (f as u32).min(remaining);
                    if fit == 0 {
                        continue;
                    }
                    let Some(node) = ctx.nodes.get(&sn.id) else {
                        continue;
                    };
                    allocs.push((sn.id, Scheduler::alloc_for(node, spec, policy, fit)));
                    alloc_pos.push(i as u32);
                    remaining -= fit;
                }
                debug_assert_eq!(remaining, 0, "fit-sum promised a full placement");
                return Some(t);
            }
            // Every delta at or before `t` is applied, so the next one is
            // the next distinct instant.
            t = deltas.get(applied)?.at;
        }
    }
    // analyze:hot-path-end
}

/// The conservative-backfill admission test over any set of holds: overlap
/// in both time (`r.start < cand_end`) and space (any shared node) is a
/// conflict — the candidate would sit on capacity promised away. The
/// engine's backfill scan calls this against a cross-class snapshot of
/// every held reservation.
pub fn blocks_any(
    holds: &[Reservation],
    cand: JobId,
    placement: &[(NodeId, TaskAlloc)],
    cand_end: SimTime,
) -> bool {
    holds.iter().any(|r| {
        r.job != cand && r.start < cand_end && placement.iter().any(|(n, _)| r.holds_node(*n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(cores: u32) -> TaskAlloc {
        TaskAlloc {
            tasks: cores,
            cores,
            mem_mib: 1024,
            gpus: 0,
        }
    }

    fn res(job: u64, node: u32, start: u64, end: u64) -> Reservation {
        Reservation {
            job: JobId(job),
            user: Uid(1),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            allocs: vec![(NodeId(node), alloc(4))],
        }
    }

    #[test]
    fn conflict_requires_time_and_space_overlap() {
        let cal = ReservationCalendar {
            reservations: vec![res(1, 1, 100, 200)],
            built_version: Some((0, 0, 0)),
            planned_for: vec![JobId(1)],
            profile: Vec::new(),
        };
        let placement = vec![(NodeId(1), alloc(2))];
        // Ends before the reservation starts: no conflict.
        assert!(!cal.blocks(JobId(9), &placement, SimTime::from_secs(100)));
        // Overlaps in time on the reserved node: conflict.
        assert!(cal.blocks(JobId(9), &placement, SimTime::from_secs(101)));
        // Overlaps in time on a different node: no conflict.
        let elsewhere = vec![(NodeId(2), alloc(2))];
        assert!(!cal.blocks(JobId(9), &elsewhere, SimTime::from_secs(500)));
        // A job never conflicts with its own reservation.
        assert!(!cal.blocks(JobId(1), &placement, SimTime::from_secs(500)));
    }

    #[test]
    fn lookup_and_totals() {
        let cal = ReservationCalendar {
            reservations: vec![res(1, 1, 100, 200), res(2, 2, 50, 80)],
            built_version: Some((3, 0, 0)),
            planned_for: vec![JobId(1), JobId(2)],
            profile: Vec::new(),
        };
        assert_eq!(cal.len(), 2);
        assert!(!cal.is_empty());
        assert_eq!(cal.get(JobId(2)).unwrap().start, SimTime::from_secs(50));
        assert!(cal.get(JobId(7)).is_none());
        assert!(cal.get(JobId(1)).unwrap().holds_node(NodeId(1)));
        assert!(!cal.get(JobId(1)).unwrap().holds_node(NodeId(2)));
        assert_eq!(cal.get(JobId(1)).unwrap().total_cores(), 4);
    }
}
