//! Accounting: `sacct` views and the fair-share usage ledger.
//!
//! Two consumers share this module:
//!
//! * **Humans/operators** — [`Scheduler::sacct`] per-job records and
//!   [`Scheduler::usage_report`] per-user rollups, filtered by
//!   `PrivateData=usage` exactly as the queue view is filtered by
//!   `PrivateData=jobs` (paper Sec. IV-B).
//! * **The scheduler's policy plane** — [`FairShareLedger`], the decayed
//!   per-user/per-partition usage record that drives multi-partition
//!   fair-share head selection (`SchedConfig::fair_share`). Every finished
//!   or preempted job charges the core-seconds it actually consumed to its
//!   `(partition, user)` cell; the head-selection score is that usage with
//!   an exponential half-life decay, so a user who burned the cluster
//!   yesterday outranks one who burned it an hour ago, and a partition's
//!   queue orders by *recent* appetite rather than raw submission order.
//!
//! # Decay without rescans
//!
//! The ledger never walks its cells to apply decay. A charge of `c`
//! core-seconds at time `t` is stored **pre-scaled** as `c · 2^(t/h)`
//! (half-life `h`); the decayed usage at any later instant `now` is then
//! `cell · 2^(−now/h)`. Because every cell decays by the same factor, the
//! *ordering* of scaled cells equals the ordering of decayed usages — so
//! head selection compares scaled values directly and no cell is ever
//! rewritten by the passage of time. When the exponent drifts far enough
//! that accumulation could overflow `f64` (hundreds of half-lives), the
//! ledger *rebases*: every cell is multiplied by the same decay factor and
//! the scale origin moves forward — a pure renormalization that preserves
//! ordering and every decayed reading, so years-long replays stay exact.

use crate::engine::Scheduler;
use crate::job::JobState;
use crate::partition::ClassId;
use crate::privatedata::may_view;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::{Credentials, Uid};
use std::collections::BTreeMap;

/// Default fair-share half-life: one simulated hour.
pub const FAIR_SHARE_HALF_LIFE: SimDuration = SimDuration::from_secs(3600);

/// Decayed per-`(partition, user)` usage, the fair-share input.
///
/// Cells are indexed by the dense [`ClassId`] of the *resolved* partition
/// ([`ClassId::GLOBAL`] = the unpartitioned cluster, named `""`), matching
/// `PartitionTable::resolve_class` — the scheduling cycle charges and
/// scores by id. The `&str` entry points resolve the name once, here.
#[derive(Debug, Clone)]
pub struct FairShareLedger {
    half_life_s: f64,
    /// The scale origin (seconds): weights are `2^((t − origin)/h)`.
    /// Advanced by [`rebase`](Self::rebase) before the exponent could push
    /// accumulated cells toward `f64` overflow, so month-scale replays
    /// keep exact ordering instead of silently saturating to `inf`.
    origin_s: f64,
    /// Scaled usage per class, per user: `Σ cᵢ · 2^((tᵢ−origin)/h)`.
    cells: Vec<BTreeMap<Uid, f64>>,
    /// Resolved partition name → class, for the `&str` readers. The engine
    /// [`bind`](Self::bind)s its partition table's ids; a standalone ledger
    /// numbers names as it first sees them.
    names: BTreeMap<String, ClassId>,
}

/// Rebase threshold, in half-lives past the origin. `2^256 ≈ 1e77` leaves
/// ~230 orders of magnitude of headroom for accumulation before the next
/// rebase.
const REBASE_HALF_LIVES: f64 = 256.0;

impl FairShareLedger {
    /// An empty ledger with the given half-life.
    pub fn new(half_life: SimDuration) -> Self {
        FairShareLedger {
            half_life_s: half_life.as_secs_f64().max(1.0),
            origin_s: 0.0,
            cells: Vec::new(),
            names: BTreeMap::new(),
        }
    }

    /// The scale factor `2^((t − origin)/h)`.
    fn weight(&self, at: SimTime) -> f64 {
        ((at.since(SimTime::ZERO).as_secs_f64() - self.origin_s) / self.half_life_s).exp2()
    }

    /// Move the scale origin to `at_s`, applying the accumulated decay to
    /// every cell. Pure renormalization: all cells shrink by the same
    /// factor, so ordering (and every decayed reading) is unchanged;
    /// ancient cells underflow harmlessly to zero.
    fn rebase(&mut self, at_s: f64) {
        let factor = (-(at_s - self.origin_s) / self.half_life_s).exp2();
        for users in &mut self.cells {
            for v in users.values_mut() {
                *v *= factor;
            }
        }
        self.origin_s = at_s;
    }

    /// Name `class` for the `&str` readers (idempotent).
    pub(crate) fn bind(&mut self, class: ClassId, name: &str) {
        if !self.names.contains_key(name) {
            self.names.insert(name.to_string(), class);
        }
    }

    /// Charge `core_seconds` of consumption to `(class, user)` at `at`.
    /// Returns `true` when the charge rebased the ledger — every stored
    /// score changed value (not order), so anything holding scores by
    /// value must re-read them.
    pub(crate) fn charge_class(
        &mut self,
        class: ClassId,
        user: Uid,
        core_seconds: f64,
        at: SimTime,
    ) -> bool {
        if core_seconds <= 0.0 {
            return false;
        }
        let at_s = at.since(SimTime::ZERO).as_secs_f64();
        let rebased = (at_s - self.origin_s) / self.half_life_s > REBASE_HALF_LIVES;
        if rebased {
            self.rebase(at_s);
        }
        let w = self.weight(at);
        if self.cells.len() <= class.index() {
            self.cells.resize_with(class.index() + 1, BTreeMap::new);
        }
        if let Some(users) = self.cells.get_mut(class.index()) {
            *users.entry(user).or_insert(0.0) += core_seconds * w;
        }
        rebased
    }

    /// Charge `core_seconds` of consumption to `(partition, user)` at `at`,
    /// numbering a name this (standalone) ledger has not seen with the
    /// next free class. A name past the last `ClassId` is not recorded.
    pub fn charge(&mut self, partition: &str, user: Uid, core_seconds: f64, at: SimTime) {
        let class = match self.names.get(partition) {
            Some(&c) => c,
            None => {
                let Some(c) = ClassId::from_index(self.names.len()) else {
                    return;
                };
                self.names.insert(partition.to_string(), c);
                c
            }
        };
        self.charge_class(class, user, core_seconds, at);
    }

    /// [`score`](Self::score) by class id — what the cycle calls.
    pub(crate) fn score_class(&self, class: ClassId, user: Uid) -> f64 {
        self.cells
            .get(class.index())
            .and_then(|users| users.get(&user))
            .copied()
            .unwrap_or(0.0)
    }

    /// The *scaled* usage for head-selection ordering: monotone in the
    /// decayed usage at any single instant, zero for users never charged.
    /// Compare with `f64::total_cmp`; lower scores schedule first.
    pub fn score(&self, partition: &str, user: Uid) -> f64 {
        self.names
            .get(partition)
            .map_or(0.0, |&c| self.score_class(c, user))
    }

    /// Decayed core-seconds attributable to `(partition, user)` as of
    /// `now` — the human-readable form (`sshare`-style reports).
    pub fn decayed_usage(&self, partition: &str, user: Uid, now: SimTime) -> f64 {
        self.score(partition, user) / self.weight(now)
    }

    /// Users with recorded usage in `partition`, with decayed usage at
    /// `now`, ascending by usage (the dispatch order among equal queues).
    pub fn partition_standings(&self, partition: &str, now: SimTime) -> Vec<(Uid, f64)> {
        let w = self.weight(now);
        let mut rows: Vec<(Uid, f64)> = self
            .names
            .get(partition)
            .and_then(|c| self.cells.get(c.index()))
            .map(|users| users.iter().map(|(u, v)| (*u, *v / w)).collect())
            .unwrap_or_default();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        rows
    }
}

/// One `sacct` row.
#[derive(Debug, Clone, PartialEq)]
pub struct AcctRecord {
    /// Job id.
    pub job: crate::job::JobId,
    /// Owner.
    pub user: Uid,
    /// Job name.
    pub name: String,
    /// Final (or current) state.
    pub state: JobState,
    /// Submission time.
    pub submitted: SimTime,
    /// Start time, if dispatched.
    pub started: Option<SimTime>,
    /// End time, if finished.
    pub ended: Option<SimTime>,
    /// Core-seconds consumed.
    pub core_seconds: f64,
}

/// Per-user usage rollup.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserUsage {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Total core-seconds.
    pub core_seconds: f64,
}

impl Scheduler {
    /// `sacct` as seen by `viewer` under the PrivateData configuration.
    pub fn sacct(&self, viewer: &Credentials) -> Vec<AcctRecord> {
        let admin = self.is_admin(viewer.uid);
        self.jobs
            .values()
            .filter(|j| may_view(viewer, j.spec.user, self.config.private_data.usage, admin))
            .map(|j| AcctRecord {
                job: j.id,
                user: j.spec.user,
                name: j.spec.name.clone(),
                state: j.state,
                submitted: j.submitted,
                started: j.started,
                ended: j.ended,
                core_seconds: j.core_seconds(),
            })
            .collect()
    }

    /// Usage rollup across every user the viewer may see.
    pub fn usage_report(&self, viewer: &Credentials) -> BTreeMap<Uid, UserUsage> {
        let mut out: BTreeMap<Uid, UserUsage> = BTreeMap::new();
        for rec in self.sacct(viewer) {
            let u = out.entry(rec.user).or_default();
            u.jobs += 1;
            match rec.state {
                JobState::Completed => u.completed += 1,
                JobState::Failed => u.failed += 1,
                _ => {}
            }
            u.core_seconds += rec.core_seconds;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SchedConfig;
    use crate::job::JobSpec;
    use crate::policy::NodeSharing;
    use crate::privatedata::PrivateData;
    use eus_simcore::SimDuration;
    use eus_simos::Gid;

    fn run_two_users() -> Scheduler {
        let mut s = Scheduler::new(SchedConfig {
            policy: NodeSharing::Shared,
            ..SchedConfig::default()
        });
        s.add_node(8, 64_000, 0);
        s.submit_at(
            SimTime::ZERO,
            JobSpec::new(Uid(1), "a1", SimDuration::from_secs(10)).with_tasks(2),
        );
        s.submit_at(
            SimTime::ZERO,
            JobSpec::new(Uid(2), "b1", SimDuration::from_secs(20)).with_tasks(2),
        );
        s.run_to_completion();
        s
    }

    #[test]
    fn sacct_open_shows_everything() {
        let s = run_two_users();
        let viewer = Credentials::new(Uid(1), Gid(1));
        let rows = s.sacct(&viewer);
        assert_eq!(rows.len(), 2);
        let usage = s.usage_report(&viewer);
        assert_eq!(usage[&Uid(1)].completed, 1);
        assert!((usage[&Uid(1)].core_seconds - 20.0).abs() < 1e-9);
        assert!((usage[&Uid(2)].core_seconds - 40.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_decay_reorders_users() {
        let mut l = FairShareLedger::new(SimDuration::from_secs(3600));
        // u1 burned 1000 core-s at t=0; u2 burns 300 core-s at t=2h.
        l.charge("batch", Uid(1), 1000.0, SimTime::ZERO);
        l.charge("batch", Uid(2), 300.0, SimTime::from_secs(7200));
        let now = SimTime::from_secs(7200);
        // Decayed: u1 = 1000·2⁻² = 250 < u2 = 300 → u1 schedules first.
        let u1 = l.decayed_usage("batch", Uid(1), now);
        let u2 = l.decayed_usage("batch", Uid(2), now);
        assert!((u1 - 250.0).abs() < 1e-6, "{u1}");
        assert!((u2 - 300.0).abs() < 1e-6, "{u2}");
        assert!(
            l.score("batch", Uid(1)) < l.score("batch", Uid(2)),
            "scaled scores order like decayed usage"
        );
        let standings = l.partition_standings("batch", now);
        assert_eq!(standings[0].0, Uid(1));
        // Unknown users and foreign partitions read zero.
        assert_eq!(l.score("batch", Uid(9)), 0.0);
        assert_eq!(l.score("debug", Uid(1)), 0.0);
    }

    #[test]
    fn ledger_rebases_on_long_horizons_without_reordering() {
        let mut l = FairShareLedger::new(SimDuration::from_secs(3600));
        // Heavy early user, light late user — charged across ~3000
        // half-lives (~4 months), far past naive f64 scale range.
        let month = 30 * 24 * 3600u64;
        l.charge("batch", Uid(1), 1e6, SimTime::ZERO);
        for m in 1..=4 {
            l.charge("batch", Uid(1), 5e4, SimTime::from_secs(m * month));
            l.charge("batch", Uid(2), 1e4, SimTime::from_secs(m * month));
        }
        let now = SimTime::from_secs(4 * month);
        let s1 = l.score("batch", Uid(1));
        let s2 = l.score("batch", Uid(2));
        assert!(s1.is_finite() && s2.is_finite(), "no overflow: {s1} {s2}");
        assert!(s1 > s2, "heavier recent user still ranks behind");
        let d1 = l.decayed_usage("batch", Uid(1), now);
        let d2 = l.decayed_usage("batch", Uid(2), now);
        assert!(d1.is_finite() && d2.is_finite() && d1 > d2, "{d1} {d2}");
    }

    #[test]
    fn ledger_partitions_are_independent() {
        let mut l = FairShareLedger::new(FAIR_SHARE_HALF_LIFE);
        l.charge("batch", Uid(1), 500.0, SimTime::from_secs(10));
        l.charge("debug", Uid(2), 1.0, SimTime::from_secs(10));
        assert!(l.score("batch", Uid(1)) > 0.0);
        assert_eq!(
            l.partition_standings("debug", SimTime::from_secs(10)),
            vec![(Uid(2), 1.0)]
        );
        // Zero/negative charges are ignored.
        l.charge("batch", Uid(3), 0.0, SimTime::from_secs(10));
        assert_eq!(l.score("batch", Uid(3)), 0.0);
    }

    #[test]
    fn sacct_private_filters_others() {
        let mut s = run_two_users();
        s.config.private_data = PrivateData::llsc();
        let viewer = Credentials::new(Uid(1), Gid(1));
        let rows = s.sacct(&viewer);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].user, Uid(1));
        let usage = s.usage_report(&viewer);
        assert!(!usage.contains_key(&Uid(2)), "other users' usage hidden");
        // Root still sees all.
        assert_eq!(s.sacct(&Credentials::root()).len(), 2);
    }
}
