//! Per-class policy-plane state: one [`ClassState`] per scheduling class,
//! held by the engine in a `Vec` indexed by [`crate::partition::ClassId`].
//!
//! A class is a partition under `fair_share`, or the whole queue otherwise.
//! Everything the policy cycle asks of a class is answered from state that
//! is maintained where it changes, never re-derived per event:
//!
//! | asked per cycle          | answered from            | maintained on                         |
//! |--------------------------|--------------------------|---------------------------------------|
//! | the head                 | first entry of `heads`   | enqueue, dequeue, ledger charge       |
//! | the band-major order     | `qos`                    | enqueue, dequeue                      |
//! | the backfill window      | `fifo`, walked forward   | enqueue, dequeue                      |
//! | blocked-head / shadow    | `head_memo`/`shadow_memo`| the cycle that computed them          |
//! | capacity for planning    | `mirror`                 | every claim/release (`mirror_update`) |
//!
//! # The head index
//!
//! Fair-share picks, inside the top QoS band present, the queued job of
//! the user with the lowest scaled usage, earliest enqueue first among
//! equals. `heads` holds exactly one entry per `(band, user)` with queued
//! work, keyed `(band, score, first queued seq, user)`, so that choice is
//! its first entry. The score is stored **by value** (as its
//! `f64::total_cmp` order key), which is what makes the index a plain
//! ordered map — and why it must be told when a score changes: the engine
//! calls [`ClassState::rescore`] after charging a user and
//! [`ClassState::rebuild_heads`] after the ledger *rebases* (a rebase
//! rescales every score; order is kept up to underflow ties, but the
//! stored values are all stale).

use crate::calendar::ReservationCalendar;
use crate::engine::ShadowNode;
use crate::job::JobId;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::Uid;
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::Bound;

/// A queued job as its class FIFO carries it: what the backfill scan and
/// the dequeue path need, so neither probes the jobs map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// The job.
    pub(crate) job: JobId,
    /// Its wall-time limit (the backfill shadow bound reads only this).
    pub(crate) time_limit: SimDuration,
    /// Its owner.
    pub(crate) user: Uid,
    /// Its QoS band (`255 − rank`, so the highest class iterates first);
    /// 0 for every job while preemption (band-major dispatch) is off.
    pub(crate) band: u8,
}

/// One user's queued work in one band of one class.
#[derive(Debug)]
struct UserQueue {
    /// The user's scaled usage as last told, as a `total_cmp` order key.
    score: i64,
    /// Enqueue-seqs of the user's queued jobs (never empty).
    seqs: BTreeSet<u64>,
}

/// `f64::total_cmp` as an integer key: `a.total_cmp(&b) ==
/// score_key(a).cmp(&score_key(b))` for every pair of floats.
fn score_key(score: f64) -> i64 {
    let bits = score.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Everything the policy plane keeps for one scheduling class.
#[derive(Debug, Default)]
pub(crate) struct ClassState {
    /// Queued jobs in enqueue order: enqueue-seq → job.
    pub(crate) fifo: BTreeMap<u64, Queued>,
    /// Per-`(user, band)` queues (maintained when `fair_share` is on).
    users: BTreeMap<(Uid, u8), UserQueue>,
    /// The fair-share head index (see the module docs).
    heads: BTreeMap<(u8, i64, u64, Uid), JobId>,
    /// QoS band index (maintained when `preemption` is on):
    /// `(band, seq) → job` — highest class first, FIFO inside a band.
    qos: BTreeMap<(u8, u64), JobId>,
    /// The class's reservation calendar (`reservations > 0`).
    pub(crate) calendar: ReservationCalendar,
    /// Failed-head memo `(head, state_version)`: while nothing claimed or
    /// released *and the selected head is unchanged*, a blocked class head
    /// stays blocked.
    pub(crate) head_memo: Option<(JobId, u64)>,
    /// Shadow memo `(head, state_version, shadow)`.
    pub(crate) shadow_memo: Option<(JobId, u64, SimTime)>,
    /// Flat capacity mirror of the class's partition (id-ascending),
    /// built on first use and then maintained on every claim/release —
    /// victim scans and calendar builds are flat copies
    /// instead of node-map walks. Unused for the whole-cluster class,
    /// whose mirror is the engine's own.
    pub(crate) mirror: Vec<ShadowNode>,
    /// Has `mirror` been built against the current partition table?
    pub(crate) mirror_built: bool,
}

impl ClassState {
    /// Append a job at the tail. `key` must exceed every queued key (the
    /// engine hands them out in order), so a user's first queued seq
    /// changes only when they had nothing queued. `score` is asked for
    /// exactly then.
    pub(crate) fn push(
        &mut self,
        key: u64,
        q: Queued,
        fair_share: bool,
        preemption: bool,
        score: impl FnOnce() -> f64,
    ) {
        debug_assert!(self.fifo.keys().next_back().is_none_or(|&last| last < key));
        if fair_share {
            match self.users.entry((q.user, q.band)) {
                Entry::Vacant(v) => {
                    let score = score_key(score());
                    self.heads.insert((q.band, score, key, q.user), q.job);
                    v.insert(UserQueue {
                        score,
                        seqs: BTreeSet::from([key]),
                    });
                }
                Entry::Occupied(mut o) => {
                    o.get_mut().seqs.insert(key);
                }
            }
        }
        if preemption {
            self.qos.insert((q.band, key), q.job);
        }
        self.fifo.insert(key, q);
    }

    /// Remove the job queued under `key` from every index.
    pub(crate) fn remove(&mut self, key: u64) -> Option<Queued> {
        let q = self.fifo.remove(&key)?;
        self.qos.remove(&(q.band, key));
        if let Entry::Occupied(mut o) = self.users.entry((q.user, q.band)) {
            let uq = o.get_mut();
            let was_first = uq.seqs.first() == Some(&key);
            uq.seqs.remove(&key);
            if was_first {
                self.heads.remove(&(q.band, uq.score, key, q.user));
                match uq
                    .seqs
                    .first()
                    .and_then(|s| Some((*s, self.fifo.get(s)?.job)))
                {
                    Some((next, job)) => {
                        self.heads.insert((q.band, uq.score, next, q.user), job);
                    }
                    None => {
                        o.remove();
                    }
                }
            }
        }
        Some(q)
    }

    /// `user`'s scaled usage in this class is now `score`: move their
    /// head-index entries (one per band they have work queued in).
    pub(crate) fn rescore(&mut self, user: Uid, score: f64) {
        let score = score_key(score);
        for (&(_, band), uq) in self.users.range_mut((user, 0)..=(user, u8::MAX)) {
            if let Some(&first) = uq.seqs.first() {
                if let Some(job) = self.heads.remove(&(band, uq.score, first, user)) {
                    self.heads.insert((band, score, first, user), job);
                }
            }
            uq.score = score;
        }
    }

    /// Re-read every score and rebuild the head index from the per-user
    /// queues (after a ledger rebase).
    pub(crate) fn rebuild_heads(&mut self, score: impl Fn(Uid) -> f64) {
        self.heads.clear();
        for (&(user, band), uq) in &mut self.users {
            uq.score = score_key(score(user));
            if let Some((&first, q)) = uq.seqs.first().and_then(|s| self.fifo.get_key_value(s)) {
                self.heads.insert((band, uq.score, first, user), q.job);
            }
        }
    }

    // analyze:hot-path-begin(sched-class-head)
    /// The class's head.
    ///
    /// * fair-share on → the queued job of the user with the lowest
    ///   scaled usage, FIFO tie-break — inside the top QoS band present
    ///   when preemption is also on;
    /// * preemption on (no fair-share) → **QoS-band-major** FIFO: the head
    ///   comes from the highest class present (an urgent arrival surfaces
    ///   immediately instead of aging behind the backlog);
    /// * neither → plain FIFO.
    pub(crate) fn head(&self, fair_share: bool, preemption: bool) -> Option<JobId> {
        if fair_share {
            self.heads.values().next().copied()
        } else if preemption {
            self.qos.values().next().copied()
        } else {
            self.fifo.values().next().map(|q| q.job)
        }
    }

    /// The top-`k` queued jobs in dispatch order, `head` first, into `out`.
    /// With preemption on the order follows the QoS band index (band-major
    /// FIFO — the fair-share within-band refinement is approximated by
    /// band order, which is what dispatch converges to as scores equalize).
    pub(crate) fn top_k(
        &self,
        head: JobId,
        k: usize,
        fair_share: bool,
        preemption: bool,
        out: &mut Vec<JobId>,
        heap: &mut BinaryHeap<Reverse<(i64, u64, Uid)>>,
    ) {
        out.clear();
        out.push(head);
        let rest = k.saturating_sub(1);
        if preemption {
            out.extend(self.qos.values().filter(|&&j| j != head).take(rest));
        } else if fair_share {
            // Fair-share order is (user score, seq): a K-way merge over
            // the per-user seq sets. The k smallest pairs all belong to
            // the first k users of the head index (each user ahead
            // contributes a smaller pair), so only those are merged —
            // O(k log k), never a walk of every user. (Preemption is off
            // on this branch, so every band is 0.)
            heap.clear();
            heap.extend(
                self.heads
                    .keys()
                    .take(k)
                    .map(|&(_, score, seq, user)| Reverse((score, seq, user))),
            );
            while out.len() < k {
                let Some(Reverse((score, seq, user))) = heap.pop() else {
                    break;
                };
                if let Some(q) = self.fifo.get(&seq).filter(|q| q.job != head) {
                    out.push(q.job);
                }
                // Advance this user's cursor to their next queued seq.
                let next = self.users.get(&(user, 0)).and_then(|uq| {
                    uq.seqs
                        .range((Bound::Excluded(seq), Bound::Unbounded))
                        .next()
                });
                if let Some(&next) = next {
                    heap.push(Reverse((score, next, user)));
                }
            }
        } else {
            out.extend(
                self.fifo
                    .values()
                    .map(|q| q.job)
                    .filter(|&j| j != head)
                    .take(rest),
            );
        }
    }
    // analyze:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(job: u64, user: u32, band: u8) -> Queued {
        Queued {
            job: JobId(job),
            time_limit: SimDuration::from_secs(60),
            user: Uid(user),
            band,
        }
    }

    #[test]
    fn score_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    a.total_cmp(&b),
                    score_key(a).cmp(&score_key(b)),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// What the pre-index engine computed on every cycle: scan every
    /// `(band, user)` queue of the top band for the lowest `(score, seq)`.
    fn scan_head(cs: &ClassState, scores: &BTreeMap<Uid, f64>) -> Option<JobId> {
        let top = cs.users.keys().map(|&(_, band)| band).min()?;
        cs.users
            .iter()
            .filter(|(&(_, band), _)| band == top)
            .map(|(&(user, _), uq)| {
                let seq = *uq.seqs.first().expect("empty queues are removed");
                (scores.get(&user).copied().unwrap_or(0.0), seq)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, seq)| cs.fifo[&seq].job)
    }

    #[test]
    fn head_index_tracks_a_scan_through_pushes_removes_and_rescoring() {
        let mut cs = ClassState::default();
        let mut scores: BTreeMap<Uid, f64> = BTreeMap::new();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut key = 0u64;
        for step in 0..4000 {
            match next() % 10 {
                0..=4 => {
                    let user = (next() % 7) as u32;
                    let band = 252 + (next() % 3) as u8;
                    let s = scores.get(&Uid(user)).copied().unwrap_or(0.0);
                    cs.push(key, q(key + 1, user, band), true, true, || s);
                    key += 1;
                }
                5..=7 => {
                    let keys: Vec<u64> = cs.fifo.keys().copied().collect();
                    if !keys.is_empty() {
                        let k = keys[(next() % keys.len() as u64) as usize];
                        assert!(cs.remove(k).is_some());
                    }
                }
                8 => {
                    let user = Uid((next() % 7) as u32);
                    // Coarse charges so equal scores (FIFO tie-breaks) occur.
                    let s = scores.entry(user).or_insert(0.0);
                    *s += (next() % 3) as f64 * 100.0;
                    cs.rescore(user, *s);
                }
                _ => {
                    // A rebase: every score shrinks by the same factor.
                    for s in scores.values_mut() {
                        *s *= 0.25;
                    }
                    cs.rebuild_heads(|u| scores.get(&u).copied().unwrap_or(0.0));
                }
            }
            assert_eq!(cs.head(true, true), scan_head(&cs, &scores), "step {step}");
            assert_eq!(cs.heads.len(), cs.users.len());
            assert_eq!(cs.qos.len(), cs.fifo.len());
        }
        // Drain: every index empties with the FIFO.
        let keys: Vec<u64> = cs.fifo.keys().copied().collect();
        for k in keys {
            cs.remove(k);
        }
        assert!(cs.users.is_empty() && cs.heads.is_empty() && cs.qos.is_empty());
    }

    #[test]
    fn top_k_in_fair_share_order_merges_only_the_leading_users() {
        let mut cs = ClassState::default();
        // Scores: u1 = 5, u2 = 0, u3 = 0 — u2/u3 tie and interleave by seq.
        let score = |u: u32| if u == 1 { 5.0 } else { 0.0 };
        for (key, user) in [(0, 1), (1, 2), (2, 3), (3, 2), (4, 1), (5, 3)] {
            cs.push(key, q(key + 1, user, 0), true, false, || score(user));
        }
        let head = cs.head(true, false).unwrap();
        assert_eq!(head, JobId(2), "u2's first job: lowest score, earliest seq");
        let (mut out, mut heap) = (Vec::new(), BinaryHeap::new());
        cs.top_k(head, 4, true, false, &mut out, &mut heap);
        assert_eq!(out, vec![JobId(2), JobId(3), JobId(4), JobId(6)]);
        cs.top_k(head, 6, true, false, &mut out, &mut heap);
        assert_eq!(
            out,
            vec![JobId(2), JobId(3), JobId(4), JobId(6), JobId(1), JobId(5)]
        );
    }
}
