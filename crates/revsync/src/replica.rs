//! Local CRL replicas and the deltas that feed them.
//!
//! A [`CrlReplica`] is one site's local copy of a *sister realm's*
//! revocation state: the set of revoked serials plus two freshness facts —
//! how far through the issuer's delta log the replica has applied
//! ([`applied_seq`](CrlReplica::applied_seq)) and the issuer-side instant
//! the replica last provably reflected (the start of its
//! [`lag`](CrlReplica::lag)). Validation consults the replica
//! *instead of* the issuer, so the hot path never leaves the site; the
//! price is staleness, and the staleness is bounded: past the budget the
//! replica refuses to judge at all
//! ([`CredError::StaleReplica`]).
//!
//! Replicas converge by append alone. Revocation is irreversible at the
//! issuer (`RevocationList` has no removal API), so a delta can only add
//! serials — and [`CrlReplica::apply`] has no removal path either. A serial
//! seen revoked once stays revoked in every replica forever, whatever order
//! deltas arrive in (the regression property `tests/revsync_properties.rs`
//! pins).

use eus_fedauth::{CredError, CredSerial, RealmId, RealmVerifier, SerialSet, SignedToken};
use eus_obs::TraceCtx;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::Uid;

/// One batch of revocation-log entries in flight from an issuer to a
/// replica: entries `first_seq ..= head` of the issuer's log, snapshotted
/// at `as_of` on the shared simulation clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrlDelta {
    /// The issuing realm.
    pub issuer: RealmId,
    /// Sequence number of the first entry carried (1-based). A delta with
    /// `serials.is_empty()` is a pure heartbeat: `first_seq == head + 1`.
    pub first_seq: u64,
    /// The entries, oldest first.
    pub serials: Vec<CredSerial>,
    /// The issuer's log head at snapshot time (`first_seq - 1 +
    /// serials.len()`).
    pub head: u64,
    /// When the issuer snapshotted its log (the freshness a successful
    /// apply proves).
    pub as_of: SimTime,
    /// Causal trace context for the newest traced revocation this delta
    /// carries ([`TraceCtx::NONE`] when tracing is off or no carried entry
    /// was traced). Rides inside the feed framing's fixed 48-byte header —
    /// [`wire_bytes`](Self::wire_bytes) is *independent* of it, so a traced
    /// replay charges the fabric exactly what a quiet one does.
    pub trace: TraceCtx,
}

impl CrlDelta {
    /// Wire size in bytes under the feed's framing (fixed header + one
    /// serial per entry); what the fabric's transfer-time model charges.
    pub fn wire_bytes(&self) -> usize {
        Self::wire_bytes_for(self.serials.len())
    }

    /// [`wire_bytes`](Self::wire_bytes) from an entry count alone (sizing
    /// a transfer without materializing the delta).
    pub fn wire_bytes_for(entries: usize) -> usize {
        48 + 8 * entries
    }
}

/// What [`CrlReplica::apply`] did with a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Entries applied (possibly zero new ones — overlap and heartbeats
    /// still refresh `last_sync`). Carries how many serials were new.
    Applied(usize),
    /// The delta starts past the replica's frontier — an earlier feed was
    /// lost in transit — so applying it would leave a hole in the log.
    /// Nothing is applied and freshness is NOT refreshed; pull-based
    /// anti-entropy repairs the gap.
    Gap {
        /// The sequence number the replica needs next.
        expected: u64,
    },
}

/// A site-local replica of one sister realm's CRL, plus the verification
/// capability ([`RealmVerifier`]) exported by that realm at
/// trust-establishment time — together, everything cross-realm validation
/// needs without a synchronous issuer query.
#[derive(Debug, Clone)]
pub struct CrlReplica {
    realm: RealmId,
    verifier: RealmVerifier,
    /// Hashed under the issuer's key, which the verifier export carries.
    revoked: SerialSet,
    applied_seq: u64,
    last_sync: SimTime,
    /// Context of the newest traced delta applied here (the "apply" span's
    /// children — fail-closed denials — parent under it). Pure
    /// measurement: never consulted by `apply` or validation.
    last_trace: TraceCtx,
}

impl CrlReplica {
    /// Bootstrap a replica from a full CRL snapshot (the registration-time
    /// state transfer): `serials` is the issuer's entire log, `head` its
    /// length, `now` the bootstrap instant.
    pub fn bootstrap(
        realm: RealmId,
        verifier: RealmVerifier,
        serials: Vec<CredSerial>,
        now: SimTime,
    ) -> Self {
        let applied_seq = serials.len() as u64;
        let mut revoked = SerialSet::with_hasher(verifier.serial_set_key());
        revoked.extend(serials);
        CrlReplica {
            realm,
            verifier,
            revoked,
            applied_seq,
            last_sync: now,
            last_trace: TraceCtx::NONE,
        }
    }

    /// Context of the newest traced delta applied here.
    pub fn last_trace(&self) -> TraceCtx {
        self.last_trace
    }

    /// Remember the trace context a just-applied delta continued (the mesh
    /// calls this after recording the apply span).
    pub fn set_last_trace(&mut self, ctx: TraceCtx) {
        self.last_trace = ctx;
    }

    /// How far through the issuer's delta log this replica has applied.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// How stale the replica is at `now`.
    pub fn lag(&self, now: SimTime) -> SimDuration {
        now.since(self.last_sync)
    }

    /// Number of revoked serials known locally.
    // analyze:allow(dead-pub): resident size of the replicated revoked set, the operator's capacity read
    pub fn revoked_count(&self) -> usize {
        self.revoked.len()
    }

    /// O(1) local membership check.
    #[inline]
    // analyze:allow(dead-pub): whether the replica has learned a serial, the convergence read
    pub fn is_revoked(&self, serial: CredSerial) -> bool {
        self.revoked.contains(&serial)
    }

    /// Apply a delta. Entries at or below the current frontier are skipped
    /// (overlap is harmless — the set union is idempotent); entries beyond
    /// `first_seq`'s contiguity are refused as a [`ApplyOutcome::Gap`].
    /// There is no removal path: a replica can only learn revocations,
    /// never forget them.
    pub fn apply(&mut self, delta: &CrlDelta) -> ApplyOutcome {
        if delta.first_seq > self.applied_seq + 1 {
            return ApplyOutcome::Gap {
                expected: self.applied_seq + 1,
            };
        }
        let mut fresh = 0usize;
        for (i, serial) in delta.serials.iter().enumerate() {
            let seq = delta.first_seq + i as u64;
            if seq <= self.applied_seq {
                continue; // overlap with already-applied history
            }
            if self.revoked.insert(*serial) {
                fresh += 1;
            }
            self.applied_seq = seq;
        }
        // A successful (gap-free) exchange proves the replica reflected the
        // issuer's log as of the snapshot — heartbeats refresh freshness
        // even when they carry nothing.
        if delta.head <= self.applied_seq && delta.as_of > self.last_sync {
            self.last_sync = delta.as_of;
        }
        ApplyOutcome::Applied(fresh)
    }

    /// Absorb a full membership snapshot — the repair path for a replica
    /// whose frontier fell below the issuer's compaction floor, where no
    /// contiguous delta exists any more. A pure set union (there is still
    /// no removal path), then the frontier jumps to the issuer's `head`
    /// and a newer `as_of` refreshes freshness. No gap is possible: the
    /// snapshot is the complete history by construction. Returns how many
    /// serials were new.
    pub fn absorb_snapshot(&mut self, serials: &[CredSerial], head: u64, as_of: SimTime) -> usize {
        let mut fresh = 0usize;
        for serial in serials {
            if self.revoked.insert(*serial) {
                fresh += 1;
            }
        }
        if head > self.applied_seq {
            self.applied_seq = head;
        }
        if as_of > self.last_sync {
            self.last_sync = as_of;
        }
        fresh
    }

    // analyze:hot-path-begin(replica-lookup)
    /// Validate a bearer token against the replica with a staleness budget:
    /// refuse outright when the replica is older than `max_lag` (bounded
    /// staleness fails closed), otherwise the routine the issuing plane
    /// itself judges with ([`RealmVerifier::validate_token`]) over the
    /// local revoked set. No issuer contact.
    pub fn validate_token(
        &self,
        token: &SignedToken,
        now: SimTime,
        max_lag: SimDuration,
    ) -> Result<Uid, CredError> {
        self.check_fresh(now, max_lag)?;
        self.verifier.validate_token(token, now, &self.revoked)
    }

    fn check_fresh(&self, now: SimTime, max_lag: SimDuration) -> Result<(), CredError> {
        let lag = self.lag(now);
        if lag > max_lag {
            return Err(CredError::StaleReplica {
                realm: self.realm,
                lag,
            });
        }
        Ok(())
    }
    // analyze:hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_fedauth::{BrokerPolicy, CredentialBroker};
    use eus_simos::UserDb;

    fn issuer() -> (UserDb, CredentialBroker, Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let broker = CredentialBroker::new(RealmId(2), 9, BrokerPolicy::default());
        (db, broker, alice)
    }

    fn delta(issuer: RealmId, first: u64, serials: &[u64], as_of: SimTime) -> CrlDelta {
        CrlDelta {
            issuer,
            first_seq: first,
            serials: serials.iter().map(|&s| CredSerial(s)).collect(),
            head: first - 1 + serials.len() as u64,
            as_of,
            trace: TraceCtx::NONE,
        }
    }

    #[test]
    fn replica_judges_tokens_without_the_issuer() {
        let (db, mut b, alice) = issuer();
        let token = b.login(&db, alice, None).unwrap();
        let mut replica = CrlReplica::bootstrap(
            RealmId(2),
            b.verifier(),
            b.revocations_since(0),
            SimTime::ZERO,
        );
        let budget = SimDuration::from_secs(600);
        assert_eq!(
            replica
                .validate_token(&token, SimTime::ZERO, budget)
                .unwrap(),
            alice
        );
        // Issuer revokes; the replica only learns via a delta.
        b.revoke_serial(token.serial);
        assert!(replica
            .validate_token(&token, SimTime::ZERO, budget)
            .is_ok());
        let d = delta(RealmId(2), 1, &[token.serial.0], SimTime::from_secs(1));
        assert_eq!(replica.apply(&d), ApplyOutcome::Applied(1));
        assert_eq!(
            replica.validate_token(&token, SimTime::from_secs(1), budget),
            Err(CredError::Revoked(token.serial))
        );
    }

    #[test]
    fn gap_refused_overlap_skipped_heartbeat_refreshes() {
        let (_, b, _) = issuer();
        let mut r = CrlReplica::bootstrap(RealmId(2), b.verifier(), vec![], SimTime::ZERO);
        // Gap: entry 3 before entries 1-2 → refused, freshness untouched.
        let out = r.apply(&delta(RealmId(2), 3, &[30], SimTime::from_secs(5)));
        assert_eq!(out, ApplyOutcome::Gap { expected: 1 });
        assert_eq!(r.last_sync, SimTime::ZERO);
        assert_eq!(r.applied_seq(), 0);
        // Contiguous catch-up applies.
        assert_eq!(
            r.apply(&delta(RealmId(2), 1, &[10, 20, 30], SimTime::from_secs(6))),
            ApplyOutcome::Applied(3)
        );
        assert_eq!(r.applied_seq(), 3);
        assert_eq!(r.last_sync, SimTime::from_secs(6));
        // Overlap: entries 2-4 re-apply only entry 4.
        assert_eq!(
            r.apply(&delta(RealmId(2), 2, &[20, 30, 40], SimTime::from_secs(7))),
            ApplyOutcome::Applied(1)
        );
        assert_eq!(r.applied_seq(), 4);
        // Heartbeat: empty delta refreshes freshness.
        let hb = CrlDelta {
            issuer: RealmId(2),
            first_seq: 5,
            serials: vec![],
            head: 4,
            as_of: SimTime::from_secs(60),
            trace: TraceCtx::NONE,
        };
        assert_eq!(r.apply(&hb), ApplyOutcome::Applied(0));
        assert_eq!(r.last_sync, SimTime::from_secs(60));
        // A stale (out-of-order) heartbeat never rewinds freshness.
        let old_hb = CrlDelta {
            as_of: SimTime::from_secs(30),
            ..hb
        };
        r.apply(&old_hb);
        assert_eq!(r.last_sync, SimTime::from_secs(60));
    }

    #[test]
    fn snapshot_absorption_unions_and_jumps_the_frontier() {
        let (_, b, _) = issuer();
        let mut r = CrlReplica::bootstrap(RealmId(2), b.verifier(), vec![], SimTime::ZERO);
        // Replica knows entries 1-2; issuer compacted below 5 and ships the
        // full membership (sorted by serial, not log order).
        r.apply(&delta(RealmId(2), 1, &[10, 20], SimTime::from_secs(1)));
        let snapshot = [
            CredSerial(5),
            CredSerial(10),
            CredSerial(20),
            CredSerial(30),
            CredSerial(40),
        ];
        let fresh = r.absorb_snapshot(&snapshot, 5, SimTime::from_secs(9));
        assert_eq!(fresh, 3, "10 and 20 were already known");
        assert_eq!(r.applied_seq(), 5);
        assert_eq!(r.last_sync, SimTime::from_secs(9));
        assert_eq!(r.revoked_count(), 5);
        for s in snapshot {
            assert!(r.is_revoked(s));
        }
        // A stale snapshot never rewinds the frontier or freshness, and
        // never un-revokes.
        let fresh = r.absorb_snapshot(&[CredSerial(5)], 1, SimTime::from_secs(2));
        assert_eq!(fresh, 0);
        assert_eq!(r.applied_seq(), 5);
        assert_eq!(r.last_sync, SimTime::from_secs(9));
    }

    #[test]
    fn staleness_budget_fails_closed() {
        let (db, mut b, alice) = issuer();
        let token = b.login(&db, alice, None).unwrap();
        let replica = CrlReplica::bootstrap(RealmId(2), b.verifier(), vec![], SimTime::ZERO);
        let budget = SimDuration::from_secs(100);
        assert!(replica
            .validate_token(&token, SimTime::from_secs(100), budget)
            .is_ok());
        let verdict = replica.validate_token(&token, SimTime::from_secs(101), budget);
        assert_eq!(
            verdict,
            Err(CredError::StaleReplica {
                realm: RealmId(2),
                lag: SimDuration::from_secs(101),
            })
        );
    }
}
