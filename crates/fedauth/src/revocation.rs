//! The revocation list: O(1) hot-path membership checks, additions are
//! irreversible by construction (no removal API — a revoked serial stays
//! revoked for the life of the realm, exactly like a CRL entry for a
//! credential that never leaves its validity window un-revoked).
//!
//! Beyond the membership set, the list keeps a **sequence-numbered,
//! append-only delta log**: entry *k* (1-based) is the *k*-th serial ever
//! revoked at this realm. The log is what `eus-revsync` ships between
//! realms — a sister site holding entries `1..=n` asks for (or is pushed)
//! everything after `n`, and because revocation is irreversible the log
//! never rewrites history: replicas converge by append alone.
//!
//! **Compaction.** The tail of the log can be truncated below a floor once
//! every subscriber has acked past it ([`compact_below`]): the membership
//! set (the thing verification reads) is untouched, sequence numbers never
//! renumber, and a subscriber somehow below the floor re-bootstraps from a
//! full membership snapshot instead of a delta. So long soaks don't grow
//! the log without bound.
//!
//! [`compact_below`]: RevocationList::compact_below

use crate::ca::CredSerial;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// The per-set secret a [`SerialSet`] hashes under.
///
/// Membership is probed on every validation, so the set hashes a serial
/// with one keyed splitmix round ([`crate::splitmix64`]) instead of
/// SipHash. Probes are safe either way — a serial reaches `is_revoked`
/// only after its credential's MAC verified — but *insertions* arrive in
/// sister-realm CRL deltas, so the hash must not be aimable from the
/// serials alone: each set is keyed from seeded secret material (the
/// issuing realm's CA key, see
/// [`CertificateAuthority::serial_set_key`](crate::CertificateAuthority::serial_set_key))
/// and opaque — nothing outside this module can read the secret back.
/// Deterministic per seed; iteration order
/// depends on the key and must stay unobservable (the one iterating
/// caller, [`RevocationList::snapshot`], sorts).
#[derive(Clone, Copy)]
pub struct SerialSetKey(u64);

impl SerialSetKey {
    /// Derive a set key from secret material (domain-separated, so the
    /// hash key is never the MAC key itself).
    pub fn from_secret(secret: u64) -> Self {
        SerialSetKey(crate::splitmix64(secret ^ 0x5E71_A15E_7C0D_E5ED))
    }
}

impl fmt::Debug for SerialSetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SerialSetKey(..)")
    }
}

impl BuildHasher for SerialSetKey {
    type Hasher = SerialHasher;

    fn build_hasher(&self) -> SerialHasher {
        SerialHasher(self.0)
    }
}

/// [`SerialSetKey`]'s hasher: one splitmix round per 64-bit word, keyed by
/// the running state.
#[derive(Debug)]
pub struct SerialHasher(u64);

impl Hasher for SerialHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = crate::splitmix64(self.0 ^ word);
    }

    /// Not reached by [`CredSerial`] (its `Hash` writes one `u64`); kept
    /// total so the hasher is a lawful [`Hasher`].
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of credential serials under a keyed one-round hash — the
/// membership structure behind both the issuer's [`RevocationList`] and a
/// sister site's CRL replica.
pub type SerialSet = HashSet<CredSerial, SerialSetKey>;

/// The set of revoked credential serials, plus the append-only delta log
/// recording the order in which they were revoked.
#[derive(Debug, Clone)]
pub struct RevocationList {
    revoked: SerialSet,
    /// Insertion-ordered log tail: `log[k]` is the serial with sequence
    /// number `compacted + k + 1`. Never reordered; the prefix below
    /// `compacted` has been truncated away.
    log: Vec<CredSerial>,
    /// How many leading log entries have been compacted away. Sequence
    /// numbers stay dense and 1-based: the oldest retained entry has
    /// sequence number `compacted + 1`.
    compacted: u64,
}

impl RevocationList {
    /// An empty list whose membership set hashes under `key`.
    pub fn new(key: SerialSetKey) -> Self {
        RevocationList {
            revoked: SerialSet::with_hasher(key),
            log: Vec::new(),
            compacted: 0,
        }
    }

    /// Revoke a serial. Returns true the first time, false if it was
    /// already revoked. There is deliberately no inverse operation.
    pub fn revoke(&mut self, serial: CredSerial) -> bool {
        let fresh = self.revoked.insert(serial);
        if fresh {
            self.log.push(serial);
        }
        fresh
    }

    /// O(1) hot-path check.
    #[inline]
    pub fn is_revoked(&self, serial: CredSerial) -> bool {
        self.revoked.contains(&serial)
    }

    /// The membership set itself: what a verdict probes
    /// ([`crate::CertificateAuthority::validate_token`]).
    #[inline]
    pub fn serials(&self) -> &SerialSet {
        &self.revoked
    }

    /// Number of revoked serials.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// True when nothing has been revoked.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }

    /// The log head: the sequence number of the newest entry (0 when
    /// nothing was ever revoked). Sequence numbers are 1-based and dense,
    /// and survive compaction unchanged.
    pub fn head(&self) -> u64 {
        self.compacted + self.log.len() as u64
    }

    /// The compaction floor: the highest sequence number that has been
    /// truncated out of the log (0 when never compacted). Deltas are only
    /// available for `since >= floor()`.
    pub fn floor(&self) -> u64 {
        self.compacted
    }

    /// The delta after sequence number `since`, oldest first.
    /// `entries_since(head())` is empty. `since` below the compaction
    /// [`floor`](Self::floor) clamps to the floor — callers that need the
    /// truncated history must take the [`snapshot`](Self::snapshot) path
    /// instead (the mesh checks `floor()` first).
    pub fn entries_since(&self, since: u64) -> &[CredSerial] {
        let from = (since.saturating_sub(self.compacted) as usize).min(self.log.len());
        &self.log[from..]
    }

    /// Truncate log entries with sequence number `<= upto` (clamped to the
    /// current head). Membership is untouched; returns how many entries
    /// were dropped. Callers must only pass frontiers every subscriber has
    /// acked past — the mesh computes that minimum.
    pub fn compact_below(&mut self, upto: u64) -> u64 {
        let upto = upto.min(self.head());
        if upto <= self.compacted {
            return 0;
        }
        let drop = (upto - self.compacted) as usize;
        self.log.drain(..drop);
        self.compacted = upto;
        drop as u64
    }

    /// The full membership set, sorted by serial: the bootstrap payload for
    /// a subscriber whose frontier fell below the compaction floor.
    /// Sorting makes the snapshot order seed-stable.
    pub fn snapshot(&self) -> Vec<CredSerial> {
        // analyze:allow(sim-determinism): SerialSet is a keyed HashSet whose
        // iteration order depends on the set's key; it feeds a sort, so the
        // emitted order is independent of hash order and of the key.
        let mut all: Vec<CredSerial> = self.revoked.iter().copied().collect();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn list() -> RevocationList {
        RevocationList::new(SerialSetKey::from_secret(0xC0FFEE))
    }

    /// The two serial patterns the workspace produces: a shard's CA mints
    /// `index + k·stride`, and the benchmark pre-seeds dense runs at
    /// `10_000_000·(realm) + i`.
    fn serial_patterns() -> Vec<(String, Vec<CredSerial>)> {
        let mut out = Vec::new();
        for stride in [1u64, 4, 8] {
            for index in 0..stride {
                out.push((
                    format!("stride {stride}, residue {index}"),
                    (1..=50_000u64)
                        .map(|k| CredSerial(index + k * stride))
                        .collect(),
                ));
            }
        }
        for realm in 1..=3u64 {
            out.push((
                format!("dense run at {realm}0M"),
                (0..50_000u64)
                    .map(|i| CredSerial(10_000_000 * realm + i))
                    .collect(),
            ));
        }
        out
    }

    #[test]
    fn minted_and_preseeded_serials_spread_over_control_bytes_and_buckets() {
        // hashbrown tags a slot with the hash's top 7 bits and picks the
        // probe start from its low bits: both must look uniform on the
        // arithmetic progressions serials actually form.
        let patterns = serial_patterns();
        for secret in [0u64, 1, 0x5EED_FEDA, u64::MAX] {
            let key = SerialSetKey::from_secret(secret);
            for (what, serials) in &patterns {
                let tags: BTreeSet<u64> = serials.iter().map(|s| key.hash_one(s) >> 57).collect();
                assert!(
                    tags.len() >= 120,
                    "{what}: only {} of 128 control bytes used",
                    tags.len()
                );
                for bits in [4u32, 10] {
                    let buckets: BTreeSet<u64> = serials
                        .iter()
                        .map(|s| key.hash_one(s) & ((1 << bits) - 1))
                        .collect();
                    assert_eq!(
                        buckets.len(),
                        1 << bits,
                        "{what}: low {bits} bits leave buckets empty"
                    );
                }
            }
        }
    }

    #[test]
    fn the_key_moves_the_order_but_never_the_membership_or_the_snapshot() {
        let serials: Vec<CredSerial> = (1..=2_000u64).map(|k| CredSerial(3 + 4 * k)).collect();
        let mut a = RevocationList::new(SerialSetKey::from_secret(1));
        let mut b = RevocationList::new(SerialSetKey::from_secret(2));
        let mut again = RevocationList::new(SerialSetKey::from_secret(1));
        for s in &serials {
            assert!(a.revoke(*s) && b.revoke(*s) && again.revoke(*s));
        }
        let order = |rl: &RevocationList| rl.revoked.iter().copied().collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "different keys, different layouts");
        assert_eq!(order(&a), order(&again), "same key, same layout");
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.entries_since(0), b.entries_since(0));
        for s in &serials {
            assert!(a.is_revoked(*s) && b.is_revoked(*s));
            assert!(!a.is_revoked(CredSerial(s.0 + 1)) && !b.is_revoked(CredSerial(s.0 + 1)));
        }
    }

    #[test]
    fn the_byte_path_agrees_with_the_word_path() {
        let key = SerialSetKey::from_secret(9);
        let mut by_word = key.build_hasher();
        by_word.write_u64(0x0123_4567_89AB_CDEF);
        let mut by_bytes = key.build_hasher();
        by_bytes.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(by_word.finish(), by_bytes.finish());
        assert_eq!(
            format!("{key:?}"),
            "SerialSetKey(..)",
            "the key never prints"
        );
    }

    #[test]
    fn revocation_is_immediate_and_sticky() {
        let mut rl = list();
        assert!(!rl.is_revoked(CredSerial(1)));
        assert!(rl.revoke(CredSerial(1)));
        assert!(rl.is_revoked(CredSerial(1)));
        assert!(!rl.revoke(CredSerial(1)), "second revoke is a no-op");
        assert_eq!(rl.len(), 1);
        assert!(!rl.is_empty());
    }

    #[test]
    fn delta_log_appends_in_order_and_dedupes() {
        let mut rl = list();
        assert_eq!(rl.head(), 0);
        assert!(rl.entries_since(0).is_empty());
        rl.revoke(CredSerial(5));
        rl.revoke(CredSerial(3));
        rl.revoke(CredSerial(5)); // duplicate: no log entry
        rl.revoke(CredSerial(9));
        assert_eq!(rl.head(), 3);
        assert_eq!(
            rl.entries_since(0),
            &[CredSerial(5), CredSerial(3), CredSerial(9)]
        );
        assert_eq!(rl.entries_since(2), &[CredSerial(9)]);
        assert!(rl.entries_since(3).is_empty());
        // Asking past the head is not an error (a replica that somehow got
        // ahead — impossible via the feed — just gets nothing).
        assert!(rl.entries_since(99).is_empty());
    }

    #[test]
    fn compaction_preserves_membership_sequence_numbers_and_snapshot() {
        let mut rl = list();
        for s in [7u64, 3, 11, 5, 9] {
            rl.revoke(CredSerial(s));
        }
        assert_eq!(rl.head(), 5);
        assert_eq!(rl.compact_below(3), 3, "drops entries 1..=3");
        assert_eq!(rl.floor(), 3);
        assert_eq!(rl.head(), 5, "head survives compaction");
        // Membership is untouched.
        for s in [7u64, 3, 11, 5, 9] {
            assert!(rl.is_revoked(CredSerial(s)));
        }
        // Deltas above the floor still address by original sequence number.
        assert_eq!(rl.entries_since(3), &[CredSerial(5), CredSerial(9)]);
        assert_eq!(rl.entries_since(4), &[CredSerial(9)]);
        // Below the floor the delta clamps (callers check floor() first and
        // take the snapshot path).
        assert_eq!(rl.entries_since(0), &[CredSerial(5), CredSerial(9)]);
        // Snapshot is the full sorted membership.
        assert_eq!(
            rl.snapshot(),
            vec![
                CredSerial(3),
                CredSerial(5),
                CredSerial(7),
                CredSerial(9),
                CredSerial(11)
            ]
        );
        // Re-compacting below the floor is a no-op; compacting past head clamps.
        assert_eq!(rl.compact_below(2), 0);
        assert_eq!(rl.compact_below(99), 2);
        assert_eq!(rl.floor(), 5);
        assert!(rl.entries_since(5).is_empty());
    }
}
