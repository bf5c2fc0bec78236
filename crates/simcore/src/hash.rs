//! Keyed one-round hashing for the simulator's hot tables.
//!
//! Every per-event hash table in the workspace — the revoked-serial sets,
//! the per-host conntrack tables, the UBF decision caches — hashes its key
//! with one [`splitmix64`] round per 64-bit word under a secret
//! [`HashKey`], instead of std's SipHash. A key type that wants one or two
//! rounds writes itself as one or two `u64` words (`Hasher::write_u64`).
//!
//! The key is what keeps the cheap hash safe: table contents can come from
//! outside the table's owner (sister-realm CRL deltas, user-chosen ports
//! and uids), so the hash must not be aimable from the keys alone. Each
//! table is keyed from secret material and the key is opaque — nothing
//! outside this module can read it back. Hashing is deterministic per key,
//! but iteration order depends on the key, so it must never reach a
//! decision. [`KeyedMap`] and [`KeyedSet`] make that a type error rather
//! than a convention: they wrap std's tables and offer point operations
//! only, and [`KeyedSet::sorted`] is the one way to read a set's members.
//! Their `Debug` prints the entry count, not the entries. The workspace's
//! `crates/clippy.toml` disallows std's `HashMap` and `HashSet`
//! everywhere else, so no table on another hasher, and no table that
//! iterates, can appear in `crates/*`.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// splitmix64 finalizer: the workspace's one bit-mixing primitive (hash
/// rounds here; the credential broker's seed derivation, TOTP window codes
/// and the portal's keyed token fold elsewhere). Kept in one place so the constants cannot drift
/// between call sites.
#[inline]
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-table secret a [`KeyedMap`] / [`KeyedSet`] hashes under.
#[derive(Clone, Copy)]
pub struct HashKey(u64);

impl HashKey {
    /// Derive a table key from secret material (domain-separated, so the
    /// hash key is never the secret itself — a CA's MAC key, say).
    pub const fn from_secret(secret: u64) -> Self {
        HashKey(splitmix64(secret ^ 0x5E71_A15E_7C0D_E5ED))
    }
}

impl fmt::Debug for HashKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HashKey(..)")
    }
}

impl BuildHasher for HashKey {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher(self.0)
    }
}

/// [`HashKey`]'s hasher: one splitmix round per 64-bit word, keyed by the
/// running state.
#[derive(Debug)]
pub struct KeyedHasher(u64);

impl Hasher for KeyedHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    /// The path for key types that do not write whole words: one round per
    /// (zero-padded) 8-byte chunk, so it agrees with
    /// [`write_u64`](Self::write_u64) on a little-endian word.
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

// The two std tables behind the wrappers: the only place in `crates/*`
// that names them (clippy's `disallowed-types`).
#[allow(clippy::disallowed_types)]
type StdMap<K, V> = std::collections::HashMap<K, V, HashKey>;
#[allow(clippy::disallowed_types)]
type StdSet<T> = std::collections::HashSet<T, HashKey>;

/// A hash map on the keyed one-round hasher, with point operations only:
/// nothing walks it, so its key-dependent order cannot reach a caller.
///
/// ```
/// use eus_simcore::{HashKey, KeyedMap};
/// let mut m = KeyedMap::with_hasher(HashKey::from_secret(1));
/// m.insert(7u64, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
///
/// Walking one does not compile, whichever way it is tried:
///
/// ```compile_fail,E0277
/// use eus_simcore::{HashKey, KeyedMap};
/// let m: KeyedMap<u64, u64> = KeyedMap::with_hasher(HashKey::from_secret(1));
/// for _ in &m {}
/// ```
///
/// ```compile_fail,E0599
/// use eus_simcore::{HashKey, KeyedMap};
/// let m: KeyedMap<u64, u64> = KeyedMap::with_hasher(HashKey::from_secret(1));
/// let _ = m.iter();
/// ```
///
/// ```compile_fail,E0599
/// use eus_simcore::{HashKey, KeyedMap};
/// let m: KeyedMap<u64, u64> = KeyedMap::with_hasher(HashKey::from_secret(1));
/// let _ = m.keys();
/// ```
#[derive(Clone)]
pub struct KeyedMap<K, V>(StdMap<K, V>);

impl<K: Eq + Hash, V> KeyedMap<K, V> {
    /// An empty map hashing under `key`; it reserves nothing.
    #[inline]
    pub fn with_hasher(key: HashKey) -> Self {
        KeyedMap(StdMap::with_hasher(key))
    }

    /// The value stored under `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.0.get(k)
    }

    /// Store `v` under `k`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.0.insert(k, v)
    }

    /// Remove `k`, returning its value.
    #[inline]
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.0.remove(k)
    }

    /// Number of entries.
    #[inline]
    // analyze:allow(dead-pub): the entry count the UBF cache's FIFO tests check against their model
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the map holds nothing.
    #[inline]
    // analyze:allow(dead-pub): the emptiness check that goes with `len` (clippy::len_without_is_empty)
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drop every entry, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K, V> fmt::Debug for KeyedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedMap")
            .field("len", &self.0.len())
            .finish_non_exhaustive()
    }
}

/// A hash set on the keyed one-round hasher, with point operations only.
/// [`sorted`](Self::sorted) is the one way to read its members, in an
/// order no key can move.
///
/// ```
/// use eus_simcore::{HashKey, KeyedSet};
/// let mut s = KeyedSet::with_hasher(HashKey::from_secret(1));
/// s.extend([9u64, 3, 5]);
/// assert!(s.contains(&3) && !s.contains(&4));
/// assert_eq!(s.sorted(), [3, 5, 9]);
/// ```
///
/// Walking one does not compile, whichever way it is tried:
///
/// ```compile_fail,E0277
/// use eus_simcore::{HashKey, KeyedSet};
/// let s: KeyedSet<u64> = KeyedSet::with_hasher(HashKey::from_secret(1));
/// for _ in &s {}
/// ```
///
/// ```compile_fail,E0599
/// use eus_simcore::{HashKey, KeyedSet};
/// let s: KeyedSet<u64> = KeyedSet::with_hasher(HashKey::from_secret(1));
/// let _ = s.iter();
/// ```
///
/// ```compile_fail,E0599
/// use eus_simcore::{HashKey, KeyedSet};
/// let mut s: KeyedSet<u64> = KeyedSet::with_hasher(HashKey::from_secret(1));
/// let _ = s.drain();
/// ```
#[derive(Clone)]
pub struct KeyedSet<T>(StdSet<T>);

impl<T: Eq + Hash> KeyedSet<T> {
    /// An empty set hashing under `key`; it reserves nothing.
    #[inline]
    pub fn with_hasher(key: HashKey) -> Self {
        KeyedSet(StdSet::with_hasher(key))
    }

    /// Add `t`; true if it was not already present.
    #[inline]
    pub fn insert(&mut self, t: T) -> bool {
        self.0.insert(t)
    }

    /// Remove `t`; true if it was present.
    #[inline]
    pub fn remove(&mut self, t: &T) -> bool {
        self.0.remove(t)
    }

    /// Is `t` in the set?
    #[inline]
    pub fn contains(&self, t: &T) -> bool {
        self.0.contains(t)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the set holds nothing.
    #[inline]
    // analyze:allow(dead-pub): the emptiness check that goes with the live `len` (clippy::len_without_is_empty)
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The members in ascending order, whatever the key.
    pub fn sorted(&self) -> Vec<T>
    where
        T: Ord + Copy,
    {
        let mut all: Vec<T> = self.0.iter().copied().collect();
        all.sort_unstable();
        all
    }
}

impl<T: Eq + Hash> Extend<T> for KeyedSet<T> {
    #[inline]
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        self.0.extend(items);
    }
}

impl<T> fmt::Debug for KeyedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedSet")
            .field("len", &self.0.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_byte_path_agrees_with_the_word_path() {
        let key = HashKey::from_secret(9);
        let mut by_word = key.build_hasher();
        by_word.write_u64(0x0123_4567_89AB_CDEF);
        let mut by_bytes = key.build_hasher();
        by_bytes.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(by_word.finish(), by_bytes.finish());
        assert_eq!(format!("{key:?}"), "HashKey(..)", "the key never prints");
    }

    #[test]
    fn a_word_is_one_round_under_the_key() {
        let key = HashKey::from_secret(7);
        assert_eq!(
            key.hash_one(42u64),
            splitmix64(splitmix64(7 ^ 0x5E71_A15E_7C0D_E5ED) ^ 42)
        );
        assert_ne!(key.hash_one(42u64), HashKey::from_secret(8).hash_one(42u64));
    }

    #[test]
    fn a_new_table_reserves_nothing() {
        let key = HashKey::from_secret(1);
        assert_eq!(KeyedMap::<u64, u64>::with_hasher(key).0.capacity(), 0);
        assert_eq!(KeyedSet::<u64>::with_hasher(key).0.capacity(), 0);
    }

    #[test]
    fn sorted_is_the_same_under_every_key() {
        let members: Vec<u64> = (1..=2_000u64).map(|k| 3 + 4 * k).rev().collect();
        let under = |secret: u64| {
            let mut s = KeyedSet::with_hasher(HashKey::from_secret(secret));
            s.extend(members.iter().copied());
            s
        };
        let (a, b) = (under(1), under(2));
        let layout = |s: &KeyedSet<u64>| s.0.iter().copied().collect::<Vec<_>>();
        assert_ne!(layout(&a), layout(&b), "different keys, different layouts");
        assert_eq!(layout(&a), layout(&under(1)), "same key, same layout");
        let mut expected = members.clone();
        expected.sort_unstable();
        assert_eq!(a.sorted(), expected);
        assert_eq!(b.sorted(), expected);
        assert_eq!(format!("{a:?}"), "KeyedSet { len: 2000, .. }");
    }
}
