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
//! and iteration order depends on the key, so it must never reach a
//! decision (`eus-analyze` R1 treats these tables as hash-ordered).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

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

/// A `HashMap` on the keyed one-round hasher.
pub type KeyedMap<K, V> = HashMap<K, V, HashKey>;

/// A `HashSet` on the keyed one-round hasher.
pub type KeyedSet<T> = HashSet<T, HashKey>;

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
}
