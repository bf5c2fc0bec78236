//! R1 fixture: deterministic equivalents of everything `r1_bad.rs` does.

use eus_simcore::{HashKey, KeyedMap};
use std::collections::{BTreeMap, HashMap};

pub fn sim_clock(now: u64) -> u64 {
    now + 1
}

pub fn stable_order(sorted: &BTreeMap<u32, u32>) -> Vec<u32> {
    sorted.keys().copied().collect()
}

pub fn point_lookup(hashed: &KeyedMap<u32, u32>, k: u32) -> Option<u32> {
    hashed.get(&k).copied()
}

pub fn keyed_table(key: HashKey) -> HashMap<(u32, u32), Vec<u8>, HashKey> {
    HashMap::<(u32, u32), Vec<u8>, HashKey>::with_hasher(key)
}
