//! R1 fixture: every wall-clock / ordering sin the rule must catch.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub fn wall_clock() -> u128 {
    let t = Instant::now();
    t.elapsed().as_millis()
}

pub fn sleepy() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn order_leak(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}

pub fn alias_order_leak(revoked: &SerialSet) -> Vec<u64> {
    revoked.iter().map(|s| s.0).collect()
}

pub fn keyed_order_leak(flows: &KeyedSet<u64>) -> Vec<u64> {
    flows.iter().copied().collect()
}

pub fn random_state() -> usize {
    let seen = HashSet::with_capacity(8);
    let table = HashMap::<u32, Vec<u8>>::new();
    seen.len() + table.len()
}
