//! Stats for `&self` hot paths.
//!
//! The credential broker and the CRL replicas validate tokens
//! through `&self` under a read guard — a `&mut Recorder` cannot reach
//! them. [`SharedStats`] applies the same pre-registered-handle
//! discipline with interior mutability: register slots up front, bump
//! them through `&self`, read them out when the run settles. The slots
//! are relaxed atomics, which keep the owning plane `Sync`; the program
//! runs on one thread, so nothing here synchronizes anything.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Handle to a registered shared slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedId(u16);

/// A registry of relaxed atomic counters for shared-reference hot paths.
#[derive(Debug, Default)]
pub struct SharedStats {
    enabled: AtomicBool,
    names: Vec<&'static str>,
    slots: Vec<AtomicU64>,
}

impl SharedStats {
    /// A disabled registry (every bump is one relaxed load + branch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording (callable through `&self` — the switch itself is
    /// atomic).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Register (or look up) a slot by its `plane.subsystem.name`.
    /// Construction time only — takes `&mut self`.
    pub fn slot(&mut self, name: &'static str) -> SharedId {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return SharedId(i as u16);
        }
        self.names.push(name);
        self.slots.push(AtomicU64::new(0));
        SharedId((self.names.len() - 1) as u16)
    }

    /// Add one to a slot.
    #[inline]
    pub fn incr(&self, id: SharedId) {
        if self.enabled() {
            self.slots[id.0 as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add `n` to a slot.
    #[inline]
    pub fn add(&self, id: SharedId, n: u64) {
        if self.enabled() {
            self.slots[id.0 as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Track a maximum: raise the slot to `v` if `v` is larger.
    #[inline]
    pub fn max(&self, id: SharedId, v: u64) {
        if self.enabled() {
            self.slots[id.0 as usize].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value of a slot.
    pub fn value(&self, id: SharedId) -> u64 {
        self.slots[id.0 as usize].load(Ordering::Relaxed)
    }

    /// Every `(name, value)` pair, in registration order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.names
            .iter()
            .zip(&self.slots)
            .map(|(&n, v)| (n, v.load(Ordering::Relaxed)))
            .collect()
    }
}

impl Clone for SharedStats {
    fn clone(&self) -> Self {
        SharedStats {
            enabled: AtomicBool::new(self.enabled()),
            names: self.names.clone(),
            slots: self
                .slots
                .iter()
                .map(|v| AtomicU64::new(v.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles_through_shared_ref() {
        let mut s = SharedStats::new();
        let id = s.slot("cred.broker.validate");
        s.incr(id);
        assert_eq!(s.value(id), 0);
        s.set_enabled(true);
        s.incr(id);
        s.add(id, 2);
        assert_eq!(s.value(id), 3);
        s.set_enabled(false);
        s.incr(id);
        assert_eq!(s.value(id), 3);
    }

    #[test]
    fn max_and_snapshot() {
        let mut s = SharedStats::new();
        let a = s.slot("a");
        let b = s.slot("b");
        s.set_enabled(true);
        s.max(a, 5);
        s.max(a, 3);
        s.incr(b);
        assert_eq!(s.snapshot(), vec![("a", 5), ("b", 1)]);
        // Registration dedups.
        assert_eq!(s.slot("a"), a);
    }

    #[test]
    fn bumps_from_many_threads() {
        let mut s = SharedStats::new();
        let id = s.slot("hot");
        s.set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.incr(id);
                    }
                });
            }
        });
        assert_eq!(s.value(id), 4000);
    }
}
