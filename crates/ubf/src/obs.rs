//! UBF packet-path observability: [`SharedStats`] slots for the daemon.
//!
//! The daemon is boxed into the fabric as a [`eus_simnet::QueueHandler`], so
//! a plain `&mut Recorder` cannot reach it after deployment. Instead every
//! daemon carries an [`UbfPacketStats`] handle — an `Arc`-shared
//! [`SharedStats`] with pre-registered slots — which the deployer keeps a
//! clone of. Enabling is a relaxed atomic flip through `&self`, so the
//! cluster's `enable_obs` fan-out can switch daemons on after they have
//! been moved into the fabric. Disabled cost on the judge path is one
//! relaxed load + branch per slot touch; the benchmark's untraced
//! `net_wireup` runs measure the judge path with it.

use eus_obs::{SharedId, SharedStats};
use std::sync::Arc;

/// Arc-shared slot set for the UBF judge path.
#[derive(Debug, Clone)]
pub struct UbfPacketStats {
    stats: Arc<SharedStats>,
    /// Every packet judged (cache hits included).
    pub s_packets: SharedId,
    /// Judgements answered from the decision cache.
    pub s_cache_hits: SharedId,
    /// Judgements that missed the cache.
    pub s_cache_misses: SharedId,
    /// Judgements that ended in a drop.
    pub s_denies: SharedId,
    /// Ident round trips to peer hosts (one per cache miss).
    pub s_ident_rtts: SharedId,
    /// High-water mark of decision-cache occupancy.
    pub s_occupancy_peak: SharedId,
}

impl UbfPacketStats {
    /// Register the slot set; recording starts disabled unless `enabled`.
    pub fn new(enabled: bool) -> Self {
        let mut stats = SharedStats::new();
        let s_packets = stats.slot("ubf.judge.packets");
        let s_cache_hits = stats.slot("ubf.judge.cache_hits");
        let s_cache_misses = stats.slot("ubf.judge.cache_misses");
        let s_denies = stats.slot("ubf.judge.denies");
        let s_ident_rtts = stats.slot("ubf.judge.ident_rtts");
        let s_occupancy_peak = stats.slot("ubf.cache.occupancy_peak");
        stats.set_enabled(enabled);
        UbfPacketStats {
            stats: Arc::new(stats),
            s_packets,
            s_cache_hits,
            s_cache_misses,
            s_denies,
            s_ident_rtts,
            s_occupancy_peak,
        }
    }

    /// A disabled handle (the default inside every daemon).
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// The underlying slot registry (shared across all clones).
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.stats.enabled()
    }

    /// Flip recording through the shared handle — reaches daemons already
    /// moved into the fabric.
    pub fn set_enabled(&self, on: bool) {
        self.stats.set_enabled(on);
    }

    /// Cache hit ratio over all judged packets.
    #[cfg(test)]
    pub(crate) fn cache_hit_ratio(&self) -> f64 {
        let h = self.stats.value(self.s_cache_hits) as f64;
        let m = self.stats.value(self.s_cache_misses) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

impl Default for UbfPacketStats {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_enable_through_clone() {
        let a = UbfPacketStats::disabled();
        let b = a.clone();
        a.stats().incr(a.s_packets);
        assert_eq!(a.stats().value(a.s_packets), 0);
        b.set_enabled(true); // flips the shared registry
        a.stats().incr(a.s_packets);
        assert_eq!(b.stats().value(b.s_packets), 1);
    }

    #[test]
    fn hit_ratio_from_slots() {
        let s = UbfPacketStats::new(true);
        s.stats().add(s.s_cache_hits, 3);
        s.stats().incr(s.s_cache_misses);
        assert!((s.cache_hit_ratio() - 0.75).abs() < 1e-12);
        s.stats().max(s.s_occupancy_peak, 7);
        s.stats().max(s.s_occupancy_peak, 2);
        assert_eq!(s.stats().value(s.s_occupancy_peak), 7);
    }
}
