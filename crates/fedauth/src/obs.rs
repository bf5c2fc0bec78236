//! Lock-free validate-path statistics for the credential plane.
//!
//! The broker's verification hot path runs behind a `RwLock` read guard
//! (`&self`), possibly from several threads at once, so it cannot use the
//! single-writer [`eus_obs::Recorder`]. [`ValidateStats`] wraps
//! [`eus_obs::SharedStats`] — relaxed atomic slots — with the handle set
//! the verify path records through: call/outcome counts and wall-clock
//! nanoseconds (sum + max). Disabled (the default) every record call is
//! one relaxed load of a bool.

use eus_obs::{SharedId, SharedStats};
use std::time::Instant;

/// Plane code baked into credential-plane trace ids (see
/// [`eus_obs::TraceBuffer::new`]); keeps span ids collision-free across
/// planes when traces are assembled.
pub const CRED_TRACE_CODE: u8 = 3;

/// Atomic statistics for a credential plane's verification hot path.
#[derive(Debug, Clone)]
pub struct ValidateStats {
    stats: SharedStats,
    s_calls: SharedId,
    s_ok: SharedId,
    s_rejects: SharedId,
    s_ns: SharedId,
    s_ns_max: SharedId,
}

impl ValidateStats {
    /// A disabled stats block with every slot registered.
    pub fn new() -> Self {
        let mut stats = SharedStats::new();
        ValidateStats {
            s_calls: stats.slot("cred.validate.calls"),
            s_ok: stats.slot("cred.validate.ok"),
            s_rejects: stats.slot("cred.validate.rejects"),
            s_ns: stats.slot("cred.validate.ns"),
            s_ns_max: stats.slot("cred.validate.ns_max"),
            stats,
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.stats.enabled()
    }

    /// Turn recording on or off (atomically; `&self` on purpose — the
    /// plane usually sits behind a lock by the time anyone wants this).
    pub fn set_enabled(&self, on: bool) {
        self.stats.set_enabled(on);
    }

    /// Start timing one validation. `None` (free) when disabled.
    pub fn begin(&self) -> Option<Instant> {
        if self.stats.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish timing one validation started by [`begin`](Self::begin).
    pub fn finish(&self, started: Option<Instant>, ok: bool) {
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            self.stats.incr(self.s_calls);
            self.stats.incr(if ok { self.s_ok } else { self.s_rejects });
            self.stats.add(self.s_ns, ns);
            self.stats.max(self.s_ns_max, ns);
        }
    }

    /// Validations recorded.
    pub fn calls(&self) -> u64 {
        self.stats.value(self.s_calls)
    }

    /// Validations that accepted the credential.
    pub fn ok(&self) -> u64 {
        self.stats.value(self.s_ok)
    }

    /// Validations that refused the credential.
    pub fn rejects(&self) -> u64 {
        self.stats.value(self.s_rejects)
    }

    /// Total verification wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.stats.value(self.s_ns)
    }

    /// Slowest single verification, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.stats.value(self.s_ns_max)
    }

    /// Mean verification wall time, nanoseconds (0 when nothing recorded).
    pub fn mean_ns(&self) -> f64 {
        let n = self.calls();
        if n == 0 {
            0.0
        } else {
            self.total_ns() as f64 / n as f64
        }
    }

    /// Every slot as `(name, value)`.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.stats.snapshot()
    }
}

impl Default for ValidateStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let s = ValidateStats::new();
        assert!(!s.enabled());
        let t = s.begin();
        assert!(t.is_none());
        s.finish(t, true);
        assert_eq!(s.calls(), 0);
    }

    #[test]
    fn enabled_counts_outcomes_and_time() {
        let s = ValidateStats::new();
        s.set_enabled(true);
        for i in 0..5 {
            let t = s.begin();
            s.finish(t, i % 2 == 0);
        }
        assert_eq!(s.calls(), 5);
        assert_eq!(s.ok(), 3);
        assert_eq!(s.rejects(), 2);
        assert!(s.total_ns() >= s.max_ns());
        assert!(s.mean_ns() >= 0.0);
        assert!(s.snapshot().iter().any(|(n, _)| *n == "cred.validate.ok"));
    }
}
