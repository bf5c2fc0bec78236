//! Mesh observability: the pre-registered handle set for [`crate::RevSyncMesh`].
//!
//! Two recording surfaces, matching the mesh's two concurrency regimes:
//!
//! * the **pump** is `&mut self` and single-writer, so it records through a
//!   plain [`Recorder`] — a `revsync.mesh.pump` span, per-exchange
//!   counters, and flight events for staleness **edges** (a replica
//!   crossing the [`crate::RevSyncConfig::max_lag`] budget in either
//!   direction, the moments the fail-closed story turns on);
//! * the **validate hot path** is `&self` (often behind a `RwLock` read
//!   guard), so outcome counts go through atomic
//!   [`SharedStats`] slots instead.
//!
//! Both are off by default; disabled cost is one branch (pump) or one
//! relaxed bool load (validate).

use eus_fedauth::CredError;
use eus_fedauth::RealmId;
use eus_obs::{CounterId, ObsConfig, Recorder, SharedId, SharedStats, SpanId, TraceBuffer};
use eus_simos::Uid;
use std::collections::BTreeSet;
use std::time::Instant;

/// Plane code baked into revsync trace ids (see [`TraceBuffer::new`]).
pub const REVSYNC_TRACE_CODE: u8 = 4;

/// The mesh's recorder, handle set, and validate-path atomics.
#[derive(Debug, Clone)]
pub struct MeshObs {
    /// The registry + flight recorder (`revsync.*` namespace).
    pub rec: Recorder,
    /// One pump call (all exchanges due up to the new instant).
    pub sp_pump: SpanId,
    /// Push feeds that made it onto the wire.
    pub c_pushes: CounterId,
    /// Anti-entropy rounds completed.
    pub c_pulls: CounterId,
    /// Deltas delivered and applied cleanly at replicas.
    pub c_deliveries: CounterId,
    /// Deltas refused for a sequence gap.
    pub c_gaps: CounterId,
    /// Replicas crossing *over* the staleness budget.
    pub c_stale_enters: CounterId,
    /// Replicas recovering back *under* the budget.
    pub c_stale_exits: CounterId,
    /// Feed links whose subscriber stopped hearing anything (data or
    /// heartbeat) for `SILENT_AFTER` (3) feed intervals.
    pub c_silent_enters: CounterId,
    /// Silent feed links heard from again.
    pub c_silent_exits: CounterId,
    /// (site, issuer) replicas currently over budget (edge detection).
    pub(crate) stale: BTreeSet<(RealmId, RealmId)>,
    /// (issuer, subscriber) links currently silent (edge detection).
    pub(crate) silent: BTreeSet<(RealmId, RealmId)>,
    /// Causal trace ring: push/pull/apply/deny spans stitched to the
    /// upstream revocation context carried inside `CrlDelta`s.
    pub trace: TraceBuffer,
    stats: SharedStats,
    s_calls: SharedId,
    s_ok: SharedId,
    s_revoked: SharedId,
    s_stale: SharedId,
    s_unknown: SharedId,
    s_other: SharedId,
    s_ns: SharedId,
}

impl MeshObs {
    /// Register the full mesh handle set under `cfg`.
    pub fn new(cfg: &ObsConfig) -> Self {
        let mut rec = Recorder::new(cfg);
        let mut stats = SharedStats::new();
        if cfg.enabled {
            stats.set_enabled(true);
        }
        MeshObs {
            sp_pump: rec.span("revsync.mesh.pump"),
            c_pushes: rec.counter("revsync.pump.pushes"),
            c_pulls: rec.counter("revsync.pump.pulls"),
            c_deliveries: rec.counter("revsync.pump.deliveries"),
            c_gaps: rec.counter("revsync.pump.gap_refusals"),
            c_stale_enters: rec.counter("revsync.staleness.enters"),
            c_stale_exits: rec.counter("revsync.staleness.exits"),
            c_silent_enters: rec.counter("revsync.silence.enters"),
            c_silent_exits: rec.counter("revsync.silence.exits"),
            trace: TraceBuffer::new("revsync", REVSYNC_TRACE_CODE, 4096, cfg.enabled),
            stale: BTreeSet::new(),
            silent: BTreeSet::new(),
            s_calls: stats.slot("revsync.validate.calls"),
            s_ok: stats.slot("revsync.validate.ok"),
            s_revoked: stats.slot("revsync.validate.revoked"),
            s_stale: stats.slot("revsync.validate.stale"),
            s_unknown: stats.slot("revsync.validate.unknown_realm"),
            s_other: stats.slot("revsync.validate.other_reject"),
            s_ns: stats.slot("revsync.validate.ns"),
            stats,
            rec,
        }
    }

    /// A disabled handle set (the default inside every mesh).
    pub fn disabled() -> Self {
        Self::new(&ObsConfig::default())
    }

    /// Start timing one replica validation. `None` (free) when disabled.
    pub fn begin_validate(&self) -> Option<Instant> {
        if self.stats.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finish one replica validation, classifying the outcome.
    pub fn finish_validate(&self, started: Option<Instant>, r: &Result<Uid, CredError>) {
        if let Some(t0) = started {
            self.stats.add(self.s_ns, t0.elapsed().as_nanos() as u64);
            self.stats.incr(self.s_calls);
            self.stats.incr(match r {
                Ok(_) => self.s_ok,
                Err(CredError::Revoked(_)) => self.s_revoked,
                Err(CredError::StaleReplica { .. }) => self.s_stale,
                Err(CredError::UnknownRealm(_)) => self.s_unknown,
                Err(_) => self.s_other,
            });
        }
    }

    /// Validate-path slots as `(name, value)`.
    pub fn validate_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.stats.snapshot()
    }

    /// Replica validations recorded (hot-path calls).
    #[cfg(test)]
    pub(crate) fn validate_calls(&self) -> u64 {
        self.stats.value(self.s_calls)
    }

    /// Validations refused for staleness (the fail-closed budget at work).
    #[cfg(test)]
    pub(crate) fn validate_stale(&self) -> u64 {
        self.stats.value(self.s_stale)
    }
}

impl Default for MeshObs {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_everywhere() {
        let obs = MeshObs::default();
        assert!(!obs.rec.enabled());
        assert!(obs.begin_validate().is_none());
        obs.finish_validate(None, &Ok(Uid(1)));
        assert_eq!(obs.validate_calls(), 0);
    }

    #[test]
    fn validate_outcomes_classify() {
        let obs = MeshObs::new(&ObsConfig::enabled());
        let t = obs.begin_validate();
        obs.finish_validate(t, &Ok(Uid(1)));
        let t = obs.begin_validate();
        obs.finish_validate(t, &Err(CredError::UnknownRealm(RealmId(9))));
        assert_eq!(obs.validate_calls(), 2);
        assert_eq!(obs.validate_stale(), 0);
        let snap = obs.validate_snapshot();
        assert!(snap.contains(&("revsync.validate.ok", 1)));
        assert!(snap.contains(&("revsync.validate.unknown_realm", 1)));
    }
}
