//! Portal observability: pre-registered handles for the gateway routes.
//!
//! One [`PortalObs`] travels inside every [`crate::gateway::PortalGateway`].
//! Like every other plane it is constructed **disabled** (one never-taken
//! branch per record call) and switched on by the cluster's `enable_obs`
//! fan-out. Every route outcome maps to exactly one counter so experiments
//! can reconstruct the full deny/allow breakdown without parsing errors.
//!
//! The trace ring is the *entry-point* buffer for portal-initiated causal
//! chains: the cluster mints `portal.route.revoke` roots here before handing
//! the context to the revocation mesh, so one trace id follows a revocation
//! from the operator's click all the way to a sister realm's fail-closed
//! deny.

use eus_obs::{CounterId, ObsConfig, Recorder, SpanId, TraceBuffer};

/// Plane code baked into portal trace ids (see [`TraceBuffer::new`]).
pub const PORTAL_TRACE_CODE: u8 = 5;

/// The portal's recorder plus every handle it records through.
#[derive(Debug, Clone)]
pub struct PortalObs {
    /// The registry + flight recorder (`portal.*` namespace).
    pub rec: Recorder,
    /// Wall-time span over the whole `fetch` route (auth → forward).
    pub sp_fetch: SpanId,
    /// Fetches served end to end.
    pub c_fetch_ok: CounterId,
    /// Fetches refused at authentication (missing/expired token).
    pub c_fetch_auth: CounterId,
    /// Fetches naming a route that does not exist.
    pub c_fetch_no_route: CounterId,
    /// Fetches refused by the httpd UBF plug-in.
    pub c_fetch_forbidden: CounterId,
    /// Fetches whose forwarded connection failed on the wire.
    pub c_fetch_connect: CounterId,
    /// Fetches whose route exists but whose app has exited.
    pub c_fetch_gone: CounterId,
    /// Revocation requests entering through the portal API.
    pub c_revokes: CounterId,
    /// Causal trace ring: roots for portal-initiated chains
    /// (`portal.route.revoke`) are minted here by the cluster.
    pub trace: TraceBuffer,
}

impl PortalObs {
    /// Register the full portal handle set under `cfg`.
    pub fn new(cfg: &ObsConfig) -> Self {
        let mut rec = Recorder::new(cfg);
        PortalObs {
            sp_fetch: rec.span("portal.route.fetch"),
            c_fetch_ok: rec.counter("portal.fetch.ok"),
            c_fetch_auth: rec.counter("portal.fetch.auth_denied"),
            c_fetch_no_route: rec.counter("portal.fetch.no_route"),
            c_fetch_forbidden: rec.counter("portal.fetch.forbidden"),
            c_fetch_connect: rec.counter("portal.fetch.connect_err"),
            c_fetch_gone: rec.counter("portal.fetch.app_gone"),
            c_revokes: rec.counter("portal.revoke.requests"),
            trace: TraceBuffer::new("portal", PORTAL_TRACE_CODE, 4096, cfg.enabled),
            rec,
        }
    }

    /// A disabled handle set (the default inside every gateway).
    pub fn disabled() -> Self {
        Self::new(&ObsConfig::default())
    }

    /// Total fetch attempts (every outcome).
    #[cfg(test)]
    pub(crate) fn fetches_total(&self) -> u64 {
        self.rec.counter_value(self.c_fetch_ok)
            + self.rec.counter_value(self.c_fetch_auth)
            + self.rec.counter_value(self.c_fetch_no_route)
            + self.rec.counter_value(self.c_fetch_forbidden)
            + self.rec.counter_value(self.c_fetch_connect)
            + self.rec.counter_value(self.c_fetch_gone)
    }

    /// The counter matching one fetch outcome.
    pub fn fetch_outcome_counter(
        &self,
        r: &Result<crate::gateway::Response, crate::gateway::PortalError>,
    ) -> CounterId {
        use crate::gateway::PortalError;
        match r {
            Ok(_) => self.c_fetch_ok,
            Err(PortalError::Auth(_)) => self.c_fetch_auth,
            Err(PortalError::NoSuchRoute(_)) => self.c_fetch_no_route,
            Err(PortalError::Forbidden) => self.c_fetch_forbidden,
            Err(PortalError::Connect(_)) => self.c_fetch_connect,
            Err(PortalError::AppGone) => self.c_fetch_gone,
        }
    }
}

impl Default for PortalObs {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let obs = PortalObs::default();
        assert!(!obs.rec.enabled());
        assert!(!obs.trace.enabled());
        assert_eq!(obs.fetches_total(), 0);
    }

    #[test]
    fn outcome_counters_partition_fetches() {
        let mut obs = PortalObs::new(&ObsConfig::enabled());
        let ok: Result<crate::gateway::Response, crate::gateway::PortalError> =
            Err(crate::gateway::PortalError::Forbidden);
        let id = obs.fetch_outcome_counter(&ok);
        assert_eq!(id, obs.c_fetch_forbidden);
        obs.rec.incr(id);
        obs.rec.incr(obs.c_fetch_ok);
        assert_eq!(obs.fetches_total(), 2);
    }
}
