//! Cluster-plane observability: the pre-registered handle set for
//! [`crate::SecureCluster`].
//!
//! The cluster's own hot loop is [`reconcile`](crate::SecureCluster) — the
//! epilog/prolog sweep that runs after every scheduler advance and carries
//! the separation guarantee (a leaving tenant scrubbed before the next
//! tenant's prolog). [`CoreObs`] times it (`core.cluster.reconcile` span),
//! counts its work items, and flight-records the separation-relevant
//! moments (epilog scrubs, prolog materializations). The federated
//! verification path ([`crate::SecureCluster::validate_federated_token`])
//! is timed where the work happens: the broker's
//! [`eus_fedauth::ValidateStats`] for home tokens, the mesh's
//! [`eus_revsync::MeshObs`] for sister tokens.
//!
//! [`crate::SecureCluster::enable_obs`] turns on every plane at once:
//! this recorder, the scheduler's [`eus_sched::SchedObs`], the broker's
//! [`eus_fedauth::ValidateStats`], the mesh's [`eus_revsync::MeshObs`],
//! the portal's [`eus_portal::PortalObs`], and the UBF daemons'
//! [`eus_ubf::UbfPacketStats`].
//!
//! Obs v2 adds two cluster-level pillars on top of the counters:
//!
//! * **Causal tracing** — entry points mint [`TraceCtx`]s (`core.submit.try`
//!   here, `portal.route.revoke` on the portal ring, `cred.pam.account` on
//!   the broker ring) that flow by value through the credential plane, the
//!   scheduler dispatch path, and across the simulated WAN inside revocation
//!   deltas. [`crate::SecureCluster::collect_trace`] reassembles one trace
//!   from every plane's ring; [`render_trace`] draws the tree.
//! * **SLOs** — declarative objectives over sim-time-bucketed rings,
//!   evaluated at cycle boundaries with two-window burn-rate semantics
//!   (short and long windows must both breach). Alerts are edge-triggered
//!   into the [`AlertLog`] and flight-recorded as `core.slo.alert` events.

use eus_simcore::SimDuration;

// `pub use` so facade users reach the substrate types through
// `eus_core::obs::…` like the other planes.
pub use eus_obs::{
    assemble_trace, check_well_formed, panicdump, render_trace, Alert, AlertKind, AlertLog,
    CounterId, FlightEvent, FlightRecorder, GaugeId, ObsConfig, ObsSnapshot, Recorder, SharedId,
    SharedStats, SloAgg, SloId, SloPlane, SloSpec, SpanId, TraceBuffer, TraceCtx, TraceSpan,
    TraceToken, TsRing, WindowAgg,
};

/// Plane code baked into cluster-level trace ids (see [`TraceBuffer::new`]).
pub const CORE_TRACE_CODE: u8 = 1;

/// The cluster's recorder plus every handle it records through.
#[derive(Debug, Clone)]
pub struct CoreObs {
    /// The registry + flight recorder (`core.*` namespace).
    pub rec: Recorder,
    /// One reconcile sweep (epilogs then prologs).
    pub sp_reconcile: SpanId,
    /// Reconcile sweeps run.
    pub c_reconciles: CounterId,
    /// Epilog events processed (cleanup for an ended or preempted job).
    pub c_epilogs: CounterId,
    /// Prologs run (newly started jobs given processes + GPUs).
    pub c_prologs: CounterId,
    /// GPU memory scrubs performed by epilogs.
    pub c_gpu_scrubs: CounterId,
    /// GPU device-permission assignments performed by prologs.
    pub c_gpu_assigns: CounterId,
    /// Cluster-wide conntrack occupancy, sampled at cycle boundaries.
    pub g_flows: GaugeId,
    /// IdP dependency health, sampled at cycle boundaries
    /// (0 = healthy, 1 = degraded, 2 = fail-closed; see
    /// [`crate::DepHealth`]).
    pub g_health_idp: GaugeId,
    /// CA dependency health (same encoding).
    pub g_health_ca: GaugeId,
    /// Revocation-feed dependency health (same encoding; worst replica).
    pub g_health_feed: GaugeId,
    /// Causal trace ring for cluster entry points (`core.submit.try`).
    pub trace: TraceBuffer,
    /// Declarative service-level objectives, evaluated at cycle
    /// boundaries with two-window burn-rate semantics.
    pub slo: SloPlane,
    /// `cred.validate.latency`: mean validate latency per boundary (ns).
    pub slo_validate: SloId,
    /// `revsync.replica.lag`: worst replica staleness (µs); re-aimed to
    /// half the revocation mesh's `max_lag` by `enable_obs`.
    pub slo_replica_lag: SloId,
    /// `sched.interactive.wait`: mean queue wait of interactive starts (µs).
    pub slo_interactive_wait: SloId,
    /// `cluster.dependency.degraded`: 1.0 at any boundary where some
    /// dependency (IdP, CA, revocation feed) is degraded or fail-closed,
    /// 0.0 otherwise. Max-aggregated over tight windows so a single
    /// degraded boundary fires the alert and a clean baseline never does.
    pub slo_dep_degraded: SloId,
}

impl CoreObs {
    /// Register the full cluster handle set under `cfg`.
    pub fn new(cfg: &ObsConfig) -> Self {
        let mut rec = Recorder::new(cfg);
        let g_flows = rec.gauge("core.fabric.flows");
        let mut slo = SloPlane::new(SimDuration::from_secs(10), cfg.enabled);
        let slo_validate = slo.slo(
            "cred.validate.latency",
            SloSpec {
                target: 1e7, // 10ms mean — pathology only; re-aim per deployment
                agg: SloAgg::Mean,
                short_buckets: 3,
                long_buckets: 18,
            },
        );
        let slo_replica_lag = slo.slo(
            "revsync.replica.lag",
            SloSpec {
                target: f64::MAX, // re-aimed to max_lag/2 at enable_obs
                agg: SloAgg::Max,
                short_buckets: 3,
                long_buckets: 18,
            },
        );
        let slo_interactive_wait = slo.slo(
            "sched.interactive.wait",
            SloSpec {
                target: 60e6, // 60s mean queue wait for interactive QoS, in µs
                agg: SloAgg::Mean,
                short_buckets: 3,
                long_buckets: 18,
            },
        );
        let slo_dep_degraded = slo.slo(
            "cluster.dependency.degraded",
            SloSpec {
                // The signal is binary (0 healthy / 1 degraded), so any
                // threshold strictly between fires exactly on degradation.
                target: 0.5,
                agg: SloAgg::Max,
                short_buckets: 1,
                long_buckets: 3,
            },
        );
        CoreObs {
            sp_reconcile: rec.span("core.cluster.reconcile"),
            c_reconciles: rec.counter("core.reconcile.sweeps"),
            c_epilogs: rec.counter("core.reconcile.epilogs"),
            c_prologs: rec.counter("core.reconcile.prologs"),
            c_gpu_scrubs: rec.counter("core.gpu.scrubs"),
            c_gpu_assigns: rec.counter("core.gpu.assigns"),
            g_flows,
            g_health_idp: rec.gauge("core.health.idp"),
            g_health_ca: rec.gauge("core.health.ca"),
            g_health_feed: rec.gauge("core.health.feed"),
            trace: TraceBuffer::new("core", CORE_TRACE_CODE, 4096, cfg.enabled),
            slo,
            slo_validate,
            slo_replica_lag,
            slo_interactive_wait,
            slo_dep_degraded,
            rec,
        }
    }

    /// A disabled handle set (the default inside every cluster).
    pub fn disabled() -> Self {
        Self::new(&ObsConfig::default())
    }

    /// Snapshot every metric (counters, gauges, span histograms).
    pub fn snapshot(&self) -> ObsSnapshot {
        self.rec.snapshot()
    }
}

impl Default for CoreObs {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!CoreObs::default().rec.enabled());
    }
}
