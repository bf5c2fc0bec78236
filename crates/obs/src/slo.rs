//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloPlane`] holds a set of named objectives ([`SloSpec`]), each
//! backed by its own [`TsRing`]. Values are recorded at pump/cycle
//! boundaries (replica lag, windowed validate latency, queue waits) and
//! [`SloPlane::evaluate`] — also called at boundaries, never on a hot
//! path — applies the classic multi-window rule: an objective *breaches*
//! only when both its short window and its long window violate the
//! target, which suppresses one-bucket blips without missing a sustained
//! burn. Alerts are edge-triggered: one [`Alert`] fires on the
//! quiet→breach transition, one clears on breach→quiet, and the
//! [`AlertLog`] keeps the full history for queries.
//!
//! SLO names follow the `plane.subsystem.name` convention; the root
//! package's `tests/docs_sync.rs` checks the registered names' format and
//! uniqueness and holds them against the ARCHITECTURE.md SLO table,
//! exactly like span registrations.

use crate::timeseries::TsRing;
use eus_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Handle to a registered SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloId(u16);

/// How a window of samples is reduced to the value compared against the
/// target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloAgg {
    /// Mean of recorded values over the window.
    Mean,
    /// Max of recorded values over the window.
    Max,
    /// Events per sim-second over the window.
    Rate,
}

/// One objective: the recorded value, reduced by `agg` over both windows,
/// must stay **below** `target` (objectives are phrased as budgets —
/// "p99 validate latency < 1µs", "replica lag < budget/2").
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// Breach threshold (the objective is `value < target`).
    pub target: f64,
    /// Window reduction.
    pub agg: SloAgg,
    /// Short (fast-burn) window, in buckets.
    pub short_buckets: usize,
    /// Long (slow-burn) window, in buckets; both must violate to breach.
    pub long_buckets: usize,
}

/// Fired or cleared?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Quiet → breach transition.
    Fire,
    /// Breach → quiet transition.
    Clear,
}

/// One alert-log entry.
#[derive(Debug, Clone, Copy)]
pub struct Alert {
    /// Evaluation boundary that produced it.
    pub at: SimTime,
    /// SLO name.
    pub slo: &'static str,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Short-window value at the boundary.
    pub value_short: f64,
    /// Long-window value at the boundary.
    pub value_long: f64,
    /// The spec's target.
    pub target: f64,
}

/// Queryable alert history.
#[derive(Debug, Clone, Default)]
pub struct AlertLog {
    entries: Vec<Alert>,
}

impl AlertLog {
    /// All entries, oldest first.
    // analyze:allow(dead-pub): the whole alert history, the operator's incident timeline
    pub fn entries(&self) -> &[Alert] {
        &self.entries
    }

    /// Entries for one SLO.
    // analyze:allow(dead-pub): one objective's alert history, the operator's "what fired" read
    pub fn for_slo(&self, name: &str) -> Vec<&Alert> {
        self.entries.iter().filter(|a| a.slo == name).collect()
    }

    /// Number of `Fire` entries.
    // analyze:allow(dead-pub): how many alerts fired, the operator's "is anything degraded" read
    pub fn fired(&self) -> usize {
        self.entries
            .iter()
            .filter(|a| a.kind == AlertKind::Fire)
            .count()
    }

    /// Render as a JSON array.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("[");
        for (i, a) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{ \"t_us\": {}, \"slo\": \"{}\", \"kind\": \"{}\", \
                 \"short\": {:.3}, \"long\": {:.3}, \"target\": {:.3} }}",
                if i == 0 { "" } else { "," },
                a.at.as_micros(),
                a.slo,
                match a.kind {
                    AlertKind::Fire => "fire",
                    AlertKind::Clear => "clear",
                },
                a.value_short,
                a.value_long,
                a.target
            );
        }
        out.push_str("\n]");
        out
    }
}

/// The registry + evaluation state for one plane's objectives.
#[derive(Debug, Clone)]
pub struct SloPlane {
    enabled: bool,
    bucket: SimDuration,
    names: Vec<&'static str>,
    specs: Vec<SloSpec>,
    rings: Vec<TsRing>,
    breached: Vec<bool>,
    log: AlertLog,
}

impl SloPlane {
    /// A plane whose rings use `bucket`-wide buckets. Disabled planes
    /// record and evaluate nothing.
    pub fn new(bucket: SimDuration, enabled: bool) -> Self {
        SloPlane {
            enabled,
            bucket,
            names: Vec::new(),
            specs: Vec::new(),
            rings: Vec::new(),
            breached: Vec::new(),
            log: AlertLog::default(),
        }
    }

    /// Is evaluation on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Register (or look up) an objective by its `plane.subsystem.name`.
    /// Construction time only, like every obs registration.
    pub fn slo(&mut self, name: &'static str, spec: SloSpec) -> SloId {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return SloId(i as u16);
        }
        let cap = spec.long_buckets.max(spec.short_buckets).max(1) * 2;
        self.names.push(name);
        self.rings.push(TsRing::new(self.bucket, cap));
        self.specs.push(spec);
        self.breached.push(false);
        SloId((self.names.len() - 1) as u16)
    }

    /// Re-aim a registered objective (deployment-specific budgets, e.g.
    /// `revsync.replica.lag < max_lag / 2`).
    pub fn set_target(&mut self, id: SloId, target: f64) {
        if let Some(s) = self.specs.get_mut(id.0 as usize) {
            s.target = target;
        }
    }

    /// Record one boundary sample for an objective.
    pub fn record(&mut self, id: SloId, at: SimTime, v: f64) {
        if !self.enabled {
            return;
        }
        if let Some(r) = self.rings.get_mut(id.0 as usize) {
            r.record(at, v);
        }
    }

    /// Evaluate every objective at boundary `at`; returns the alerts this
    /// boundary produced (also appended to the log). Objectives whose
    /// windows saw no samples **hold their previous state** — absence of
    /// data is evidence of nothing, and sparse event-driven objectives
    /// (queue waits land only when a job starts) would otherwise flap on
    /// every gap between samples.
    pub fn evaluate(&mut self, at: SimTime) -> Vec<Alert> {
        if !self.enabled {
            return Vec::new();
        }
        let mut fresh = Vec::new();
        for i in 0..self.names.len() {
            let (Some(spec), Some(ring)) = (self.specs.get(i), self.rings.get(i)) else {
                continue;
            };
            let short = ring.window(at, spec.short_buckets);
            let long = ring.window(at, spec.long_buckets);
            if short.count == 0 || long.count == 0 {
                continue; // no data: hold state, no edge either way
            }
            let reduce = |w: &crate::timeseries::WindowAgg| match spec.agg {
                SloAgg::Mean => w.mean(),
                SloAgg::Max => w.max,
                SloAgg::Rate => w.rate_per_sec(),
            };
            let vs = reduce(&short);
            let vl = reduce(&long);
            let violating = vs >= spec.target && vl >= spec.target;
            let was = self.breached.get(i).copied().unwrap_or(false);
            if violating != was {
                if let Some(b) = self.breached.get_mut(i) {
                    *b = violating;
                }
                let alert = Alert {
                    at,
                    slo: self.names.get(i).copied().unwrap_or("unknown"),
                    kind: if violating {
                        AlertKind::Fire
                    } else {
                        AlertKind::Clear
                    },
                    value_short: vs,
                    value_long: vl,
                    target: spec.target,
                };
                self.log.entries.push(alert);
                fresh.push(alert);
            }
        }
        fresh
    }

    /// The alert history.
    pub fn alerts(&self) -> &AlertLog {
        &self.log
    }

    /// Every registered objective's name, in registration order.
    // analyze:allow(dead-pub): read by tests/docs_sync.rs, which holds the names against ARCHITECTURE.md's SLO table
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> (SloPlane, SloId) {
        let mut p = SloPlane::new(SimDuration::from_secs(10), true);
        let id = p.slo(
            "test.metric.level",
            SloSpec {
                target: 100.0,
                agg: SloAgg::Max,
                short_buckets: 2,
                long_buckets: 6,
            },
        );
        (p, id)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sustained_burn_fires_once_then_clears() {
        let (mut p, id) = plane();
        // Healthy for a while.
        for k in 0..6 {
            p.record(id, t(k * 10), 10.0);
            assert!(p.evaluate(t(k * 10)).is_empty());
        }
        // Sustained violation: must fire exactly once.
        let mut fires = 0;
        for k in 6..12 {
            p.record(id, t(k * 10), 500.0);
            fires += p
                .evaluate(t(k * 10))
                .iter()
                .filter(|a| a.kind == AlertKind::Fire)
                .count();
        }
        assert_eq!(fires, 1);
        assert_eq!(p.alerts().fired(), 1);
        // Recovery: clears once the short window drains.
        for k in 12..20 {
            p.record(id, t(k * 10), 5.0);
            p.evaluate(t(k * 10));
        }
        let log = p.alerts();
        assert_eq!(log.for_slo("test.metric.level").len(), 2);
        assert_eq!(log.entries().last().map(|a| a.kind), Some(AlertKind::Clear));
    }

    #[test]
    fn one_bucket_blip_does_not_fire() {
        let (mut p, id) = plane();
        for k in 0..5 {
            p.record(id, t(k * 10), 10.0);
            p.evaluate(t(k * 10));
        }
        // A single hot bucket violates the short window but not the long
        // one (long max also violates... so use mean agg for blip test).
        let mut p2 = SloPlane::new(SimDuration::from_secs(10), true);
        let id2 = p2.slo(
            "test.metric.mean",
            SloSpec {
                target: 100.0,
                agg: SloAgg::Mean,
                short_buckets: 1,
                long_buckets: 6,
            },
        );
        for k in 0..5 {
            p2.record(id2, t(k * 10), 10.0);
            p2.evaluate(t(k * 10));
        }
        p2.record(id2, t(50), 500.0); // blip: long-window mean stays low
        assert!(p2.evaluate(t(50)).is_empty());
        assert_eq!(p2.alerts().fired(), 0);
        let _ = (p, id);
    }

    #[test]
    fn empty_windows_hold_state_instead_of_clearing() {
        let (mut p, id) = plane();
        // Sustained breach, then a long gap with no samples at all.
        for k in 0..6 {
            p.record(id, t(k * 10), 500.0);
            p.evaluate(t(k * 10));
        }
        assert_eq!(p.alerts().fired(), 1);
        for k in 30..40 {
            p.evaluate(t(k * 10)); // windows empty: no Clear, no re-Fire
        }
        assert_eq!(p.alerts().entries().len(), 1, "{:?}", p.alerts().entries());
        // A breaching sample after the gap does not re-fire either.
        p.record(id, t(400), 500.0);
        p.record(id, t(410), 500.0);
        p.evaluate(t(410));
        assert_eq!(p.alerts().fired(), 1);
        // Recovery with real samples still clears.
        for k in 42..50 {
            p.record(id, t(k * 10), 5.0);
            p.evaluate(t(k * 10));
        }
        assert_eq!(
            p.alerts().entries().last().map(|a| a.kind),
            Some(AlertKind::Clear)
        );
    }

    #[test]
    fn disabled_plane_is_inert() {
        let mut p = SloPlane::new(SimDuration::from_secs(10), false);
        let id = p.slo(
            "test.metric.x",
            SloSpec {
                target: 1.0,
                agg: SloAgg::Max,
                short_buckets: 1,
                long_buckets: 1,
            },
        );
        p.record(id, t(0), 99.0);
        assert!(p.evaluate(t(0)).is_empty());
        assert!(p.alerts().entries().is_empty());
    }

    #[test]
    fn registration_dedups_and_retargets() {
        let (mut p, id) = plane();
        let again = p.slo(
            "test.metric.level",
            SloSpec {
                target: 1.0,
                agg: SloAgg::Mean,
                short_buckets: 1,
                long_buckets: 1,
            },
        );
        assert_eq!(id, again);
        p.set_target(id, 250.0);
        assert_eq!(p.specs[id.0 as usize].target, 250.0);
    }

    #[test]
    fn alert_log_json() {
        let (mut p, id) = plane();
        for k in 0..8 {
            p.record(id, t(k * 10), 900.0);
            p.evaluate(t(k * 10));
        }
        assert!(p.alerts().fired() >= 1);
        let json = p.alerts().dump_json();
        assert!(json.contains("\"slo\": \"test.metric.level\""), "{json}");
        assert!(json.contains("\"kind\": \"fire\""), "{json}");
    }
}
