//! The metrics registry: pre-registered integer handles over flat arrays.
//!
//! Registration happens once, at plane construction, by dotted
//! `plane.subsystem.name` strings; recording happens through the returned
//! handle — an index into a `Vec` — so the hot path never hashes, never
//! allocates, and never compares a string. Every record call is guarded by
//! one `enabled` branch; a disabled recorder is a never-taken jump.

use crate::flight::FlightRecorder;
use crate::ObsConfig;
use eus_simcore::{Histogram, SimTime, Summary};
use std::time::Instant;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u16);

/// Handle to a registered gauge (a signed level, not a monotone count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u16);

/// Handle to a registered span (a named phase with wall-time statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u16);

/// An in-flight span: the wall-clock instant it opened, or `None` when the
/// recorder was disabled at open time (the matching
/// [`Recorder::span_end`] is then free).
#[derive(Debug, Clone, Copy)]
#[must_use = "a span token does nothing unless passed to span_end"]
pub struct SpanToken(Option<Instant>);

/// Accumulated statistics for one span.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall nanoseconds across entries (exact, not sampled).
    pub total_ns: u64,
    /// Reservoir histogram of per-entry wall nanoseconds.
    pub wall_ns: Histogram,
}

/// Reservoir size of every span's wall-time histogram: bounded memory
/// under million-event storms, while count/total/mean/min/max stay exact.
const SPAN_RESERVOIR: usize = 4096;

/// Flight-recorder capacity of every recorder (events retained before
/// wrap-around).
const FLIGHT_CAPACITY: usize = 4096;

/// The registry + storage for one plane's metrics and flight recorder.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<i64>,
    span_names: Vec<&'static str>,
    spans: Vec<SpanStats>,
    /// The structured event ring. Public: dump/tail access is part of the
    /// plane's API surface.
    pub flight: FlightRecorder,
}

impl Recorder {
    /// A recorder under `cfg`. Register every handle up front, then hand
    /// the recorder to the hot path.
    pub fn new(cfg: &ObsConfig) -> Self {
        Recorder {
            enabled: cfg.enabled,
            counter_names: Vec::new(),
            counters: Vec::new(),
            gauge_names: Vec::new(),
            gauges: Vec::new(),
            span_names: Vec::new(),
            spans: Vec::new(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
        }
    }

    /// A disabled recorder (every record call is one never-taken branch).
    pub fn disabled() -> Self {
        Self::new(&ObsConfig::default())
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    // ------------------------------------------------------------------
    // Registration (construction time, never the hot path)
    // ------------------------------------------------------------------

    /// Register (or look up) a counter by its `plane.subsystem.name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|&n| n == name) {
            return CounterId(i as u16);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId((self.counter_names.len() - 1) as u16)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|&n| n == name) {
            return GaugeId(i as u16);
        }
        self.gauge_names.push(name);
        self.gauges.push(0);
        GaugeId((self.gauge_names.len() - 1) as u16)
    }

    /// Register (or look up) a span by name.
    pub fn span(&mut self, name: &'static str) -> SpanId {
        if let Some(i) = self.span_names.iter().position(|&n| n == name) {
            return SpanId(i as u16);
        }
        self.span_names.push(name);
        self.spans.push(SpanStats {
            count: 0,
            total_ns: 0,
            wall_ns: Histogram::with_reservoir(SPAN_RESERVOIR),
        });
        SpanId((self.span_names.len() - 1) as u16)
    }

    // ------------------------------------------------------------------
    // Recording (the hot path: one branch + one indexed write)
    // ------------------------------------------------------------------

    /// Add one to a counter.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        if self.enabled {
            self.counters[id.0 as usize] += 1;
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0 as usize] += n;
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: i64) {
        if self.enabled {
            self.gauges[id.0 as usize] = v;
        }
    }

    /// Open a span: captures the wall clock only when enabled.
    #[inline]
    #[allow(clippy::disallowed_methods)] // a span timer: its reading feeds metrics, never a decision
    pub fn span_start(&self) -> SpanToken {
        if self.enabled {
            SpanToken(Some(Instant::now()))
        } else {
            SpanToken(None)
        }
    }

    /// Close a span opened by [`span_start`](Self::span_start), folding
    /// the elapsed wall time into `id`'s statistics. Free when the token
    /// was taken disabled.
    #[inline]
    pub fn span_end(&mut self, id: SpanId, token: SpanToken) {
        if let Some(t0) = token.0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let s = &mut self.spans[id.0 as usize];
            s.count += 1;
            s.total_ns += ns;
            s.wall_ns.record(ns as f64);
        }
    }

    /// Append a structured event to the flight recorder.
    #[inline]
    pub fn event(&mut self, at: SimTime, kind: &'static str, a: u64, b: u64, c: u64) {
        if self.enabled {
            self.flight.push(at, kind, a, b, c);
        }
    }

    // ------------------------------------------------------------------
    // Read-out
    // ------------------------------------------------------------------

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Statistics for a span.
    pub fn span_stats(&self, id: SpanId) -> &SpanStats {
        &self.spans[id.0 as usize]
    }

    /// Ratio `num / (num + den)`, the shape every hit-ratio derives from;
    /// 0 when both are zero.
    pub fn hit_ratio(&self, num: CounterId, den: CounterId) -> f64 {
        let n = self.counter_value(num) as f64;
        let d = self.counter_value(den) as f64;
        if n + d == 0.0 {
            0.0
        } else {
            n / (n + d)
        }
    }

    /// Total record operations performed (counter bumps are not tracked
    /// individually; this is the sum of counter values + 1 per span entry
    /// — the operation count `exp_obs_overhead` multiplies by the
    /// per-operation disabled cost to bound the disabled-path overhead).
    pub fn ops_estimate(&self) -> u64 {
        let c: u64 = self.counters.iter().sum();
        let s: u64 = self.spans.iter().map(|s| s.count).sum();
        c + 2 * s + self.flight.pushed()
    }

    /// Point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            counters: self
                .counter_names
                .iter()
                .zip(&self.counters)
                .map(|(&n, &v)| (n, v))
                .collect(),
            gauges: self
                .gauge_names
                .iter()
                .zip(&self.gauges)
                .map(|(&n, &v)| (n, v))
                .collect(),
            spans: self
                .span_names
                .iter()
                .zip(&self.spans)
                .map(|(&n, s)| SpanRow {
                    name: n,
                    count: s.count,
                    total_ns: s.total_ns,
                    wall_ns: s.wall_ns.summary(),
                })
                .collect(),
        }
    }
}

/// One span's row in a snapshot.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Registered name.
    pub name: &'static str,
    /// Entry count.
    pub count: u64,
    /// Exact total wall nanoseconds.
    pub total_ns: u64,
    /// Wall-time distribution (reservoir), if any entries were recorded.
    pub wall_ns: Option<Summary>,
}

/// A point-in-time snapshot of a [`Recorder`].
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(&'static str, i64)>,
    /// Span rows.
    pub spans: Vec<SpanRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let c = r.counter("a.b.c");
        let sp = r.span("a.b.span");
        r.incr(c);
        r.add(c, 10);
        let t = r.span_start();
        r.span_end(sp, t);
        r.event(SimTime::ZERO, "ev", 1, 2, 3);
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.span_stats(sp).count, 0);
        assert!(r.flight.events().is_empty());
        assert_eq!(r.ops_estimate(), 0);
    }

    #[test]
    fn enabled_recorder_accumulates() {
        let mut r = Recorder::new(&ObsConfig::enabled());
        let c = r.counter("x.y.count");
        let sp = r.span("x.y.phase");
        r.incr(c);
        r.add(c, 4);
        let t = r.span_start();
        r.span_end(sp, t);
        assert_eq!(r.counter_value(c), 5);
        let s = r.span_stats(sp);
        assert_eq!(s.count, 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters, [("x.y.count", 5)]);
        assert_eq!(snap.spans[0].name, "x.y.phase");
        assert_eq!(snap.spans[0].count, 1);
    }

    #[test]
    fn registration_dedups_by_name() {
        let mut r = Recorder::new(&ObsConfig::enabled());
        let a = r.counter("same.name");
        let b = r.counter("same.name");
        assert_eq!(a, b);
        let s1 = r.span("same.span");
        let s2 = r.span("same.span");
        assert_eq!(s1, s2);
    }

    #[test]
    fn hit_ratio_derives() {
        let mut r = Recorder::new(&ObsConfig::enabled());
        let hit = r.counter("m.hit");
        let miss = r.counter("m.miss");
        assert_eq!(r.hit_ratio(hit, miss), 0.0);
        r.add(hit, 3);
        r.add(miss, 1);
        assert!((r.hit_ratio(hit, miss) - 0.75).abs() < 1e-12);
    }
}
