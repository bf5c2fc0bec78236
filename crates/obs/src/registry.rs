//! The metrics registry: pre-registered integer handles over flat arrays.
//!
//! Registration happens once, at plane construction, by dotted
//! `plane.subsystem.name` strings; recording happens through the returned
//! handle — an index into a `Vec` — so the hot path never hashes, never
//! allocates, and never compares a string. Every record call is guarded by
//! one `enabled` branch; a disabled recorder is a never-taken jump.

use crate::flight::FlightRecorder;
use crate::timeseries::TsRing;
use crate::ObsConfig;
use eus_simcore::{Histogram, SimDuration, SimTime, Summary};
use std::fmt::Write as _;
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

/// Handle to a time-series ring tracking a counter or gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsId(u16);

/// What a tracked ring samples at each tick.
#[derive(Debug, Clone, Copy)]
enum TrackSource {
    /// The counter's delta since the previous tick (windowed rate).
    Counter(u16),
    /// The gauge's current level.
    Gauge(u16),
}

/// One tracked time-series: a ring fed by boundary samples of a handle.
#[derive(Debug, Clone)]
struct Tracked {
    source: TrackSource,
    ring: TsRing,
    last: u64,
}

/// An in-flight span: the wall-clock instant it opened, or `None` when the
/// recorder was disabled at open time (the matching
/// [`Recorder::span_end`] is then free).
#[derive(Debug, Clone, Copy)]
#[must_use = "a span token does nothing unless passed to span_end"]
pub struct SpanToken(Option<Instant>);

impl SpanToken {
    /// A token that records nothing (the disabled path).
    pub const NOOP: SpanToken = SpanToken(None);
}

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

/// The registry + storage for one plane's metrics and flight recorder.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    reservoir: usize,
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<i64>,
    span_names: Vec<&'static str>,
    spans: Vec<SpanStats>,
    tracked: Vec<Tracked>,
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
            reservoir: cfg.reservoir,
            counter_names: Vec::new(),
            counters: Vec::new(),
            gauge_names: Vec::new(),
            gauges: Vec::new(),
            span_names: Vec::new(),
            spans: Vec::new(),
            tracked: Vec::new(),
            flight: FlightRecorder::new(cfg.flight_capacity),
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

    /// Flip recording. Turning it on mid-run starts from the standing
    /// (usually zero) state; turning it off freezes it.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
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
            wall_ns: Histogram::with_reservoir(self.reservoir),
        });
        SpanId((self.span_names.len() - 1) as u16)
    }

    /// Attach a time-series ring to a counter: each [`ts_tick`](Self::ts_tick)
    /// samples the counter's *delta* since the previous tick into a
    /// `bucket`-wide ring of `capacity` buckets, giving windowed rates
    /// without touching the counter's hot record path. Construction time
    /// only.
    pub fn track_counter(&mut self, id: CounterId, bucket: SimDuration, capacity: usize) -> TsId {
        self.tracked.push(Tracked {
            source: TrackSource::Counter(id.0),
            ring: TsRing::new(bucket, capacity),
            last: 0,
        });
        TsId((self.tracked.len() - 1) as u16)
    }

    /// Attach a time-series ring to a gauge: each tick samples the gauge's
    /// current *level* (clamped at 0). Construction time only.
    pub fn track_gauge(&mut self, id: GaugeId, bucket: SimDuration, capacity: usize) -> TsId {
        self.tracked.push(Tracked {
            source: TrackSource::Gauge(id.0),
            ring: TsRing::new(bucket, capacity),
            last: 0,
        });
        TsId((self.tracked.len() - 1) as u16)
    }

    /// Sample every tracked handle into its ring at sim time `at`. Called
    /// at pump/cycle boundaries — never from a record site — so tracking
    /// adds zero work to the hot path.
    pub fn ts_tick(&mut self, at: SimTime) {
        if !self.enabled {
            return;
        }
        for t in &mut self.tracked {
            match t.source {
                TrackSource::Counter(i) => {
                    let now = self.counters.get(i as usize).copied().unwrap_or(0);
                    let delta = now.saturating_sub(t.last);
                    t.last = now;
                    if delta > 0 {
                        t.ring.record(at, delta as f64);
                    }
                }
                TrackSource::Gauge(i) => {
                    let level = self.gauges.get(i as usize).copied().unwrap_or(0).max(0);
                    t.ring.record(at, level as f64);
                }
            }
        }
    }

    /// The ring behind a tracked handle (windowed reads in tests).
    #[cfg(test)]
    fn ts(&self, id: TsId) -> Option<&TsRing> {
        self.tracked.get(id.0 as usize).map(|t| &t.ring)
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

/// A point-in-time, JSON-renderable snapshot of a [`Recorder`].
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(&'static str, i64)>,
    /// Span rows.
    pub spans: Vec<SpanRow>,
}

impl ObsSnapshot {
    /// Value of a counter by name (0 when unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Span row by name.
    pub fn span(&self, name: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Render as a JSON object (hand-rolled — the workspace has no serde;
    /// the shape is `{ "counters": {..}, "gauges": {..}, "spans": {..} }`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                n,
                v
            );
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                if i == 0 { "" } else { "," },
                n,
                v
            );
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": {{ \"count\": {}, \"total_ns\": {}",
                if i == 0 { "" } else { "," },
                s.name,
                s.count,
                s.total_ns
            );
            if let Some(w) = &s.wall_ns {
                let _ = write!(
                    out,
                    ", \"wall_ns\": {{ \"mean\": {:.1}, \"p50\": {:.1}, \"p99\": {:.1}, \"max\": {:.1} }}",
                    w.mean, w.p50, w.p99, w.max
                );
            }
            out.push_str(" }");
        }
        out.push_str("\n  }\n}");
        out
    }
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
        assert_eq!(r.flight.len(), 0);
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
        assert_eq!(snap.counter("x.y.count"), 5);
        assert_eq!(snap.span("x.y.phase").unwrap().count, 1);
        assert!(snap.to_json().contains("\"x.y.count\": 5"));
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
    fn tracked_counter_samples_deltas_at_ticks() {
        let mut r = Recorder::new(&ObsConfig::enabled());
        let c = r.counter("m.evt.count");
        let ts = r.track_counter(c, SimDuration::from_secs(10), 8);
        r.add(c, 3);
        r.ts_tick(SimTime::from_secs(10));
        r.add(c, 5);
        r.ts_tick(SimTime::from_secs(20));
        let ring = r.ts(ts).unwrap();
        let w = ring.window(SimTime::from_secs(20), 2);
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 8.0);
        assert_eq!(w.max, 5.0);
        // A tick with no movement records nothing.
        r.ts_tick(SimTime::from_secs(30));
        assert_eq!(r.ts(ts).unwrap().window(SimTime::from_secs(30), 1).count, 0);
    }

    #[test]
    fn tracked_gauge_samples_levels() {
        let mut r = Recorder::new(&ObsConfig::enabled());
        let g = r.gauge("m.occ.level");
        let ts = r.track_gauge(g, SimDuration::from_secs(10), 8);
        r.gauge_set(g, 7);
        r.ts_tick(SimTime::from_secs(10));
        r.gauge_set(g, 4);
        r.ts_tick(SimTime::from_secs(20));
        let w = r.ts(ts).unwrap().window(SimTime::from_secs(20), 2);
        assert_eq!(w.count, 2);
        assert_eq!(w.max, 7.0);
    }

    #[test]
    fn disabled_tick_is_free() {
        let mut r = Recorder::disabled();
        let c = r.counter("m.evt.count");
        let ts = r.track_counter(c, SimDuration::from_secs(10), 8);
        r.ts_tick(SimTime::from_secs(10));
        assert_eq!(r.ts(ts).unwrap().window(SimTime::from_secs(10), 8).count, 0);
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
