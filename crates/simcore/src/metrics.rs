//! Measurement primitives shared by every experiment.
//!
//! Three shapes cover everything the reproduction reports:
//! * [`Counter`] — monotone event counts (connections allowed/denied, …).
//! * [`Histogram`] — sampled values with exact quantiles (latencies, waits).
//! * [`TimeWeighted`] — a value integrated over simulated time (allocated
//!   cores → utilization).

use crate::time::SimTime;
use std::fmt;
use std::sync::OnceLock;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.count
    }
}

/// Sampled-value histogram with exact aggregates and optional bounded
/// sample retention.
///
/// The default (exact) mode retains every observation, buying *exact*
/// quantiles rather than bucketed approximations — fine for the few
/// hundred thousand samples typical experiments produce. Million-event
/// storms instead use [`Histogram::with_reservoir`]: a fixed-capacity
/// uniform reservoir (Algorithm R with a deterministic generator) bounds
/// memory while `count`, `mean`, `std_dev`, `min`, and `max` stay exact
/// from running aggregates; only the quantiles become estimates.
///
/// `summary()` sorts at most once per mutation: the sorted view is cached
/// in a [`OnceLock`] (kept `Sync`) and invalidated whenever a sample
/// lands.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    /// Reservoir capacity; `None` retains everything (exact mode).
    cap: Option<usize>,
    /// Items offered to the reservoir (Algorithm R index), ≥ retained.
    offered: u64,
    /// Deterministic LCG state for reservoir eviction.
    rng: u64,
    // Exact running aggregates, valid in both modes.
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
    /// Sorted copy of `samples`, built lazily by `summary()` and dropped
    /// on every mutation.
    sorted: OnceLock<Vec<f64>>,
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Histogram {
    /// An empty histogram retaining every observation (exact quantiles).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram retaining at most `cap` samples (min 1) in a
    /// uniform reservoir. Aggregates stay exact; quantiles are estimated
    /// from the reservoir.
    pub fn with_reservoir(cap: usize) -> Self {
        Histogram {
            cap: Some(cap.max(1)),
            // Fixed odd seed: runs are reproducible without threading a
            // generator through every recording site.
            rng: 0x9e37_79b9_7f4a_7c15,
            ..Self::default()
        }
    }

    /// Record one observation. Non-finite values are rejected loudly: they
    /// always indicate a harness bug.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite sample {v}");
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.sumsq += v * v;
        self.retain(v);
    }

    /// Keep (or reservoir-sample) one value into `samples`.
    fn retain(&mut self, v: f64) {
        self.sorted.take();
        let i = self.offered;
        self.offered += 1;
        match self.cap {
            None => self.samples.push(v),
            Some(cap) => {
                if self.samples.len() < cap {
                    self.samples.push(v);
                } else {
                    // Algorithm R: replace a uniform slot in [0, i].
                    let j = self.next_u64() % (i + 1);
                    if (j as usize) < cap {
                        self.samples[j as usize] = v;
                    }
                }
            }
        }
    }

    /// Deterministic xorshift step for reservoir eviction.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Mean of the observations (0 when empty); exact in both modes.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Full summary; `None` when empty. Count, mean, std-dev, min, and max
    /// are exact; quantiles come from the retained samples. The sorted
    /// view is cached across calls and rebuilt only after a mutation.
    pub fn summary(&self) -> Option<Summary> {
        if self.count == 0 {
            return None;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut s = self.samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            s
        });
        let n = sorted.len();
        let mean = self.mean();
        let var = (self.sumsq / self.count as f64 - mean * mean).max(0.0);
        let q = |p: f64| -> f64 {
            // Nearest-rank on the sorted retained samples.
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[idx]
        };
        Some(Summary {
            count: self.count as usize,
            mean,
            std_dev: var.sqrt(),
            min: self.min,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max: self.max,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} p50={:.2} p95={:.2} p99={:.2} max={:.2}",
            self.count, self.mean, self.std_dev, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// A step function of simulated time, integrated exactly.
///
/// Call [`TimeWeighted::set`] whenever the tracked quantity changes; the
/// integral between updates accumulates `value × elapsed`. Dividing by the
/// observation window gives the time-weighted average — this is how node and
/// core utilization are computed in the scheduler experiments.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_change: SimTime,
    current: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Start tracking at `start` with initial value `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: initial,
            integral: 0.0,
        }
    }

    /// Update the tracked value as of time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_change,
            "time went backwards: {now} < {}",
            self.last_change
        );
        self.integral += self.current * now.since(self.last_change).as_secs_f64();
        self.last_change = now;
        self.current = value;
    }

    /// Adjust the tracked value by a delta as of time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let next = self.current + delta;
        self.set(now, next);
    }

    /// Integral of the value from the start through `now`, in value·seconds.
    pub fn integral(&self, now: SimTime) -> f64 {
        self.integral + self.current * now.since(self.last_change).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        for _ in 0..5 {
            c.incr();
        }
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_summary_exact() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn histogram_empty_summary_none() {
        assert!(Histogram::new().summary().is_none());
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn time_weighted_average() {
        // 4 cores busy for 10s, then 0 for 10s => average 2 over 20s.
        let mut tw = TimeWeighted::new(SimTime::ZERO, 4.0);
        tw.set(SimTime::from_secs(10), 0.0);
        assert!((tw.integral(SimTime::from_secs(20)) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_add_and_integral() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::from_secs(5), 2.0); // 0 for 5s
        tw.add(SimTime::from_secs(10), -1.0); // 2 for 5s
                                              // integral at t=20: 0*5 + 2*5 + 1*10 = 20
        assert!((tw.integral(SimTime::from_secs(20)) - 20.0).abs() < 1e-9);
        assert_eq!(tw.current, 1.0);
    }

    #[test]
    fn histogram_reservoir_bounds_memory_keeps_aggregates_exact() {
        let mut h = Histogram::with_reservoir(64);
        for v in 1..=100_000u64 {
            h.record(v as f64);
        }
        assert_eq!(h.samples.len(), 64); // retention bounded
        assert_eq!(h.count, 100_000); // count exact
        let s = h.summary().unwrap();
        assert_eq!(s.count, 100_000);
        assert!((s.mean - 50_000.5).abs() < 1e-6);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100_000.0);
        // Uniform reservoir over a uniform stream: the median estimate
        // should land in the broad middle of the range.
        assert!(s.p50 > 20_000.0 && s.p50 < 80_000.0, "p50={}", s.p50);
    }

    #[test]
    fn histogram_reservoir_below_capacity_is_exact() {
        let mut h = Histogram::with_reservoir(128);
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn histogram_summary_cache_invalidated_on_record() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.summary().unwrap().max, 10.0);
        // A second record must drop the cached sorted view.
        h.record(20.0);
        let s = h.summary().unwrap();
        assert_eq!(s.max, 20.0);
        assert_eq!(s.count, 2);
        // Repeated summaries on an unchanged histogram agree (cache hit).
        assert_eq!(h.summary(), h.summary());
    }

    #[test]
    fn time_weighted_zero_duration_interval() {
        // Two value changes at the same instant: the intermediate value
        // contributes nothing; only the final one integrates forward.
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(5), 100.0);
        tw.set(SimTime::from_secs(5), 2.0); // zero-duration spike
        assert!((tw.integral(SimTime::from_secs(10)) - (1.0 * 5.0 + 2.0 * 5.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_out_of_order_update_panics() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(10), 1.0);
        tw.set(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn time_weighted_out_of_order_finalize_saturates() {
        // Reading the integral *before* the last change must not go
        // negative: `since` saturates, so the pending interval contributes
        // zero rather than rewinding accumulated area.
        let mut tw = TimeWeighted::new(SimTime::ZERO, 4.0);
        tw.set(SimTime::from_secs(10), 0.0); // integral now 40
        assert!((tw.integral(SimTime::from_secs(5)) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_change_at_exact_sample_boundary() {
        // Value changes at t=10; sampling the integral at exactly t=10
        // must attribute [0,10) to the old value and nothing to the new,
        // whether read before or after the change lands.
        let mut tw = TimeWeighted::new(SimTime::ZERO, 3.0);
        assert!((tw.integral(SimTime::from_secs(10)) - 30.0).abs() < 1e-9);
        tw.set(SimTime::from_secs(10), 7.0);
        assert!((tw.integral(SimTime::from_secs(10)) - 30.0).abs() < 1e-9);
        // One second later the new value has taken over.
        assert!((tw.integral(SimTime::from_secs(11)) - 37.0).abs() < 1e-9);
    }
}
