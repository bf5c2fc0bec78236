//! Fixed-capacity sim-time-bucketed rings: windowed rates and levels.
//!
//! A [`TsRing`] divides the sim clock into equal buckets and keeps the
//! last `capacity` of them, each holding exact (count, sum, max)
//! aggregates. Recording never allocates once the ring is at capacity,
//! and never looks at the wall clock — windows are pure sim time, so a
//! windowed rate is replay-deterministic.
//!
//! A ring is fed with [`TsRing::record`], one value per observation; the
//! SLO plane ([`crate::slo`]) owns one per objective and records into it
//! at pump/cycle boundaries, so the hot record path never sees a ring.

use eus_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;

/// One bucket's exact aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TsBucket {
    /// Observations that landed in this bucket.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
}

/// Aggregates over a trailing window of buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowAgg {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of values inside the window.
    pub sum: f64,
    /// Largest value inside the window (0 when empty).
    pub max: f64,
    /// Window length in seconds of sim time.
    pub window_secs: f64,
}

impl WindowAgg {
    /// Mean value (0 when the window saw nothing).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Events per second of sim time.
    pub fn rate_per_sec(&self) -> f64 {
        if self.window_secs <= 0.0 {
            0.0
        } else {
            self.count as f64 / self.window_secs
        }
    }
}

/// A fixed-capacity ring of sim-time buckets.
#[derive(Debug, Clone)]
pub struct TsRing {
    bucket_us: u64,
    buckets: Vec<TsBucket>,
    /// Absolute bucket index (`at / bucket_us`) of the newest bucket;
    /// `u64::MAX` marks an empty ring.
    head: u64,
    cap: usize,
}

impl TsRing {
    /// A ring of `capacity` buckets, each `bucket` of sim time wide.
    pub fn new(bucket: SimDuration, capacity: usize) -> Self {
        let cap = capacity.max(1);
        TsRing {
            bucket_us: bucket.as_micros().max(1),
            buckets: vec![TsBucket::default(); cap],
            head: u64::MAX,
            cap,
        }
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_micros(self.bucket_us)
    }

    /// Ring capacity in buckets.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Record one observation at sim time `at`. O(1) amortized, allocation
    /// free. Observations older than the retained window are dropped;
    /// observations in a retained past bucket fold into it.
    pub fn record(&mut self, at: SimTime, v: f64) {
        let idx = at.as_micros() / self.bucket_us;
        if self.head == u64::MAX {
            self.head = idx;
        }
        if idx > self.head {
            // Advance, zeroing skipped buckets (at most `cap` of them).
            let gap = (idx - self.head).min(self.cap as u64);
            for k in 1..=gap {
                let slot = ((self.head + k) % self.cap as u64) as usize;
                if let Some(b) = self.buckets.get_mut(slot) {
                    *b = TsBucket::default();
                }
            }
            self.head = idx;
        } else if self.head - idx >= self.cap as u64 {
            return; // older than the retained window
        }
        let slot = (idx % self.cap as u64) as usize;
        if let Some(b) = self.buckets.get_mut(slot) {
            b.count += 1;
            b.sum += v;
            if v > b.max {
                b.max = v;
            }
        }
    }

    /// Aggregate the trailing `window` buckets ending at `now`'s bucket.
    /// Buckets past the ring's retention (or after `now` relative to the
    /// head) contribute nothing.
    pub fn window(&self, now: SimTime, window: usize) -> WindowAgg {
        let window = window.clamp(1, self.cap);
        let mut agg = WindowAgg {
            window_secs: (window as u64 * self.bucket_us) as f64 / 1e6,
            ..WindowAgg::default()
        };
        if self.head == u64::MAX {
            return agg;
        }
        let now_idx = now.as_micros() / self.bucket_us;
        for k in 0..window as u64 {
            let Some(idx) = now_idx.checked_sub(k) else {
                break;
            };
            // Skip buckets the ring never reached or already recycled.
            if idx > self.head || self.head - idx >= self.cap as u64 {
                continue;
            }
            let slot = (idx % self.cap as u64) as usize;
            if let Some(b) = self.buckets.get(slot) {
                agg.count += b.count;
                agg.sum += b.sum;
                if b.max > agg.max {
                    agg.max = b.max;
                }
            }
        }
        agg
    }

    /// Render the retained non-empty buckets as a JSON array, oldest first.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("[");
        if self.head != u64::MAX {
            let oldest = self.head.saturating_sub(self.cap as u64 - 1);
            let mut first = true;
            for idx in oldest..=self.head {
                let slot = (idx % self.cap as u64) as usize;
                let Some(b) = self.buckets.get(slot) else {
                    continue;
                };
                if b.count == 0 {
                    continue;
                }
                let _ = write!(
                    out,
                    "{}\n  {{ \"t_us\": {}, \"count\": {}, \"sum\": {:.3}, \"max\": {:.3} }}",
                    if first { "" } else { "," },
                    idx * self.bucket_us,
                    b.count,
                    b.sum,
                    b.max
                );
                first = false;
            }
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn windowed_aggregates() {
        let mut r = TsRing::new(SimDuration::from_secs(10), 8);
        r.record(t(5), 2.0);
        r.record(t(7), 4.0);
        r.record(t(15), 10.0);
        // Window of 1 bucket at t=15 sees only the second bucket.
        let w1 = r.window(t(15), 1);
        assert_eq!(w1.count, 1);
        assert_eq!(w1.max, 10.0);
        // Window of 2 buckets sees everything.
        let w2 = r.window(t(15), 2);
        assert_eq!(w2.count, 3);
        assert!((w2.mean() - 16.0 / 3.0).abs() < 1e-12);
        assert!((w2.rate_per_sec() - 3.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn old_buckets_age_out() {
        let mut r = TsRing::new(SimDuration::from_secs(1), 4);
        r.record(t(0), 1.0);
        r.record(t(100), 1.0); // jump far ahead: old bucket recycled
        assert_eq!(r.window(t(100), 4).count, 1);
        // A record older than retention is dropped.
        r.record(t(90), 5.0);
        assert_eq!(r.window(t(100), 4).count, 1);
    }

    #[test]
    fn gap_zeroes_skipped_buckets() {
        let mut r = TsRing::new(SimDuration::from_secs(1), 4);
        r.record(t(0), 7.0);
        r.record(t(2), 1.0);
        // Bucket 1 must be empty, not stale.
        let w = r.window(t(2), 2);
        assert_eq!(w.count, 1);
        assert_eq!(w.max, 1.0);
        // The full window still sees bucket 0.
        assert_eq!(r.window(t(2), 3).count, 2);
    }

    #[test]
    fn empty_ring_is_quiet() {
        let r = TsRing::new(SimDuration::from_secs(1), 4);
        let w = r.window(t(50), 4);
        assert_eq!(w.count, 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.rate_per_sec(), 0.0);
        assert_eq!(r.dump_json(), "[\n]");
    }

    #[test]
    fn dump_json_lists_nonempty_buckets() {
        let mut r = TsRing::new(SimDuration::from_secs(1), 4);
        r.record(t(1), 3.0);
        r.record(t(3), 4.0);
        let json = r.dump_json();
        assert!(json.contains("\"t_us\": 1000000"), "{json}");
        assert!(json.contains("\"t_us\": 3000000"), "{json}");
    }
}
