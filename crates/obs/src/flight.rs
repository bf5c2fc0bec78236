//! The flight recorder: a fixed-capacity ring of sim-time-stamped events.
//!
//! Each plane pushes structured [`FlightEvent`]s (job transitions, audit
//! hits, staleness edges, preemption decisions) as it runs; the ring keeps
//! the most recent `capacity` of them. When a property test or experiment
//! assertion fails, the tail is rendered next to the mismatch so the
//! forensics arrive with the failure instead of requiring a re-run.

use eus_simcore::SimTime;
use std::fmt::Write as _;

/// One structured event. Payload fields `a`/`b`/`c` are plane-defined
/// (job id, node id, lag microseconds, …) — keeping them as raw `u64`s
/// lets every plane share one recorder type without `obs` depending on
/// domain crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (total pushes when this event landed).
    pub seq: u64,
    /// Simulation time of the event.
    pub at: SimTime,
    /// Static event kind, e.g. `"job.start"`, `"preempt.kill"`.
    pub kind: &'static str,
    /// First payload word (plane-defined).
    pub a: u64,
    /// Second payload word (plane-defined).
    pub b: u64,
    /// Third payload word (plane-defined).
    pub c: u64,
}

/// Fixed-capacity ring buffer of [`FlightEvent`]s. Oldest events are
/// overwritten once `capacity` is exceeded; `seq` stays monotone so
/// wrap-around is detectable from the dump.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    capacity: usize,
    /// Index of the oldest retained event in `buf` (ring head).
    head: usize,
    /// Total events ever pushed (≥ retained count).
    pushed: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            buf: Vec::new(),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Append an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, at: SimTime, kind: &'static str, a: u64, b: u64, c: u64) {
        let ev = FlightEvent {
            seq: self.pushed,
            at,
            kind,
            a,
            b,
            c,
        };
        self.pushed += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        for i in 0..self.buf.len() {
            out.push(self.buf[(self.head + i) % self.buf.len().max(1)]);
        }
        out
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let evs = self.events();
        let skip = evs.len().saturating_sub(n);
        evs[skip..].to_vec()
    }

    /// Render the last `n` events as indented lines — the shape printed
    /// under a failing property so the mismatch ships with its forensics.
    pub fn render_tail(&self, label: &str, n: usize) -> String {
        let evs = self.tail(n);
        let mut out = format!(
            "--- flight recorder [{}]: last {} of {} events (cap {}) ---\n",
            label,
            evs.len(),
            self.pushed,
            self.capacity
        );
        if evs.is_empty() {
            out.push_str("  (empty)\n");
        }
        for ev in evs {
            let _ = writeln!(
                out,
                "  #{:<6} t={:>12.3}s  {:<24} a={} b={} c={}",
                ev.seq,
                ev.at.as_secs_f64(),
                ev.kind,
                ev.a,
                ev.b,
                ev.c
            );
        }
        out
    }

    /// Dump every retained event as a JSON array, oldest first — the
    /// payload `SecureCluster::publish_flight_dumps` hands the
    /// `EUS_FLIGHT_DUMP` sink. Hand-rolled: kinds are static identifiers,
    /// so no string escaping is needed.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ev) in self.events().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{ \"seq\": {}, \"t\": {:.6}, \"kind\": \"{}\", \"a\": {}, \"b\": {}, \"c\": {} }}",
                if i == 0 { "" } else { "," },
                ev.seq,
                ev.at.as_secs_f64(),
                ev.kind,
                ev.a,
                ev.b,
                ev.c
            );
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
    fn retains_in_order_before_wrap() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..5u64 {
            fr.push(t(i), "ev", i, 0, 0);
        }
        let evs = fr.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(fr.pushed(), 5);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.a, i as u64);
        }
    }

    #[test]
    fn wrap_around_keeps_newest_and_stays_ordered() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..11u64 {
            fr.push(t(i), "ev", i, 0, 0);
        }
        assert_eq!(fr.pushed(), 11);
        assert_eq!(fr.buf.len(), 4);
        let evs = fr.events();
        // Oldest retained is seq 7; newest is seq 10; strictly ordered.
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert!(evs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..6u64 {
            fr.push(t(i), "ev", i, 0, 0);
        }
        let tail = fr.tail(2);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
        // Asking for more than retained yields everything retained.
        assert_eq!(fr.tail(100).len(), 4);
    }

    #[test]
    fn render_covers_wrapped_state() {
        let mut fr = FlightRecorder::new(2);
        fr.push(t(1), "job.start", 7, 3, 0);
        fr.push(t(2), "job.end", 7, 0, 0);
        fr.push(t(3), "preempt.kill", 9, 1, 0);
        let text = fr.render_tail("opt", 10);
        assert!(text.contains("job.end"));
        assert!(text.contains("preempt.kill"));
        assert!(!text.contains("job.start")); // overwritten
        assert!(text.contains("last 2 of 3 events"));
    }
}
