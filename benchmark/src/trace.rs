//! Harness-side tracing: one span around each public call into the
//! program, kept in memory and written out when the run ends. No span is
//! added inside `crates/` — layer boundaries are the public API.
//!
//! A span's name is `layer.call`; the layer is the crate that does the
//! work (`portal`, `fedauth`, `sched`, `core`, `simnet`, ...). Harness
//! bookkeeping (`harness.rep`, `harness.op`) wraps them, so whatever wall
//! time is *not* inside a call span shows up as harness self time — the
//! `harness.untraced_share` the attribution gate bounds.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" / "tracing off" marker.
pub const NONE: u32 = u32::MAX;

/// One completed (or still-open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, [`NONE`] for a root.
    pub parent: u32,
    /// The operation (session, boundary, wire-up, round) it belongs to.
    pub op_id: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Tok(u32);

/// The span recorder. Off ⇒ `begin`/`end` are one branch each and no
/// clock is read, so the untraced run pays nothing measurable.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tag subsequent spans with operation `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op_id = id;
    }

    /// Open a span under the innermost open one. The clock is read first
    /// here and last in [`end`](Self::end), so the recorder's own
    /// bookkeeping falls inside the span (charged to the call), not
    /// between spans (charged to nobody).
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Tok {
        if !self.on {
            return Tok(NONE);
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(idx);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id: self.op_id,
        });
        Tok(idx)
    }

    /// Close a span. Spans close innermost-first (single thread, so they
    /// nest like the call stack).
    #[inline]
    pub fn end(&mut self, tok: Tok) {
        if tok.0 == NONE {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(tok.0), "spans must close innermost-first");
        let span = &mut self.spans[tok.0 as usize];
        span.end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Take the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "taking spans with one still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover. Children of one parent never overlap (one thread),
/// so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time and call count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Number of spans with this name.
    pub calls: u64,
}

/// Fold spans into per-name busy totals.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, Busy> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let b = out.entry(s.name).or_default();
        b.self_ns += ns;
        b.calls += 1;
    }
    out
}

/// The trace file: `{name, start_ns, end_ns, parent, op_id}` per span,
/// `parent` being an index into the same array (`null` for roots).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    (
                        "parent",
                        if s.parent == NONE {
                            Json::Null
                        } else {
                            Json::Int(s.parent as u64)
                        },
                    ),
                    ("op_id", Json::Int(s.op_id)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_a_synthetic_tree() {
        // rep [0,1000] ─ op [100,900] ─ a.x [200,500], b.y [600,800]
        //                             └ (op self = 800 − 300 − 200 = 300)
        let spans = vec![
            span("harness.rep", 0, 1000, NONE),
            span("harness.op", 100, 900, 0),
            span("a.x", 200, 500, 1),
            span("b.y", 600, 800, 1),
            span("a.x", 950, 990, 0),
        ];
        assert_eq!(self_times(&spans), vec![160, 300, 300, 200, 40]);
        let by = busy_by_name(&spans);
        assert_eq!(
            by["a.x"],
            Busy {
                self_ns: 340,
                calls: 2
            }
        );
        assert_eq!(by["harness.op"].self_ns, 300);
        assert_eq!(by["harness.rep"].self_ns, 160);
        // Self times partition the root's wall exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn recording_tracer_nests_and_off_tracer_records_nothing() {
        let mut t = Tracer::on();
        let rep = t.begin("harness.rep");
        t.set_op(7);
        let op = t.begin("harness.op");
        let call = t.begin("simnet.connect");
        t.end(call);
        t.end(op);
        t.end(rep);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].op_id, 7);
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut quiet = Tracer::off();
        let tok = quiet.begin("x.y");
        quiet.end(tok);
        assert!(quiet.take().is_empty());
    }
}
