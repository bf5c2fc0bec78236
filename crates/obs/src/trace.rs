//! Causal cross-plane tracing: `TraceCtx` propagation + per-plane rings.
//!
//! A trace is a tree of sim-time-stamped spans stitched across planes by a
//! [`TraceCtx`] — a (trace-id, parent-span-id) pair passed *by value*
//! through call chains, stored inside queued work (scheduler submissions),
//! and shipped across the simnet WAN inside `CrlDelta` messages. One trace
//! therefore covers a whole causal story: portal revoke → mesh propagation
//! → sister-replica apply → fail-closed validate.
//!
//! The PR-6 discipline holds throughout:
//!
//! * ids are integers minted from a per-plane atomic counter — the hot
//!   path never hashes, never compares a string;
//! * a disabled buffer costs one relaxed load + branch per call and
//!   returns [`TraceToken::NOOP`] / [`TraceCtx::NONE`], so every
//!   downstream record call is another never-taken branch;
//! * recording never feeds a decision — timestamps are `SimTime`, so a
//!   traced replay is bit-identical to a quiet one
//!   (`tests/obs_trace_properties.rs` pins this).
//!
//! Completed spans land in a fixed-capacity ring ([`TraceBuffer`]) behind
//! a mutex, so `&self` hot paths (broker validate under a read lock, the
//! mesh validate path) can record without a `&mut Recorder`. The mutex is
//! held only for the ring write — never across a call into another plane —
//! so it introduces no lock-order edges beyond `<holder> → trace-ring`.

use eus_simcore::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A causal context: which trace we are inside and which span is our
/// parent. `Copy` on purpose — contexts travel by value through call
/// chains, job queues, and wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace id (0 = no trace).
    pub trace: u64,
    /// Parent span id within the trace (0 = root position).
    pub parent: u64,
}

impl TraceCtx {
    /// The absent context: recording against it is free.
    pub const NONE: TraceCtx = TraceCtx {
        trace: 0,
        parent: 0,
    };

    /// True when this context carries no live trace.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// One completed span in a trace tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpan {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id (unique across planes — the plane code is baked into
    /// the high bits).
    pub span: u64,
    /// Parent span id (0 = trace root).
    pub parent: u64,
    /// Span name (`plane.subsystem.name`).
    pub name: &'static str,
    /// Plane that recorded it.
    pub plane: &'static str,
    /// Sim time the span opened.
    pub start: SimTime,
    /// Sim time the span closed (>= start).
    pub end: SimTime,
    /// One caller-defined detail word (serial, job id, entry count, …).
    pub detail: u64,
}

/// An open span: returned by [`TraceBuffer::root`]/[`TraceBuffer::start`],
/// closed by [`TraceBuffer::finish`]. `Copy` so it can be threaded through
/// early returns without ceremony; a NOOP token makes every follow-up free.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open trace span records nothing until passed to finish()"]
pub struct TraceToken {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start: SimTime,
}

impl TraceToken {
    /// The token of a disabled buffer — finishing it is free.
    pub const NOOP: TraceToken = TraceToken {
        trace: 0,
        span: 0,
        parent: 0,
        name: "",
        start: SimTime::ZERO,
    };

    /// The context children of this span should carry.
    #[inline]
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            parent: self.span,
        }
    }
}

/// Completed-span storage for one plane.
struct Ring {
    spans: Vec<TraceSpan>,
    head: usize,
    pushed: u64,
    cap: usize,
}

/// A per-plane ring of completed trace spans plus the id mint.
///
/// Interior-mutable on purpose: validate paths record through `&self`
/// behind read locks. Disabled, every entry point is one relaxed load +
/// branch.
pub struct TraceBuffer {
    plane: &'static str,
    code: u8,
    enabled: AtomicBool,
    next: AtomicU64,
    ring: Mutex<Ring>,
}

impl TraceBuffer {
    /// A buffer for `plane`. `code` (unique per plane, assigned at wiring
    /// time) is baked into the high byte of every id minted here, so span
    /// and trace ids never collide across planes. Starts disabled unless
    /// `enabled`.
    pub fn new(plane: &'static str, code: u8, capacity: usize, enabled: bool) -> Self {
        TraceBuffer {
            plane,
            code,
            enabled: AtomicBool::new(enabled),
            next: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                spans: Vec::new(),
                head: 0,
                pushed: 0,
                cap: capacity.max(1),
            }),
        }
    }

    /// A disabled buffer (the default inside every plane obs struct).
    pub fn disabled(plane: &'static str, code: u8) -> Self {
        Self::new(plane, code, 1024, false)
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording (callable through `&self` — the switch is atomic).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The plane name ids minted here are tagged with.
    pub fn plane(&self) -> &'static str {
        self.plane
    }

    /// Mint a fresh id: plane code in the high byte, counter below.
    #[inline]
    fn mint(&self) -> u64 {
        let n = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        ((self.code as u64) << 56) | (n & 0x00ff_ffff_ffff_ffff)
    }

    // analyze:hot-path-begin(trace-record)
    // Trace recording sits on validate paths (broker validate, mesh
    // fail-closed checks): no panics, no indexing, no allocation beyond
    // the ring's steady state.

    /// Open a new trace: mints a trace id and its root span. NOOP when
    /// disabled.
    #[inline]
    pub fn root(&self, name: &'static str, at: SimTime) -> TraceToken {
        if !self.enabled() {
            return TraceToken::NOOP;
        }
        TraceToken {
            trace: self.mint(),
            span: self.mint(),
            parent: 0,
            name,
            start: at,
        }
    }

    /// Open a child span under `parent`. NOOP when disabled or when the
    /// parent context carries no trace (quiet upstream plane).
    #[inline]
    pub fn start(&self, parent: TraceCtx, name: &'static str, at: SimTime) -> TraceToken {
        if !self.enabled() || parent.is_none() {
            return TraceToken::NOOP;
        }
        TraceToken {
            trace: parent.trace,
            span: self.mint(),
            parent: parent.parent,
            name,
            start: at,
        }
    }

    /// Close an open span, landing it in the ring. Free for NOOP tokens.
    #[inline]
    pub fn finish(&self, tok: TraceToken, end: SimTime) {
        self.finish_with(tok, end, 0);
    }

    /// [`finish`](Self::finish) with a detail word.
    #[inline]
    pub fn finish_with(&self, tok: TraceToken, end: SimTime, detail: u64) {
        if tok.trace == 0 {
            return;
        }
        let end = if end < tok.start { tok.start } else { end };
        self.push(TraceSpan {
            trace: tok.trace,
            span: tok.span,
            parent: tok.parent,
            name: tok.name,
            plane: self.plane,
            start: tok.start,
            end,
            detail,
        });
    }

    /// Record a point span (start == end) under `parent` and return the
    /// context its children should carry. [`TraceCtx::NONE`] when disabled
    /// or the parent carries no trace.
    #[inline]
    pub fn hit(&self, parent: TraceCtx, name: &'static str, at: SimTime, detail: u64) -> TraceCtx {
        if !self.enabled() || parent.is_none() {
            return TraceCtx::NONE;
        }
        let span = self.mint();
        self.push(TraceSpan {
            trace: parent.trace,
            span,
            parent: parent.parent,
            name,
            plane: self.plane,
            start: at,
            end: at,
            detail,
        });
        TraceCtx {
            trace: parent.trace,
            parent: span,
        }
    }

    /// Append one completed span, overwriting the oldest past capacity.
    fn push(&self, span: TraceSpan) {
        let mut r = self.ring.lock();
        if r.spans.len() < r.cap {
            r.spans.push(span);
        } else {
            let h = r.head;
            if let Some(slot) = r.spans.get_mut(h) {
                *slot = span;
            }
            r.head = (r.head + 1) % r.cap;
        }
        r.pushed += 1;
    }
    // analyze:hot-path-end

    /// Spans ever recorded (including those the ring has since dropped).
    pub fn pushed(&self) -> u64 {
        self.ring.lock().pushed
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> Vec<TraceSpan> {
        let r = self.ring.lock();
        let mut out = Vec::with_capacity(r.spans.len());
        out.extend_from_slice(&r.spans[r.head..]);
        out.extend_from_slice(&r.spans[..r.head]);
        out
    }

    /// Retained spans of one trace, oldest first.
    pub fn spans_for(&self, trace: u64) -> Vec<TraceSpan> {
        self.spans()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect()
    }

    /// Drop retained spans (the mint and pushed total keep counting).
    pub fn clear(&self) {
        let mut r = self.ring.lock();
        r.spans.clear();
        r.head = 0;
    }

    /// Render the retained spans as a JSON array (hand-rolled — the
    /// workspace has no serde).
    pub fn dump_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{ \"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"plane\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"detail\": {} }}",
                if i == 0 { "" } else { "," },
                s.trace,
                s.span,
                s.parent,
                s.name,
                s.plane,
                s.start.as_micros(),
                s.end.as_micros(),
                s.detail
            );
        }
        out.push_str("\n]");
        out
    }
}

impl Clone for TraceBuffer {
    fn clone(&self) -> Self {
        let r = self.ring.lock();
        TraceBuffer {
            plane: self.plane,
            code: self.code,
            enabled: AtomicBool::new(self.enabled()),
            next: AtomicU64::new(self.next.load(Ordering::Relaxed)),
            ring: Mutex::new(Ring {
                spans: r.spans.clone(),
                head: r.head,
                pushed: r.pushed,
                cap: r.cap,
            }),
        }
    }
}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("plane", &self.plane)
            .field("code", &self.code)
            .field("enabled", &self.enabled())
            .field("pushed", &self.ring.lock().pushed)
            .finish()
    }
}

/// Merge spans of one trace from several planes' dumps, ordered by
/// (start, span id) — the shape [`render_trace`] and the well-formedness
/// checks consume.
pub fn assemble_trace(trace: u64, plane_spans: &[Vec<TraceSpan>]) -> Vec<TraceSpan> {
    let mut all: Vec<TraceSpan> = plane_spans
        .iter()
        .flat_map(|v| v.iter().copied())
        .filter(|s| s.trace == trace)
        .collect();
    all.sort_by_key(|s| (s.start, s.span));
    all
}

/// Structural check of one assembled trace: exactly one root, every
/// non-root parent resolves to a recorded span, and no child starts before
/// its parent. Returns a human-readable defect description on failure.
// analyze:allow(dead-pub): the structural check a consumer runs before trusting an assembled trace
pub fn check_well_formed(spans: &[TraceSpan]) -> Result<(), String> {
    if spans.is_empty() {
        return Err("trace has no spans".into());
    }
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let mut roots = 0usize;
    for s in spans {
        if s.parent == 0 {
            roots += 1;
        } else if !ids.contains(&s.parent) {
            return Err(format!(
                "span {} ({}) has orphan parent {}",
                s.span, s.name, s.parent
            ));
        } else {
            let parent = spans.iter().find(|p| p.span == s.parent);
            if let Some(p) = parent {
                if s.start < p.start {
                    return Err(format!(
                        "span {} ({}) starts at {} before its parent {} ({}) at {}",
                        s.span, s.name, s.start, p.span, p.name, p.start
                    ));
                }
            }
        }
        if s.end < s.start {
            return Err(format!(
                "span {} ({}) ends before it starts",
                s.span, s.name
            ));
        }
    }
    if roots != 1 {
        return Err(format!("trace has {roots} roots (want exactly 1)"));
    }
    Ok(())
}

/// Render one assembled trace as an indented tree keyed by parentage,
/// oldest child first. Orphans (parent fell off a ring) are rendered as
/// additional top-level entries, marked.
pub fn render_trace(trace: u64, spans: &[TraceSpan]) -> String {
    let mut spans: Vec<TraceSpan> = spans.iter().copied().filter(|s| s.trace == trace).collect();
    spans.sort_by_key(|s| (s.start, s.span));
    let mut out = String::new();
    if spans.is_empty() {
        let _ = writeln!(out, "trace {trace:#x}: no spans");
        return out;
    }
    let t0 = spans.iter().map(|s| s.start).min().unwrap_or(SimTime::ZERO);
    let t1 = spans.iter().map(|s| s.end).max().unwrap_or(SimTime::ZERO);
    let _ = writeln!(
        out,
        "trace {trace:#x} ({} spans, {:.3}s..{:.3}s)",
        spans.len(),
        t0.as_secs_f64(),
        t1.as_secs_f64()
    );
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let tops: Vec<&TraceSpan> = spans
        .iter()
        .filter(|s| s.parent == 0 || !ids.contains(&s.parent))
        .collect();
    for (i, top) in tops.iter().enumerate() {
        let last = i + 1 == tops.len();
        render_node(&mut out, top, &spans, "", last, top.parent != 0);
    }
    // Wall-time distribution per span name: the tree shows one causal
    // path, the percentiles show whether that path was typical. Nearest-
    // rank percentiles over every same-named span in the trace.
    let mut by_name: std::collections::BTreeMap<&str, Vec<SimDuration>> =
        std::collections::BTreeMap::new();
    for s in &spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.end.since(s.start));
    }
    let _ = writeln!(out, "span wall-time percentiles:");
    for (name, mut durs) in by_name {
        durs.sort();
        let pick = |q: f64| -> SimDuration {
            let n = durs.len();
            let rank = ((n as f64) * q).ceil() as usize;
            durs[rank.clamp(1, n) - 1]
        };
        let _ = writeln!(
            out,
            "  {name}  n={} p50={:.3}s p95={:.3}s max={:.3}s",
            durs.len(),
            pick(0.50).as_secs_f64(),
            pick(0.95).as_secs_f64(),
            durs.last()
                .copied()
                .unwrap_or(SimDuration::ZERO)
                .as_secs_f64()
        );
    }
    out
}

fn render_node(
    out: &mut String,
    node: &TraceSpan,
    all: &[TraceSpan],
    prefix: &str,
    last: bool,
    orphan: bool,
) {
    let tee = if last { "└─" } else { "├─" };
    let dur = node.end.since(node.start);
    let _ = write!(
        out,
        "{prefix}{tee} {} [{}] t={:.3}s",
        node.name,
        node.plane,
        node.start.as_secs_f64()
    );
    if !dur.is_zero() {
        let _ = write!(out, " +{:.3}s", dur.as_secs_f64());
    }
    if node.detail != 0 {
        let _ = write!(out, " detail={}", node.detail);
    }
    if orphan {
        let _ = write!(out, " (orphan: parent {} not retained)", node.parent);
    }
    out.push('\n');
    let children: Vec<&TraceSpan> = all.iter().filter(|s| s.parent == node.span).collect();
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    for (i, c) in children.iter().enumerate() {
        render_node(out, c, all, &child_prefix, i + 1 == children.len(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let tb = TraceBuffer::disabled("test", 1);
        let tok = tb.root("a.b.c", t(1));
        assert!(tok.ctx().is_none());
        tb.finish(tok, t(2));
        assert_eq!(tb.hit(tok.ctx(), "a.b.d", t(2), 0), TraceCtx::NONE);
        assert_eq!(tb.pushed(), 0);
        assert!(tb.spans().is_empty());
    }

    #[test]
    fn spans_chain_across_buffers() {
        let a = TraceBuffer::new("alpha", 1, 64, true);
        let b = TraceBuffer::new("beta", 2, 64, true);
        let root = a.root("alpha.op.begin", t(1));
        assert!(!root.ctx().is_none());
        let c1 = b.hit(root.ctx(), "beta.op.step", t(2), 7);
        assert!(!c1.is_none());
        let c2 = b.hit(c1, "beta.op.deep", t(3), 0);
        assert!(!c2.is_none());
        a.finish(root, t(4));
        let spans = assemble_trace(root.ctx().trace, &[a.spans(), b.spans()]);
        assert_eq!(spans.len(), 3);
        check_well_formed(&spans).unwrap();
        let tree = render_trace(root.ctx().trace, &spans);
        assert!(tree.contains("alpha.op.begin"), "{tree}");
        assert!(tree.contains("beta.op.deep"), "{tree}");
    }

    #[test]
    fn render_trace_reports_span_percentiles() {
        // Hand-built trace: one root and ten same-named children with
        // wall times 1s..=10s, so the nearest-rank percentiles are exact:
        // p50 = 5s (rank ⌈0.5·10⌉ = 5), p95 = 10s (rank ⌈9.5⌉ = 10).
        let mk = |span, parent, name, start: u64, end: u64| TraceSpan {
            trace: 1,
            span,
            parent,
            name,
            plane: "p",
            start: t(start),
            end: t(end),
            detail: 0,
        };
        let mut spans = vec![mk(1, 0, "p.op.root", 0, 40)];
        for i in 1..=10u64 {
            spans.push(mk(1 + i, 1, "p.op.step", i, 2 * i));
        }
        check_well_formed(&spans).unwrap();
        let tree = render_trace(1, &spans);
        assert!(tree.contains("span wall-time percentiles:"), "{tree}");
        assert!(
            tree.contains("p.op.step  n=10 p50=5.000s p95=10.000s max=10.000s"),
            "{tree}"
        );
        assert!(
            tree.contains("p.op.root  n=1 p50=40.000s p95=40.000s max=40.000s"),
            "{tree}"
        );
    }

    #[test]
    fn ids_do_not_collide_across_planes() {
        let a = TraceBuffer::new("alpha", 1, 8, true);
        let b = TraceBuffer::new("beta", 2, 8, true);
        let ra = a.root("a.b.c", t(0));
        let rb = b.root("d.e.f", t(0));
        assert_ne!(ra.ctx().trace, rb.ctx().trace);
        assert_ne!(ra.span, rb.span);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let tb = TraceBuffer::new("test", 1, 4, true);
        for i in 0..10u64 {
            let tok = tb.root("x.y.z", t(i));
            tb.finish_with(tok, t(i), i);
        }
        assert_eq!(tb.pushed(), 10);
        let spans = tb.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].detail, 6, "oldest retained is #6");
        assert_eq!(spans[3].detail, 9);
    }

    #[test]
    fn well_formedness_catches_defects() {
        let mk = |span, parent, start: u64| TraceSpan {
            trace: 1,
            span,
            parent,
            name: "a.b.c",
            plane: "p",
            start: t(start),
            end: t(start),
            detail: 0,
        };
        // Two roots.
        assert!(check_well_formed(&[mk(1, 0, 0), mk(2, 0, 1)]).is_err());
        // Orphan parent.
        assert!(check_well_formed(&[mk(1, 0, 0), mk(2, 99, 1)]).is_err());
        // Child before parent.
        assert!(check_well_formed(&[mk(2, 0, 5), mk(3, 2, 1)]).is_err());
        // Clean chain.
        check_well_formed(&[mk(1, 0, 0), mk(2, 1, 1), mk(3, 2, 2)]).unwrap();
    }

    #[test]
    fn quiet_parent_makes_children_free() {
        let tb = TraceBuffer::new("test", 1, 8, true);
        let ctx = tb.hit(TraceCtx::NONE, "a.b.c", t(0), 0);
        assert!(ctx.is_none());
        assert_eq!(tb.pushed(), 0);
    }

    #[test]
    fn dump_json_shape() {
        let tb = TraceBuffer::new("test", 1, 8, true);
        let tok = tb.root("x.y.z", t(1));
        tb.finish_with(tok, t(2), 5);
        let json = tb.dump_json();
        assert!(json.contains("\"name\": \"x.y.z\""), "{json}");
        assert!(json.contains("\"detail\": 5"), "{json}");
    }
}
