//! # eus-obs — zero-overhead observability for the separation planes
//!
//! The paper's evaluation hinges on *attributing* overhead to individual
//! mechanisms, yet timing whole experiments only says "the scheduler got
//! slower", never *which cycle phase* burned the time. This crate is the
//! workspace-wide answer, built around one discipline: **instrumentation
//! that is native to the hot path must cost nothing when it is off and a
//! bounds-checked array write when it is on.** Three pillars:
//!
//! * [`Recorder`] — a metrics registry of **pre-registered integer
//!   handles** ([`CounterId`], [`GaugeId`], [`SpanId`]). Registration (by
//!   dotted `plane.subsystem.name` strings) happens once at construction;
//!   the hot path records through the handle — an index into a flat `Vec`,
//!   no hashing, no allocation, no string compare — and the first check on
//!   every record call is a single `enabled` branch, so a disabled
//!   recorder compiles down to a predictable never-taken jump.
//! * **Phase spans** — [`Recorder::span_start`] returns a [`SpanToken`]
//!   (a wall-clock instant, or nothing when disabled);
//!   [`Recorder::span_end`] folds the elapsed nanoseconds into that span's
//!   count/total/histogram.
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of sim-time-stamped
//!   structured events ([`FlightEvent`]): job state transitions, audit
//!   hits, replica staleness edges, preemption decisions. Printable as a
//!   tail ([`FlightRecorder::render_tail`]) when a property test or experiment
//!   assertion fails — replayable forensics instead of an opaque mismatch.
//!
//! `&self` hot paths that cannot take `&mut` (credential validation,
//! which records under a read guard) use [`SharedStats`] — the same
//! pre-registered-handle discipline, made interior-mutable with relaxed
//! atomics. The program spawns no threads.
//!
//! The second generation (obs v2) adds three more pillars on the same
//! discipline:
//!
//! * [`trace`] — causal cross-plane tracing: a [`TraceCtx`] minted at an
//!   entry point (portal route, `try_submit`, ssh's account check,
//!   revocation API) propagates by value through the planes — and across the simnet
//!   WAN inside `CrlDelta` messages — so one trace covers portal revoke →
//!   mesh propagation → sister-replica apply → fail-closed deny. Completed
//!   spans land in per-plane [`TraceBuffer`] rings; [`render_trace`] draws
//!   the tree.
//! * [`timeseries`] — fixed-capacity sim-time-bucketed rings
//!   ([`TsRing`]) fed at pump/cycle boundaries: windowed rates and levels
//!   with zero additional work on the record path.
//! * [`slo`] — declarative objectives ([`SloSpec`]) over such rings with
//!   multi-window burn-rate alerting ([`SloPlane::evaluate`]); alerts are
//!   flight-recorder events plus a queryable [`AlertLog`].
//!
//! [`panicdump`] closes the forensics gap: with `EUS_FLIGHT_DUMP=path`
//! set, every published plane dump is written on any panic.
//!
//! Metric names follow `plane.subsystem.name` (`sched.cycle.backfill`,
//! `cred.broker.validate`, `revsync.mesh.pump`); ARCHITECTURE.md carries
//! the full span table. `exp_obs_overhead` keeps the disabled-path cost
//! measured (<1% on the 1 h replay trace, and on a replay through the
//! traced `try_submit` entry point, whose enabled trace hooks stay <5%)
//! and proves enabling the plane does not perturb scheduling decisions.

#![warn(missing_docs)]

pub mod flight;
pub mod panicdump;
pub mod registry;
pub mod shared;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use registry::{CounterId, GaugeId, ObsSnapshot, Recorder, SpanId, SpanStats, SpanToken};
pub use shared::{SharedId, SharedStats};
pub use slo::{Alert, AlertKind, AlertLog, SloAgg, SloId, SloPlane, SloSpec};
pub use timeseries::{TsRing, WindowAgg};
pub use trace::{
    assemble_trace, check_well_formed, render_trace, TraceBuffer, TraceCtx, TraceSpan, TraceToken,
};

/// Observability configuration: one struct, off by default, handed to each
/// plane's `enable_obs`-style entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Master switch. Off ⇒ every record call is a single never-taken
    /// branch and the flight recorder retains nothing.
    pub enabled: bool,
}

impl ObsConfig {
    /// The enabled configuration.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }
}
