//! Scheduler observability: the pre-registered handle set for the engine.
//!
//! One [`SchedObs`] travels inside every [`crate::engine::Scheduler`]. It
//! is constructed **disabled** (every record call is a single never-taken
//! branch — `exp_obs_overhead` keeps that cost measured) and turned on via
//! [`crate::engine::Scheduler::enable_obs`]. All handles are registered
//! here, once, so the hot path never touches a name.
//!
//! Span names follow `plane.subsystem.name` (see ARCHITECTURE.md for the
//! full table):
//!
//! | span                   | covers                                        |
//! |------------------------|-----------------------------------------------|
//! | `sched.cycle.select`   | fair-share / band-major head selection        |
//! | `sched.cycle.dispatch` | head placement attempts over the index        |
//! | `sched.cycle.shadow`   | EASY shadow replay (memo misses only)         |
//! | `sched.cycle.backfill` | the backfill candidate scan                   |
//! | `sched.cycle.preempt`  | preemption victim search + feasibility proof  |
//! | `sched.calendar.plan`  | every calendar refresh, memo hit to full plan |

use eus_obs::{CounterId, ObsConfig, ObsSnapshot, Recorder, SpanId, TraceBuffer};

/// Plane code baked into scheduler trace ids (see [`TraceBuffer::new`]).
pub const SCHED_TRACE_CODE: u8 = 2;

/// The scheduler's recorder plus every handle it records through.
#[derive(Debug, Clone)]
pub struct SchedObs {
    /// The registry + flight recorder (`sched.*` namespace).
    pub rec: Recorder,
    /// Head placement attempts.
    pub sp_dispatch: SpanId,
    /// Head selection (fair-share reorder / QoS band scan).
    pub sp_select: SpanId,
    /// EASY shadow replay.
    pub sp_shadow: SpanId,
    /// Backfill candidate scan.
    pub sp_backfill: SpanId,
    /// Reservation calendar refresh: memo check, top-K selection, retag
    /// test and (when they miss) the plan itself; plus `earliest_start`
    /// probes.
    pub sp_calendar: SpanId,
    /// Preemption victim search.
    pub sp_preempt: SpanId,
    /// Blocked-head memo hits (placement attempt skipped).
    pub c_head_memo_hit: CounterId,
    /// Head placement attempts actually run.
    pub c_head_memo_miss: CounterId,
    /// Shadow memo hits (replay skipped).
    pub c_shadow_memo_hit: CounterId,
    /// Shadow replays actually run.
    pub c_shadow_memo_miss: CounterId,
    /// Replays that early-exited at `now` (head already fits).
    pub c_shadow_early_exit: CounterId,
    /// Replays that walked the running-release list.
    pub c_shadow_replays: CounterId,
    /// Backfill placement attempts.
    pub c_bf_attempts: CounterId,
    /// Backfill candidates started.
    pub c_bf_accepts: CounterId,
    /// Candidates rejected by the shadow bound (no placement attempted).
    pub c_bf_shadow_rejects: CounterId,
    /// Candidates skipped via the per-version failure memo.
    pub c_bf_memo_rejects: CounterId,
    /// Whole backfill scans skipped by the window memo (unchanged
    /// `(head, version, shrink-epoch)` with the depth budget unspent).
    pub c_bf_scan_skips: CounterId,
    /// Exhausted scans resumed at their cursor (new arrivals only).
    pub c_bf_scan_resumes: CounterId,
    /// Head placement attempts skipped by the O(1) certain-fail fit gate.
    pub c_fit_gate: CounterId,
    /// Placeable candidates refused for colliding with a held reservation.
    pub c_bf_rsv_refusals: CounterId,
    /// Preemption victim searches (blocked latency-sensitive heads).
    pub c_preempt_searches: CounterId,
    /// Jobs killed-and-requeued by preemption.
    pub c_preempt_kills: CounterId,
    /// Full calendar plans derived.
    pub c_cal_plans: CounterId,
    /// Calendar rebuilds satisfied by the (version, queue) memo.
    pub c_cal_memo_hits: CounterId,
    /// Standing plans re-tagged on arrival floods (top-K unchanged).
    pub c_cal_retags: CounterId,
    /// One-off `earliest_start` probe plans for beyond-top-K jobs.
    pub c_cal_probes: CounterId,
    /// Jobs started.
    pub c_starts: CounterId,
    /// Jobs finished (any outcome).
    pub c_finishes: CounterId,
    /// Total queue wait of started interactive-QoS jobs, microseconds
    /// (boundary-sampled with [`c_interactive_waits`](Self::c_interactive_waits)
    /// into the `sched.interactive.wait` SLO ring).
    pub c_interactive_wait_us: CounterId,
    /// Interactive-QoS jobs started (the denominator for the wait SLO).
    pub c_interactive_waits: CounterId,
    /// Registered and never incremented: planning is single-threaded, but
    /// `benchmark/` (not editable outside a `benchmark`-archetype PR) still
    /// reads `sched.shard.plans`. That PR drops both ends.
    pub c_shard_plans: CounterId,
    /// Causal trace ring: `sched.job.dispatch` spans stitched to the
    /// submission context recorded at `try_submit`.
    pub trace: TraceBuffer,
}

impl SchedObs {
    /// Register the full scheduler handle set under `cfg`.
    pub fn new(cfg: &ObsConfig) -> Self {
        let mut rec = Recorder::new(cfg);
        SchedObs {
            sp_dispatch: rec.span("sched.cycle.dispatch"),
            sp_select: rec.span("sched.cycle.select"),
            sp_shadow: rec.span("sched.cycle.shadow"),
            sp_backfill: rec.span("sched.cycle.backfill"),
            sp_calendar: rec.span("sched.calendar.plan"),
            sp_preempt: rec.span("sched.cycle.preempt"),
            c_head_memo_hit: rec.counter("sched.memo.head_hit"),
            c_head_memo_miss: rec.counter("sched.memo.head_miss"),
            c_shadow_memo_hit: rec.counter("sched.memo.shadow_hit"),
            c_shadow_memo_miss: rec.counter("sched.memo.shadow_miss"),
            c_shadow_early_exit: rec.counter("sched.shadow.early_exit"),
            c_shadow_replays: rec.counter("sched.shadow.replay"),
            c_bf_attempts: rec.counter("sched.backfill.attempts"),
            c_bf_accepts: rec.counter("sched.backfill.accepts"),
            c_bf_shadow_rejects: rec.counter("sched.backfill.shadow_rejects"),
            c_bf_memo_rejects: rec.counter("sched.backfill.memo_rejects"),
            c_bf_scan_skips: rec.counter("sched.backfill.scan_skips"),
            c_bf_scan_resumes: rec.counter("sched.backfill.scan_resumes"),
            c_fit_gate: rec.counter("sched.memo.fit_gate"),
            c_bf_rsv_refusals: rec.counter("sched.backfill.rsv_refusals"),
            c_preempt_searches: rec.counter("sched.preempt.searches"),
            c_preempt_kills: rec.counter("sched.preempt.kills"),
            c_cal_plans: rec.counter("sched.calendar.plans"),
            c_cal_memo_hits: rec.counter("sched.calendar.memo_hits"),
            c_cal_retags: rec.counter("sched.calendar.retags"),
            c_cal_probes: rec.counter("sched.calendar.probes"),
            c_starts: rec.counter("sched.jobs.starts"),
            c_finishes: rec.counter("sched.jobs.finishes"),
            c_interactive_wait_us: rec.counter("sched.interactive.wait_us"),
            c_interactive_waits: rec.counter("sched.interactive.waits"),
            c_shard_plans: rec.counter("sched.shard.plans"),
            trace: TraceBuffer::new("sched", SCHED_TRACE_CODE, 4096, cfg.enabled),
            rec,
        }
    }

    /// A disabled handle set (the default inside every scheduler).
    pub fn disabled() -> Self {
        Self::new(&ObsConfig::default())
    }

    /// Snapshot every metric (counters, gauges, span histograms).
    pub fn snapshot(&self) -> ObsSnapshot {
        self.rec.snapshot()
    }

    /// Memoization hit ratio of the EASY shadow (the arrival-flood save).
    pub fn shadow_memo_ratio(&self) -> f64 {
        self.rec
            .hit_ratio(self.c_shadow_memo_hit, self.c_shadow_memo_miss)
    }

    /// Fraction of shadow replays that early-exited at `now`.
    pub fn shadow_early_exit_ratio(&self) -> f64 {
        self.rec
            .hit_ratio(self.c_shadow_early_exit, self.c_shadow_replays)
    }

    /// Backfill accept ratio (accepts / attempts).
    pub fn backfill_accept_ratio(&self) -> f64 {
        let att = self.rec.counter_value(self.c_bf_attempts) as f64;
        if att == 0.0 {
            0.0
        } else {
            self.rec.counter_value(self.c_bf_accepts) as f64 / att
        }
    }
}

impl Default for SchedObs {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let obs = SchedObs::default();
        assert!(!obs.rec.enabled());
        assert_eq!(obs.rec.counter_value(obs.c_starts), 0);
    }

    #[test]
    fn ratios_from_counters() {
        let mut obs = SchedObs::new(&ObsConfig::enabled());
        obs.rec.add(obs.c_shadow_memo_hit, 9);
        obs.rec.add(obs.c_shadow_memo_miss, 1);
        assert!((obs.shadow_memo_ratio() - 0.9).abs() < 1e-12);
        obs.rec.add(obs.c_bf_attempts, 4);
        obs.rec.add(obs.c_bf_accepts, 1);
        assert!((obs.backfill_accept_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(obs.shadow_early_exit_ratio(), 0.0);
    }
}
