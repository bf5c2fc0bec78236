//! # eus-bench — the scheduler and observability wall-clock experiments
//!
//! Two binaries under `src/bin/` (`exp_sched_scale`, `exp_obs_overhead`):
//! the measurements only a wall-clock number can carry. README.md's
//! "Experiments" table gives every earlier experiment's disposition and
//! the test or `benchmark/` metric that carries its claim now.

pub mod table;

/// Assert with forensics: when `cond` fails, print the prepared dump (a
/// rendered [`eus_obs::FlightRecorder::render_tail`], typically) to stderr
/// before panicking, so a failed acceptance gate ships with the event
/// history that led to it instead of a bare number mismatch.
#[macro_export]
macro_rules! assert_or_dump {
    ($cond:expr, $forensics:expr, $($arg:tt)+) => {
        if !$cond {
            eprintln!("{}", $forensics);
            panic!($($arg)+);
        }
    };
}
