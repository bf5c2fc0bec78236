//! # eus-bench — the scheduler and observability wall-clock experiments
//!
//! Two binaries under `src/bin/` (`exp_sched_scale`, `exp_obs_overhead`)
//! and the `sched_throughput` Criterion bench under `benches/`: the
//! measurements only a wall-clock number can carry. README.md's
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

use eus_simcore::{SimRng, SimTime};
use eus_simos::UserDb;
use eus_workloads::{Trace, UserPopulation, WorkloadMix};

/// Generate the standard LLSC-like trace the scheduler bench replays.
pub fn standard_trace(users: usize, horizon_hours: u64, seed: u64) -> Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut db = UserDb::new();
    let pop = UserPopulation::build(&mut db, users, users / 5 + 1, 1.1, &mut rng);
    WorkloadMix::llsc_like().generate(&pop, SimTime::from_secs(horizon_hours * 3600), &mut rng)
}
