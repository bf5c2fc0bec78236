//! # eus-simcore — simulation substrate for the Enhanced User Separation reproduction
//!
//! The paper's evaluation platform is a production HPC cluster; this crate is
//! the stand-in clock and measurement bench everything else runs on:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — microsecond-resolution
//!   simulated time.
//! * [`rng::SimRng`] — seeded randomness with the exponential / Poisson /
//!   Zipf / bounded-Pareto samplers the workload generator needs.
//! * [`metrics`] — counters, exact-quantile histograms, and time-weighted
//!   integrals (utilization).
//! * [`hash`] — the keyed one-round hasher behind every hot hash table
//!   ([`KeyedMap`], [`KeyedSet`]).
//!
//! Nothing in this crate knows about users, files, or firewalls; it exists so
//! that every simulated outcome is a pure function of a seed.

#![warn(missing_docs)]

pub mod hash;
pub mod metrics;
pub mod rng;
pub mod time;

pub use hash::{splitmix64, HashKey, KeyedMap, KeyedSet};
pub use metrics::{Counter, Histogram, Summary, TimeWeighted};
pub use rng::{SimRng, Zipf};
pub use time::{SimDuration, SimTime};
