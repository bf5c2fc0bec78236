//! The plane's shared surfaces: [`SharedBroker`], the handle the cluster,
//! the portal and the revocation mesh hold on the realm's
//! [`CredentialBroker`], and [`PlaneClock`], the clock that plane
//! publishes.

use crate::broker::CredentialBroker;
use eus_simcore::SimTime;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A plane's published clock: the one cell its
/// [`advance_to`](CredentialBroker::advance_to) stores to and every reader
/// of "now" loads from — the plane itself, its session table, and (through
/// [`CredentialBroker::clock`]) the revocation mesh that registers the
/// plane, which judges time-boxed trust and replica staleness on it
/// without taking the plane's guard. There is no second copy of the instant to keep in step.
#[derive(Debug, Clone, Default)]
pub struct PlaneClock(Arc<AtomicU64>);

impl PlaneClock {
    // analyze:hot-path-begin(plane-clock)
    /// The instant the plane last advanced to. The `Acquire` load pairs
    /// with the `Release` half of the plane's advance: a reader that sees
    /// instant *t* sees everything the plane wrote before it advanced to
    /// *t*.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.0.load(Ordering::Acquire))
    }
    // analyze:hot-path-end

    /// Monotone advance; only the owning plane moves its clock.
    pub(crate) fn advance_to(&self, t: SimTime) {
        self.0.fetch_max(t.as_micros(), Ordering::AcqRel);
    }
}

/// A shared credential-plane handle (the cluster, the portal and the
/// revocation mesh each hold one).
pub type SharedBroker = Arc<RwLock<CredentialBroker>>;

/// Wrap a broker for sharing.
pub fn shared_broker(broker: CredentialBroker) -> SharedBroker {
    Arc::new(RwLock::new(broker))
}
