//! The fault taxonomy: every disruption the chaos plane knows how to
//! inject, as plain data. A [`Fault`] says nothing about *when* — pairing
//! it with an injection instant is [`FaultEvent`]'s job, and scheduling a
//! script of those is [`crate::FaultPlan`]'s.

use eus_fedauth::RealmId;
use eus_simcore::{SimDuration, SimTime};
use eus_simos::NodeId;

/// One typed fault. Each variant maps onto exactly one fault hook in the
/// planes under test (scheduler, simnet WAN fabric, credential plane,
/// revsync mesh), so an applied fault is always attributable.
///
/// Faults that name a `heal_after` are reverted by the controller that
/// many simulated seconds after injection; the rest heal through the
/// system's own machinery (node auto-repair) or are one-way by nature
/// (clock skew — clocks don't rewind).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Crash one compute node: running jobs requeue per scheduler policy
    /// and the node auto-repairs after `eus_sched::REPAIR_TIME`.
    NodeCrash {
        /// The victim.
        node: NodeId,
    },
    /// A storm of repeated crashes: every node in `nodes` fails `pulses`
    /// times, waves spaced `gap` apart — with auto-repair in between,
    /// the nodes *flap*. The stress case for requeue/run-epoch hygiene.
    NodeFlapStorm {
        /// The victims (each wave hits all of them).
        nodes: Vec<NodeId>,
        /// How many waves.
        pulses: u32,
        /// Spacing between waves.
        gap: SimDuration,
    },
    /// Sever the WAN link between two realms' feed daemons. Feed pushes
    /// fail *detectably* at connect time, so the issuer takes the
    /// capped-backoff retry path; replica lag grows toward fail-closed.
    LinkPartition {
        /// One end (realm on the revsync WAN).
        a: RealmId,
        /// The other end.
        b: RealmId,
        /// Controller heals the link this long after injection.
        heal_after: SimDuration,
    },
    /// In-transit loss on a WAN link: connects succeed, some deliveries
    /// vanish (the subscriber sees sequence gaps; anti-entropy repairs).
    LinkLoss {
        /// One end.
        a: RealmId,
        /// The other end.
        b: RealmId,
        /// Probability each transfer is dropped, in `(0, 1]`.
        rate: f64,
        /// Controller heals the link this long after injection.
        heal_after: SimDuration,
    },
    /// Extra one-way latency on a WAN link (a congested or rerouted
    /// path): everything still arrives, later.
    LatencySpike {
        /// One end.
        a: RealmId,
        /// The other end.
        b: RealmId,
        /// Added latency per setup/transfer.
        extra: SimDuration,
        /// Controller heals the link this long after injection.
        heal_after: SimDuration,
    },
    /// The home realm's identity provider goes dark: *new* logins fail
    /// `Unavailable`; already-minted tokens keep validating locally.
    IdpOutage {
        /// Controller restores the IdP this long after injection.
        heal_after: SimDuration,
    },
    /// The home realm's certificate authority goes dark: credential
    /// *minting* fails `Unavailable`; verification is local and unharmed.
    CaOutage {
        /// Controller restores the CA this long after injection.
        heal_after: SimDuration,
    },
    /// Silently stall the revocation push feed from a sister realm to the
    /// home site: pushes are swallowed with no error, so no retry fires —
    /// only the subscriber's silence detector and anti-entropy notice.
    FeedStall {
        /// The issuing sister realm whose feed stalls.
        realm: RealmId,
        /// Controller unstalls the feed this long after injection.
        heal_after: SimDuration,
    },
    /// Run one realm's credential-plane clock `ahead` of the federation
    /// clock (drifted NTP): its sessions expire and sweep early. One-way —
    /// plane clocks are monotone, so this fault has no heal.
    ClockSkew {
        /// The realm whose clock drifts.
        realm: RealmId,
        /// How far ahead it runs.
        ahead: SimDuration,
    },
}

impl Fault {
    /// Static taxonomy label (`"node.crash"`, `"idp.outage"`, …) — the
    /// names the applied-log, flight events, and docs table share.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::NodeCrash { .. } => "node.crash",
            Fault::NodeFlapStorm { .. } => "node.flap_storm",
            Fault::LinkPartition { .. } => "link.partition",
            Fault::LinkLoss { .. } => "link.loss",
            Fault::LatencySpike { .. } => "link.latency_spike",
            Fault::IdpOutage { .. } => "idp.outage",
            Fault::CaOutage { .. } => "ca.outage",
            Fault::FeedStall { .. } => "feed.stall",
            Fault::ClockSkew { .. } => "clock.skew",
        }
    }

    /// How long after injection the controller reverts this fault, when
    /// it is the controller's to revert (`None`: the system heals itself
    /// or the fault is one-way).
    pub fn heal_after(&self) -> Option<SimDuration> {
        match self {
            Fault::LinkPartition { heal_after, .. }
            | Fault::LinkLoss { heal_after, .. }
            | Fault::LatencySpike { heal_after, .. }
            | Fault::IdpOutage { heal_after }
            | Fault::CaOutage { heal_after }
            | Fault::FeedStall { heal_after, .. } => Some(*heal_after),
            Fault::NodeCrash { .. } | Fault::NodeFlapStorm { .. } | Fault::ClockSkew { .. } => None,
        }
    }
}

/// A fault pinned to its injection instant on the simulation clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the controller injects it (an `advance_to` boundary).
    pub at: SimTime,
    /// What happens.
    pub fault: Fault,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heal_ownership_matches_the_taxonomy() {
        let d = SimDuration::from_secs(60);
        assert!(Fault::IdpOutage { heal_after: d }.heal_after().is_some());
        assert!(Fault::NodeCrash { node: NodeId(1) }.heal_after().is_none());
        assert!(Fault::ClockSkew {
            realm: RealmId(2),
            ahead: d
        }
        .heal_after()
        .is_none());
        assert_eq!(Fault::IdpOutage { heal_after: d }.kind(), "idp.outage");
    }
}
