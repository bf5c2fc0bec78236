//! The chaos controller: drives a [`FaultPlan`] into a live
//! [`SecureCluster`], injecting every fault at an `advance_to` boundary
//! and reverting controller-owned faults when their heal comes due.
//!
//! The controller *wraps* the cluster's clock: callers advance simulated
//! time through [`ChaosController::advance_to`], which splits the jump at
//! every due fault/heal instant so the cluster observes each disruption at
//! a proper cycle boundary (health ladders re-judged, SLOs fed, flight
//! events stamped). Between boundaries the cluster runs untouched — chaos
//! adds no hidden hooks to the hot paths.

use crate::{Fault, FaultEvent, FaultPlan};
use eus_core::SecureCluster;
use eus_fedauth::RealmId;
use eus_revsync::RevSyncMesh;
use eus_simcore::{SimDuration, SimTime};

/// Drives one [`FaultPlan`] into one cluster. Single-shot: build a fresh
/// controller per run (replays come from re-running the same plan).
#[derive(Debug)]
pub struct ChaosController {
    plan: FaultPlan,
    cursor: usize,
    /// Pending controller-owned reversions, time-sorted (stable for ties).
    heals: Vec<(SimTime, Fault)>,
    /// Every fault applied so far, in application order — the replay
    /// fingerprint (`format!("{:?}")` it for determinism checks).
    pub applied: Vec<FaultEvent>,
    /// Every heal applied so far, as `(when, fault kind)`.
    pub healed: Vec<(SimTime, &'static str)>,
}

impl ChaosController {
    /// Wrap a plan, ready to drive.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosController {
            plan,
            cursor: 0,
            heals: Vec::new(),
            applied: Vec::new(),
            healed: Vec::new(),
        }
    }

    /// Seed the cluster's chance-driven fault machinery (the revsync WAN
    /// fabric's loss draws) from the plan seed, so two runs of the same
    /// plan take identical loss decisions. Call once before driving.
    // analyze:allow(dead-pub): arming a plan on a cluster, the fault-injection plane's entry point (tests/chaos_properties.rs drives it)
    pub fn arm(&self, c: &mut SecureCluster) {
        if let Some(mesh) = &mut c.revsync {
            mesh.fabric_mut()
                .set_fault_seed(self.plan.seed ^ 0xC4A0_5EED);
        }
    }

    /// The plan being driven.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// All faults injected and all heals delivered?
    pub fn done(&self) -> bool {
        self.cursor == self.plan.events().len() && self.heals.is_empty()
    }

    /// Advance the cluster to `to`, stopping at every due fault/heal
    /// instant so each lands on its own cycle boundary. Heals due at an
    /// instant apply before faults due at the same instant (a link that
    /// heals and re-partitions in one breath ends partitioned).
    pub fn advance_to(&mut self, c: &mut SecureCluster, to: SimTime) {
        while let Some(t) = self.next_due(to) {
            c.advance_to(t);
            self.fire_due(c, t);
        }
        c.advance_to(to);
    }

    /// Earliest pending fault or heal at or before `to`.
    fn next_due(&self, to: SimTime) -> Option<SimTime> {
        let fault = self.plan.events().get(self.cursor).map(|e| e.at);
        let heal = self.heals.first().map(|(t, _)| *t);
        let next = match (fault, heal) {
            (Some(f), Some(h)) => Some(f.min(h)),
            (f, h) => f.or(h),
        };
        next.filter(|&t| t <= to)
    }

    /// Apply everything due at or before `t` (the cluster is already at
    /// `t`): heals first, then faults, preserving script order.
    fn fire_due(&mut self, c: &mut SecureCluster, t: SimTime) {
        while self.heals.first().is_some_and(|(h, _)| *h <= t) {
            let (when, fault) = self.heals.remove(0);
            self.heal(c, &fault);
            self.healed.push((when, fault.kind()));
        }
        while self
            .plan
            .events()
            .get(self.cursor)
            .is_some_and(|e| e.at <= t)
        {
            let ev = self.plan.events()[self.cursor].clone();
            self.cursor += 1;
            self.apply(c, &ev);
            if let Some(after) = ev.fault.heal_after() {
                let due = ev.at + after;
                let idx = self.heals.partition_point(|(h, _)| *h <= due);
                self.heals.insert(idx, (due, ev.fault.clone()));
            }
            self.applied.push(ev);
        }
    }

    /// Inject one fault through the matching plane hook.
    fn apply(&mut self, c: &mut SecureCluster, ev: &FaultEvent) {
        match &ev.fault {
            Fault::NodeCrash { node } => {
                c.sched.write().schedule_node_failure(ev.at, *node);
            }
            Fault::NodeFlapStorm { nodes, pulses, gap } => {
                let mut sched = c.sched.write();
                for pulse in 0..*pulses {
                    let when = ev.at + *gap * pulse as u64;
                    for node in nodes {
                        sched.schedule_node_failure(when, *node);
                    }
                }
            }
            Fault::LinkPartition { a, b, .. } => {
                Self::wan(c).set_partitioned(
                    RevSyncMesh::wan_host(*a),
                    RevSyncMesh::wan_host(*b),
                    true,
                );
            }
            Fault::LinkLoss { a, b, rate, .. } => {
                Self::wan(c).set_link_loss(
                    RevSyncMesh::wan_host(*a),
                    RevSyncMesh::wan_host(*b),
                    *rate,
                );
            }
            Fault::LatencySpike { a, b, extra, .. } => {
                Self::wan(c).set_latency_spike(
                    RevSyncMesh::wan_host(*a),
                    RevSyncMesh::wan_host(*b),
                    *extra,
                );
            }
            Fault::IdpOutage { .. } => c.set_idp_available(false),
            Fault::CaOutage { .. } => c.set_ca_available(false),
            Fault::FeedStall { realm, .. } => c.stall_sister_feed(*realm, true),
            Fault::ClockSkew { realm, ahead } => c.set_realm_clock_skew(*realm, *ahead),
        }
    }

    /// Revert one controller-owned fault.
    fn heal(&mut self, c: &mut SecureCluster, fault: &Fault) {
        match fault {
            Fault::LinkPartition { a, b, .. } => {
                Self::wan(c).set_partitioned(
                    RevSyncMesh::wan_host(*a),
                    RevSyncMesh::wan_host(*b),
                    false,
                );
            }
            Fault::LinkLoss { a, b, .. } => {
                Self::wan(c).set_link_loss(
                    RevSyncMesh::wan_host(*a),
                    RevSyncMesh::wan_host(*b),
                    0.0,
                );
            }
            Fault::LatencySpike { a, b, .. } => {
                Self::wan(c).set_latency_spike(
                    RevSyncMesh::wan_host(*a),
                    RevSyncMesh::wan_host(*b),
                    SimDuration::ZERO,
                );
            }
            Fault::IdpOutage { .. } => c.set_idp_available(true),
            Fault::CaOutage { .. } => c.set_ca_available(true),
            Fault::FeedStall { realm, .. } => c.stall_sister_feed(*realm, false),
            Fault::NodeCrash { .. } | Fault::NodeFlapStorm { .. } | Fault::ClockSkew { .. } => {
                unreachable!("never scheduled: heal_after() is None")
            }
        }
    }

    /// The revsync WAN fabric (link faults live there). A plan with link
    /// faults on a cluster without the credential plane is a script bug,
    /// not a silent no-op.
    fn wan(c: &mut SecureCluster) -> &mut eus_simnet::Fabric {
        c.revsync
            .as_mut()
            .expect("link faults need config.federated_auth (revsync WAN)")
            .fabric_mut()
    }
}

use eus_core::HOME_REALM;

/// Convenience: the sister realms a cluster actually has on its mesh
/// (for building a [`crate::PlanShape`] from a live cluster).
// analyze:allow(dead-pub): the realms a random plan may partition, read off a live cluster
pub fn sister_realms(c: &SecureCluster) -> Vec<RealmId> {
    match &c.revsync {
        Some(mesh) => mesh.realms().filter(|r| *r != HOME_REALM).collect(),
        None => Vec::new(),
    }
}
