//! Fault plans: seeded, sim-time-scheduled scripts of typed faults.
//!
//! A [`FaultPlan`] is pure data — build one by hand with
//! [`inject`](FaultPlan::inject) for a targeted scenario, or draw a random
//! one from a [`PlanShape`] with [`random`](FaultPlan::random) for
//! property tests. Same seed + same shape ⇒ the identical plan, byte for
//! byte: all randomness flows through one forked [`SimRng`], so chaos runs
//! replay exactly.

use crate::{Fault, FaultEvent};
use eus_fedauth::RealmId;
use eus_simcore::{SimDuration, SimRng, SimTime};
use eus_simos::NodeId;

/// What a random plan may draw from: the cluster surface the generator is
/// allowed to hurt. Empty `realms`/`nodes` simply remove the fault families
/// that need them from the menu.
#[derive(Debug, Clone)]
pub struct PlanShape {
    /// Faults land in `[0, horizon)` on the simulation clock.
    pub horizon: SimDuration,
    /// How many faults to draw.
    pub faults: usize,
    /// Sister realms in play (WAN link faults, feed stalls, clock skew).
    pub realms: Vec<RealmId>,
    /// Compute nodes in play (crashes, flap storms).
    pub nodes: Vec<NodeId>,
    /// Controller-owned heals are drawn from `[horizon/60, max_heal]`.
    pub max_heal: SimDuration,
}

impl Default for PlanShape {
    fn default() -> Self {
        PlanShape {
            horizon: SimDuration::from_secs(3600),
            faults: 6,
            realms: Vec::new(),
            nodes: Vec::new(),
            max_heal: SimDuration::from_secs(1200),
        }
    }
}

/// A seeded, time-ordered script of faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed the plan was drawn from (also seeds the WAN fabric's loss
    /// draws when the controller arms a cluster).
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (hand-build with [`inject`](Self::inject)).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Add one fault at an instant (builder style). Events keep
    /// time-sorted order; same-instant faults keep insertion order.
    pub fn inject(mut self, at: SimTime, fault: Fault) -> Self {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, FaultEvent { at, fault });
        self
    }

    /// The script, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the script empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draw a random plan: `shape.faults` faults uniform over the fault
    /// families the shape admits, at instants uniform in `[0, horizon)`.
    /// Deterministic in `(seed, shape)`.
    // analyze:allow(dead-pub): a seeded random fault plan, the chaos soak's input
    pub fn random(seed: u64, shape: &PlanShape) -> Self {
        let mut rng = SimRng::seed_from_u64(seed).fork(0xC4A0_50DE);
        // The admissible fault families, as small generator codes — the
        // menu is data so the draw stays uniform over what exists.
        let mut menu: Vec<u8> = Vec::new();
        if !shape.nodes.is_empty() {
            menu.extend([0, 1]); // crash, flap storm
        }
        if !shape.realms.is_empty() {
            // Link faults run between a sister and the home site, so one
            // sister realm is enough.
            menu.extend([2, 3, 4]); // partition, loss, latency spike
        }
        menu.extend([5, 6]); // idp, ca
        if !shape.realms.is_empty() {
            menu.extend([7, 8]); // feed stall, clock skew
        }

        let horizon_us = shape.horizon.as_micros().max(1);
        let heal_lo = (shape.horizon / 60).as_micros().max(1);
        let heal_hi = shape.max_heal.as_micros().max(heal_lo + 1);
        let mut plan = FaultPlan::new(seed);
        for _ in 0..shape.faults {
            let at = SimTime::ZERO + SimDuration::from_micros(rng.range_u64(0, horizon_us));
            let heal = SimDuration::from_micros(rng.range_u64(heal_lo, heal_hi));
            let fault = match *rng.pick(&menu) {
                0 => Fault::NodeCrash {
                    node: *rng.pick(&shape.nodes),
                },
                1 => {
                    let mut nodes = shape.nodes.clone();
                    rng.shuffle(&mut nodes);
                    nodes.truncate(1 + rng.index(shape.nodes.len()));
                    Fault::NodeFlapStorm {
                        nodes,
                        pulses: 2 + rng.index(3) as u32,
                        gap: SimDuration::from_secs(30 + rng.range_u64(0, 90)),
                    }
                }
                code @ 2..=4 => {
                    let a = *rng.pick(&shape.realms);
                    // The other end is the home site unless a second
                    // distinct sister comes up.
                    let b = *rng.pick(&shape.realms);
                    let b = if b == a { crate::HOME_REALM } else { b };
                    match code {
                        2 => Fault::LinkPartition {
                            a,
                            b,
                            heal_after: heal,
                        },
                        3 => Fault::LinkLoss {
                            a,
                            b,
                            rate: 0.2 + 0.8 * rng.f64(),
                            heal_after: heal,
                        },
                        _ => Fault::LatencySpike {
                            a,
                            b,
                            extra: SimDuration::from_millis(50 + rng.range_u64(0, 2000)),
                            heal_after: heal,
                        },
                    }
                }
                5 => Fault::IdpOutage { heal_after: heal },
                6 => Fault::CaOutage { heal_after: heal },
                7 => Fault::FeedStall {
                    realm: *rng.pick(&shape.realms),
                    heal_after: heal,
                },
                _ => Fault::ClockSkew {
                    realm: *rng.pick(&shape.realms),
                    ahead: SimDuration::from_secs(60 + rng.range_u64(0, 7200)),
                },
            };
            plan = plan.inject(at, fault);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape {
            realms: vec![RealmId(2), RealmId(3)],
            nodes: vec![NodeId(1), NodeId(2)],
            faults: 12,
            ..PlanShape::default()
        }
    }

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        let a = FaultPlan::random(7, &shape());
        let b = FaultPlan::random(7, &shape());
        assert_eq!(format!("{:?}", a.events()), format!("{:?}", b.events()));
        let c = FaultPlan::random(8, &shape());
        assert_ne!(format!("{:?}", a.events()), format!("{:?}", c.events()));
    }

    #[test]
    fn events_are_time_sorted_and_inject_is_stable() {
        let p = FaultPlan::random(11, &shape());
        assert_eq!(p.len(), 12);
        for w in p.events().windows(2) {
            assert!(w[0].at <= w[1].at, "events must be time-ordered");
        }
        let t = SimTime::from_secs(5);
        let p = FaultPlan::new(0)
            .inject(
                t,
                Fault::IdpOutage {
                    heal_after: SimDuration::from_secs(1),
                },
            )
            .inject(
                t,
                Fault::CaOutage {
                    heal_after: SimDuration::from_secs(1),
                },
            );
        assert_eq!(p.events()[0].fault.kind(), "idp.outage");
        assert_eq!(p.events()[1].fault.kind(), "ca.outage");
    }

    #[test]
    fn shape_gates_the_menu() {
        // No realms, no nodes: only IdP/CA outages possible.
        let s = PlanShape {
            faults: 20,
            ..PlanShape::default()
        };
        let p = FaultPlan::random(3, &s);
        for e in p.events() {
            assert!(
                matches!(e.fault, Fault::IdpOutage { .. } | Fault::CaOutage { .. }),
                "inadmissible fault {:?}",
                e.fault
            );
        }
    }
}
