//! `eus-chaos`: deterministic fault injection and graceful-degradation
//! verification for the simulated cluster.
//!
//! The paper's separation argument is stated for a healthy site; this
//! crate asks what's left of it when the site's dependencies misbehave.
//! Three pieces:
//!
//! * a **taxonomy** ([`Fault`]) covering the scheduler (node crashes and
//!   flap storms), the revsync WAN (partitions, loss, latency spikes), the
//!   credential plane (IdP/CA outages, shard seizures), the feed layer
//!   (silent stalls), and per-realm clock skew;
//! * seeded, time-ordered **plans** ([`FaultPlan`]) — hand-built for
//!   targeted scenarios or drawn from a [`PlanShape`] for property tests,
//!   byte-for-byte reproducible from `(seed, shape)`;
//! * a **controller** ([`ChaosController`]) that drives a plan into a
//!   [`SecureCluster`](eus_core::SecureCluster), splitting every clock
//!   advance at due fault/heal instants so each disruption lands on a
//!   cycle boundary — where the cluster's dependency-health ladders
//!   ([`eus_core::DepHealth`]), `core.health.*` gauges, and the
//!   `cluster.dependency.degraded` SLO observe it.
//!
//! Chaos is strictly *outside-in*: every injection goes through a public
//! fault hook of the plane under test, and the hot paths carry no chaos
//! branches. Determinism is the load-bearing property — a failing fault
//! schedule is a *repro*, not an anecdote.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod fault;
mod plan;

pub use controller::{sister_realms, ChaosController};
pub use eus_core::HOME_REALM;
pub use fault::{Fault, FaultEvent};
pub use plan::{FaultPlan, PlanShape};

#[cfg(test)]
mod tests {
    use super::*;
    use eus_core::{ClusterSpec, DepHealth, Dependency, SecureCluster, SeparationConfig};
    use eus_fedauth::{
        shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId, SharedBroker,
    };
    use eus_simcore::{SimDuration, SimTime};

    fn federated_cluster() -> (SecureCluster, SharedBroker) {
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xC4A0,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        (c, sister)
    }

    #[test]
    fn idp_outage_injects_at_the_scheduled_instant_and_heals_on_time() {
        let (mut c, _) = federated_cluster();
        let alice = c.add_user("alice").unwrap();
        let plan = FaultPlan::new(1).inject(
            SimTime::from_secs(100),
            Fault::IdpOutage {
                heal_after: SimDuration::from_secs(200),
            },
        );
        let mut ctrl = ChaosController::new(plan);
        ctrl.arm(&mut c);

        ctrl.advance_to(&mut c, SimTime::from_secs(50));
        assert!(c.idp_available(), "fault must not fire early");
        let home = c.broker.clone().unwrap();
        let minted = c.login_at(&home, alice).unwrap();

        ctrl.advance_to(&mut c, SimTime::from_secs(150));
        assert!(!c.idp_available());
        assert_eq!(
            c.login_at(&home, alice),
            Err(CredError::Unavailable),
            "new logins refuse during the outage"
        );
        assert_eq!(
            home.read().validate_token(&minted).unwrap(),
            alice,
            "minted tokens keep validating (graceful degradation)"
        );
        assert!(matches!(
            c.dependency_health(Dependency::Idp),
            DepHealth::Degraded { .. }
        ));

        ctrl.advance_to(&mut c, SimTime::from_secs(400));
        assert!(c.idp_available(), "heal must land at +200s");
        assert_eq!(c.dependency_health(Dependency::Idp), DepHealth::Healthy);
        assert!(ctrl.done());
        assert_eq!(ctrl.applied.len(), 1);
        assert_eq!(ctrl.healed, vec![(SimTime::from_secs(300), "idp.outage")]);
    }

    #[test]
    fn wan_partition_walks_the_feed_to_fail_closed_and_anti_entropy_recovers() {
        let (mut c, sister) = federated_cluster();
        let alice = c.add_user("alice").unwrap();
        let budget = c.config.revsync_max_lag;
        let plan = FaultPlan::new(2).inject(
            SimTime::from_secs(10),
            Fault::LinkPartition {
                a: RealmId(2),
                b: HOME_REALM,
                heal_after: budget + SimDuration::from_secs(120),
            },
        );
        let mut ctrl = ChaosController::new(plan);
        ctrl.arm(&mut c);

        // Ride past the staleness budget: fabric-level partition means
        // every push is *detected* and retried with backoff, but nothing
        // gets through — the replica ages into fail-closed.
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(10) + budget + SimDuration::from_secs(60) {
            t += SimDuration::from_secs(30);
            ctrl.advance_to(&mut c, t);
        }
        assert_eq!(c.dependency_health(Dependency::Feed), DepHealth::FailClosed);
        let token = c.login_at(&sister, alice).unwrap();
        assert!(
            matches!(
                c.validate_federated_token(&token),
                Err(CredError::StaleReplica { .. })
            ),
            "over-budget replica must refuse, never trust stale data"
        );

        // The heal lands at 10s + budget + 120s; the mesh's own retry (or
        // at worst the next anti-entropy round) re-syncs the replica.
        let heal_at = SimTime::from_secs(10) + budget + SimDuration::from_secs(120);
        let recover_by = heal_at + c.config.revsync_anti_entropy + SimDuration::from_secs(60);
        while t < recover_by {
            t += SimDuration::from_secs(30);
            ctrl.advance_to(&mut c, t);
        }
        assert_eq!(c.dependency_health(Dependency::Feed), DepHealth::Healthy);
        assert_eq!(c.validate_federated_token(&token).unwrap(), alice);
        assert!(ctrl.done());
    }

    #[test]
    fn home_clock_skew_does_not_leak_into_a_sister_that_joins_during_it() {
        // `ClockSkew` has no `heal_after` (plane clocks are monotone, the
        // controller cannot rewind one): the scripted heal is a second
        // injection clearing the skew, after which the federation clock
        // catches up. A sister registered *inside* the window must join on
        // the federation clock, or it stays a minute ahead for good.
        let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
        let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
        let minute = SimDuration::from_secs(60);
        let skew = |ahead| Fault::ClockSkew {
            realm: HOME_REALM,
            ahead,
        };
        let plan = FaultPlan::new(3)
            .inject(SimTime::from_secs(40), skew(minute))
            .inject(SimTime::from_secs(300), skew(SimDuration::ZERO));
        let mut ctrl = ChaosController::new(plan);
        ctrl.arm(&mut c);
        let home = c.broker.clone().unwrap();

        ctrl.advance_to(&mut c, SimTime::from_secs(100));
        assert_eq!(home.read().now(), SimTime::from_secs(160), "skew injected");
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            0xC4A1,
            BrokerPolicy::default(),
        ));
        c.register_sister_realm(RealmId(2), sister.clone());
        assert_eq!(sister.read().now(), SimTime::from_secs(100));

        // Healed at 300 s; the home plane waits at 360 s for the federation
        // clock, the sister never left it.
        ctrl.advance_to(&mut c, SimTime::from_secs(330));
        assert!(ctrl.done());
        assert_eq!(home.read().now(), SimTime::from_secs(360));
        assert_eq!(sister.read().now(), SimTime::from_secs(330));
        ctrl.advance_to(&mut c, SimTime::from_secs(400));
        assert_eq!(home.read().now(), SimTime::from_secs(400));
        assert_eq!(sister.read().now(), SimTime::from_secs(400));
        assert!(
            c.replica_lag(RealmId(2)).unwrap() <= c.config.revsync_feed_interval,
            "the feed kept its cadence through the skew"
        );
    }

    #[test]
    fn same_plan_same_cluster_same_applied_log() {
        let run = |seed: u64| {
            let (mut c, _) = federated_cluster();
            let shape = PlanShape {
                realms: sister_realms(&c),
                nodes: c.compute_ids.clone(),
                shards: c.config.broker_shards as usize,
                faults: 8,
                horizon: SimDuration::from_secs(1800),
                ..PlanShape::default()
            };
            let mut ctrl = ChaosController::new(FaultPlan::random(seed, &shape));
            ctrl.arm(&mut c);
            let mut t = SimTime::ZERO;
            for _ in 0..40 {
                t += SimDuration::from_secs(120);
                ctrl.advance_to(&mut c, t);
            }
            (
                format!("{:?}", ctrl.applied),
                format!("{:?}", ctrl.healed),
                format!("{:?}", c.dependency_health(Dependency::Feed)),
            )
        };
        assert_eq!(run(42), run(42), "chaos runs must replay exactly");
        assert!(run(42) != run(43) || run(7) != run(8), "seeds must matter");
    }

    #[test]
    fn flap_storm_conserves_jobs_and_accounts_every_casualty() {
        use eus_sched::{JobSpec, JobState};
        let (mut c, _) = federated_cluster();
        let alice = c.add_user("alice").unwrap();
        // First wave of work: running when the storm hits, so it dies —
        // the scheduler's modeled policy fails (not requeues) victims,
        // with a FailureRecord per crash.
        for i in 0..4 {
            c.try_submit(JobSpec::new(
                alice,
                format!("early{i}"),
                SimDuration::from_secs(400),
            ))
            .unwrap();
        }
        let nodes = c.compute_ids.clone();
        let plan = FaultPlan::new(3).inject(
            SimTime::from_secs(60),
            Fault::NodeFlapStorm {
                nodes,
                pulses: 3,
                gap: SimDuration::from_secs(700),
            },
        );
        let mut ctrl = ChaosController::new(plan);
        ctrl.arm(&mut c);
        // Drive through the storm: pulses at 60/760/1460s, auto-repair
        // 600s after each, so the cluster flaps down-up-down.
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2400) {
            t += SimDuration::from_secs(120);
            ctrl.advance_to(&mut c, t);
        }
        // Post-storm work on the repaired nodes must run to completion.
        for i in 0..4 {
            c.try_submit(JobSpec::new(
                alice,
                format!("late{i}"),
                SimDuration::from_secs(400),
            ))
            .unwrap();
        }
        c.run_to_completion();
        let sched = c.sched.read();
        let completed = sched
            .jobs
            .values()
            .filter(|j| j.state == JobState::Completed)
            .count();
        let failed = sched
            .jobs
            .values()
            .filter(|j| j.state == JobState::Failed)
            .count();
        let nonterminal = sched
            .jobs
            .values()
            .filter(|j| !j.state.is_terminal())
            .count();
        let recorded: usize = sched.failures.iter().map(|r| r.failed_jobs.len()).sum();
        drop(sched);
        // Conservation: every job reached exactly one terminal state, and
        // every casualty is attributed to a crash record — nothing lost,
        // nothing double-run, nothing stuck.
        assert_eq!(nonterminal, 0, "no job may be left in limbo");
        assert_eq!(completed + failed, 8, "all work accounted for");
        assert_eq!(failed, recorded, "every casualty traces to a crash");
        assert_eq!(completed, 4, "post-storm work completes on repaired nodes");
    }
}
