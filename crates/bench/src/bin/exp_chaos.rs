//! Chaos acceptance experiment: what graceful degradation buys, measured.
//!
//! Four gates, one artifact (`BENCH_chaos.json`; `--smoke` writes a
//! sibling path so CI cannot clobber the committed trajectory point):
//!
//! 1. **Clean baseline** — a fault-free run probes at 100% availability
//!    and raises zero `cluster.dependency.degraded` alerts.
//! 2. **Severed feed** — a WAN partition walks the feed ladder to
//!    `FailClosed` within the staleness budget (never before half of it),
//!    stale validation refuses while closed, and the ladder recovers
//!    within one anti-entropy round of the heal — with the degraded SLO
//!    firing and clearing around the episode.
//! 3. **IdP outage** — already-minted tokens validate at 100% through
//!    the outage while every new login is refused `Unavailable`; the
//!    heal restores logins.
//! 4. **Intensity sweep** — availability, degraded-time fraction, and
//!    alert volume across fault-plan intensities, byte-for-byte
//!    reproducible from the seed.

use eus_bench::assert_or_dump;
use eus_chaos::{sister_realms, ChaosController, Fault, FaultPlan, PlanShape, HOME_REALM};
use eus_core::obs::ObsConfig;
use eus_core::{ClusterSpec, DepHealth, Dependency, SecureCluster, SeparationConfig};
use eus_fedauth::{shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId};
use eus_obs::AlertKind;
use eus_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;

/// A hardened federated cluster with one trusted sister realm, obs loud.
fn federated_cluster() -> (SecureCluster, eus_fedauth::SharedBroker) {
    let cfg = SeparationConfig::llsc().with_trusted_realms([2u32]);
    let mut c = SecureCluster::new(cfg, ClusterSpec::tiny());
    c.enable_obs(ObsConfig::enabled());
    let sister = shared_broker(CredentialBroker::new(
        RealmId(2),
        0xC405,
        BrokerPolicy::default(),
    ));
    c.register_sister_realm(RealmId(2), sister.clone());
    (c, sister)
}

/// Alerts (fire or clear) for one SLO name.
fn alert_kinds(c: &SecureCluster, slo: &str) -> Vec<AlertKind> {
    c.obs
        .slo
        .alerts()
        .for_slo(slo)
        .iter()
        .map(|a| a.kind)
        .collect()
}

/// Gate 2: sever the WAN feed; measure `(time_to_fail_closed_s,
/// time_to_recover_s)` from the sever and the heal respectively.
fn scenario_severed_feed(step_s: u64) -> (f64, f64) {
    let (mut c, sister) = federated_cluster();
    let alice = c.add_user("alice").expect("fresh db");
    let budget = c.config.revsync_max_lag;
    let sever_at = SimTime::from_secs(60);
    let heal_after = budget + SimDuration::from_secs(120);
    let plan = FaultPlan::new(0xFEED).inject(
        sever_at,
        Fault::LinkPartition {
            a: RealmId(2),
            b: HOME_REALM,
            heal_after,
        },
    );
    let mut ctrl = ChaosController::new(plan);
    ctrl.arm(&mut c);
    let token = c.login_at(&sister, alice).expect("login");

    let heal_at = sever_at + heal_after;
    let recover_deadline = heal_at + c.config.revsync_anti_entropy + SimDuration::from_secs(60);
    let mut t = SimTime::ZERO;
    let mut failed_closed_at: Option<SimTime> = None;
    let mut recovered_at: Option<SimTime> = None;
    while t < recover_deadline + SimDuration::from_secs(300) {
        t += SimDuration::from_secs(step_s);
        ctrl.advance_to(&mut c, t);
        let feed = c.dependency_health(Dependency::Feed);
        if failed_closed_at.is_none() && feed == DepHealth::FailClosed {
            failed_closed_at = Some(t);
            assert_or_dump!(
                matches!(
                    c.validate_federated_token(&token),
                    Err(CredError::StaleReplica { .. })
                ),
                format!("{:?}", c.validate_federated_token(&token)),
                "a fail-closed replica must refuse stale validation"
            );
        }
        if recovered_at.is_none() && t >= heal_at && feed == DepHealth::Healthy {
            recovered_at = Some(t);
        }
    }

    let failed_closed_at = failed_closed_at.expect("severed feed must reach fail-closed");
    let ttfc = failed_closed_at - sever_at;
    assert_or_dump!(
        ttfc > budget / 2,
        format!("{ttfc:?}"),
        "fail-closed before half the staleness budget was spent"
    );
    assert_or_dump!(
        ttfc <= budget + SimDuration::from_secs(2 * step_s) + c.config.revsync_feed_interval,
        format!("{ttfc:?} vs budget {budget:?}"),
        "fail-closed must land within the staleness budget"
    );
    let recovered_at = recovered_at.expect("healed feed must recover");
    assert_or_dump!(
        recovered_at <= recover_deadline,
        format!("recovered {recovered_at:?}, heal {heal_at:?}"),
        "recovery must land within one anti-entropy round of the heal"
    );
    assert_or_dump!(
        c.validate_federated_token(&token) == Ok(alice),
        format!("{:?}", c.validate_federated_token(&token)),
        "a recovered replica must serve again"
    );
    let kinds = alert_kinds(&c, "cluster.dependency.degraded");
    assert_or_dump!(
        kinds.contains(&AlertKind::Fire) && kinds.contains(&AlertKind::Clear),
        format!("{kinds:?}"),
        "the degraded SLO must fire during the episode and clear after it"
    );
    (ttfc.as_secs_f64(), (recovered_at - heal_at).as_secs_f64())
}

/// Gate 3: IdP outage. Returns `(validate_probes, rejected_logins)` taken
/// while the outage held — validation must never miss, logins never pass.
fn scenario_idp_outage(step_s: u64) -> (usize, usize) {
    let (mut c, _sister) = federated_cluster();
    let alice = c.add_user("alice").expect("fresh db");
    let broker = c.broker.clone().expect("llsc has a broker");
    let minted = c.login_at(&broker, alice).expect("pre-outage");
    let outage_at = SimTime::from_secs(60);
    let heal_after = SimDuration::from_secs(600);
    let plan = FaultPlan::new(0x1D9).inject(outage_at, Fault::IdpOutage { heal_after });
    let mut ctrl = ChaosController::new(plan);
    ctrl.arm(&mut c);

    let mut validated = 0usize;
    let mut rejected = 0usize;
    let mut t = SimTime::ZERO;
    while t < outage_at + heal_after + SimDuration::from_secs(120) {
        t += SimDuration::from_secs(step_s);
        ctrl.advance_to(&mut c, t);
        if t > outage_at && t < outage_at + heal_after {
            assert_or_dump!(
                broker.read().validate_token(&minted) == Ok(alice),
                format!("{:?}", broker.read().validate_token(&minted)),
                "minted tokens must keep validating through an IdP outage"
            );
            validated += 1;
            assert_or_dump!(
                c.login_at(&broker, alice) == Err(CredError::Unavailable),
                "new login passed during the outage".to_string(),
                "new logins must refuse Unavailable while the IdP is dark"
            );
            rejected += 1;
            assert_or_dump!(
                !matches!(c.dependency_health(Dependency::Idp), DepHealth::Healthy),
                format!("{:?}", c.dependency_health(Dependency::Idp)),
                "the IdP ladder must leave Healthy during the outage"
            );
        }
    }
    assert_or_dump!(
        c.login_at(&broker, alice).is_ok(),
        format!("{:?}", c.dependency_health(Dependency::Idp)),
        "logins must serve again after the heal"
    );
    assert_or_dump!(
        c.dependency_health(Dependency::Idp) == DepHealth::Healthy,
        format!("{:?}", c.dependency_health(Dependency::Idp)),
        "the IdP ladder must snap Healthy after the heal"
    );
    (validated, rejected)
}

/// One point of the gate-4 sweep.
struct SweepPoint {
    faults: usize,
    availability: f64,
    degraded_fraction: f64,
    alerts_fired: usize,
    applied: usize,
}

/// Drive a random plan of `faults` faults; probe availability every
/// `probe_s` (home login + fresh federated validate), and measure the
/// fraction of boundaries the cluster reports itself degraded.
fn sweep_point(seed: u64, faults: usize, horizon_s: u64, probe_s: u64) -> SweepPoint {
    let (mut c, sister) = federated_cluster();
    let alice = c.add_user("alice").expect("fresh db");
    let broker = c.broker.clone().expect("llsc has a broker");
    let plan = if faults == 0 {
        FaultPlan::new(seed)
    } else {
        let shape = PlanShape {
            realms: sister_realms(&c),
            nodes: c.compute_ids.clone(),
            faults,
            horizon: SimDuration::from_secs(horizon_s),
            max_heal: SimDuration::from_secs(horizon_s / 4),
        };
        FaultPlan::random(seed, &shape)
    };
    let mut ctrl = ChaosController::new(plan);
    ctrl.arm(&mut c);

    let mut ok = 0usize;
    let mut probes = 0usize;
    let mut degraded = 0usize;
    let mut boundaries = 0usize;
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(horizon_s) {
        t += SimDuration::from_secs(probe_s);
        ctrl.advance_to(&mut c, t);
        boundaries += 1;
        if c.degraded() {
            degraded += 1;
        }
        // Probe 1: a new home login (IdP/CA outages).
        probes += 1;
        if c.login_at(&broker, alice).is_ok() {
            ok += 1;
        }
        // Probe 2: a fresh sister credential validated at the home
        // replica (feed staleness fails closed).
        probes += 1;
        if let Ok(tok) = c.login_at(&sister, alice) {
            if c.validate_federated_token(&tok).is_ok() {
                ok += 1;
            }
        }
    }
    SweepPoint {
        faults,
        availability: ok as f64 / probes as f64,
        degraded_fraction: degraded as f64 / boundaries as f64,
        alerts_fired: c.obs.slo.alerts().fired(),
        applied: ctrl.applied.len(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (step_s, horizon_s, probe_s, intensities): (u64, u64, u64, &[usize]) = if smoke {
        (20, 1800, 60, &[0, 3])
    } else {
        (10, 3600, 30, &[0, 2, 5, 10])
    };
    println!(
        "exp_chaos: fault injection + degradation ({} mode)\n",
        if smoke { "smoke" } else { "full" }
    );

    // Gate 2: severed feed (run first — it is the headline number).
    let (ttfc_s, recover_s) = scenario_severed_feed(step_s);
    println!(
        "severed feed: fail-closed {ttfc_s:.0} s after sever (budget {:.0} s), \
         recovered {recover_s:.0} s after heal (anti-entropy {:.0} s)",
        SeparationConfig::llsc().revsync_max_lag.as_secs_f64(),
        SeparationConfig::llsc().revsync_anti_entropy.as_secs_f64(),
    );

    // Gate 3: IdP outage.
    let (validated, rejected) = scenario_idp_outage(step_s);
    println!(
        "idp outage: {validated}/{validated} minted-token validations served, \
         {rejected}/{rejected} new logins refused Unavailable\n"
    );

    // Gates 1 + 4: the intensity sweep (intensity 0 is the baseline).
    let mut points = Vec::new();
    for &faults in intensities {
        let p = sweep_point(0xC4A0, faults, horizon_s, probe_s);
        println!(
            "intensity {:>2}: availability {:.3}, degraded {:.3} of boundaries, \
             {} alerts, {} faults applied",
            p.faults, p.availability, p.degraded_fraction, p.alerts_fired, p.applied
        );
        points.push(p);
    }
    let baseline = &points[0];
    assert_or_dump!(
        baseline.availability == 1.0,
        format!("{}", baseline.availability),
        "the fault-free baseline must probe at 100% availability"
    );
    assert_or_dump!(
        baseline.alerts_fired == 0 && baseline.degraded_fraction == 0.0,
        format!(
            "{} alerts, degraded {}",
            baseline.alerts_fired, baseline.degraded_fraction
        ),
        "the fault-free baseline must raise zero alerts"
    );
    // Same-seed determinism: the sweep's heaviest point replays exactly.
    let heaviest = *intensities.last().expect("non-empty sweep");
    let a = sweep_point(0xC4A0, heaviest, horizon_s, probe_s);
    let b = &points[points.len() - 1];
    assert_or_dump!(
        a.availability == b.availability
            && a.degraded_fraction == b.degraded_fraction
            && a.alerts_fired == b.alerts_fired
            && a.applied == b.applied,
        format!(
            "({}, {}, {}, {}) vs ({}, {}, {}, {})",
            a.availability,
            a.degraded_fraction,
            a.alerts_fired,
            a.applied,
            b.availability,
            b.degraded_fraction,
            b.alerts_fired,
            b.applied
        ),
        "same seed must reproduce the identical sweep point"
    );
    println!("\nreplay check: intensity {heaviest} reproduced bit-identically");

    // Artifact.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"chaos\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"severed_feed\": {{ \"time_to_fail_closed_s\": {ttfc_s:.0}, \
         \"budget_s\": {:.0}, \"time_to_recover_s\": {recover_s:.0}, \
         \"anti_entropy_s\": {:.0} }},",
        SeparationConfig::llsc().revsync_max_lag.as_secs_f64(),
        SeparationConfig::llsc().revsync_anti_entropy.as_secs_f64(),
    );
    let _ = writeln!(
        json,
        "  \"idp_outage\": {{ \"minted_validations_served\": {validated}, \
         \"new_logins_rejected\": {rejected} }},",
    );
    json.push_str("  \"intensity_sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"faults\": {}, \"availability\": {:.4}, \
             \"degraded_fraction\": {:.4}, \"alerts_fired\": {}, \"applied\": {} }}{}",
            p.faults,
            p.availability,
            p.degraded_fraction,
            p.alerts_fired,
            p.applied,
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    let out = if smoke {
        "BENCH_chaos.smoke.json"
    } else {
        "BENCH_chaos.json"
    };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
