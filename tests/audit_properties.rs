//! Property-based test of the whole system: for *any* combination of
//! mechanism toggles, the audit must open exactly the channels whose
//! governing mechanism is disabled (plus the always-open residuals).
//!
//! This is the strongest statement of the paper's architecture: the
//! mechanisms are independent, each closes a specific set of channels, and
//! together they close everything closable.

use hpc_user_separation::audit::{run_audit, Channel};
use hpc_user_separation::sched::NodeSharing;
use hpc_user_separation::{ClusterSpec, SeparationConfig};
use proptest::prelude::*;

/// Which channels a configuration is expected to leave open.
fn expected_open(cfg: &SeparationConfig) -> Vec<Channel> {
    let mut open = vec![
        // Residuals leak under every configuration.
        Channel::FsTmpFilename,
        Channel::AbstractSocket,
        Channel::RdmaNativeCm,
    ];
    if !cfg.hidepid {
        open.push(Channel::ProcList);
        open.push(Channel::ProcCmdline);
    }
    if !cfg.private_data {
        open.push(Channel::SchedQueue);
        open.push(Channel::SchedAccounting);
    }
    if !cfg.pam_slurm {
        open.push(Channel::SshForeignNode);
    }
    if cfg.node_policy == NodeSharing::Shared {
        open.push(Channel::NodeCohabitation);
    }
    if !cfg.fsperm {
        open.push(Channel::FsWorldBit);
        open.push(Channel::FsAclGrant);
        open.push(Channel::FsHomeAccess);
    }
    if !cfg.ubf {
        open.push(Channel::NetTcp);
        open.push(Channel::NetUdp);
        open.push(Channel::RdmaTcpSetup);
    }
    if !cfg.portal_authz {
        open.push(Channel::PortalCrossUser);
    }
    if !cfg.federated_auth {
        open.push(Channel::AuthTokenReplay);
        open.push(Channel::SshExpiredCert);
        open.push(Channel::CrossRealmSpoof);
    }
    if !cfg.gpu_dev_perms {
        open.push(Channel::GpuDevAccess);
    }
    if !cfg.gpu_scrub {
        open.push(Channel::GpuRemanence);
    }
    open.sort();
    open
}

fn arb_config() -> impl Strategy<Value = SeparationConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(NodeSharing::Shared),
            Just(NodeSharing::Exclusive),
            Just(NodeSharing::WholeNodeUser),
        ],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                hidepid,
                private_data,
                node_policy,
                pam_slurm,
                fsperm,
                ubf,
                portal,
                gperm,
                gscrub,
                fedauth,
            )| {
                SeparationConfig {
                    hidepid,
                    private_data,
                    node_policy,
                    pam_slurm,
                    fsperm,
                    ubf,
                    portal_authz: portal,
                    gpu_dev_perms: gperm,
                    gpu_scrub: gscrub,
                    federated_auth: fedauth,
                    trusted_realms: Vec::new(),
                    ..SeparationConfig::baseline()
                }
            },
        )
}

proptest! {
    // Each case audits 18 fresh clusters; keep the case count modest.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn audit_open_set_is_exactly_the_disabled_mechanisms(cfg in arb_config()) {
        let report = run_audit(&cfg, &ClusterSpec::tiny());
        let mut open = report.open_channels();
        open.sort();
        prop_assert_eq!(
            open,
            expected_open(&cfg),
            "config {:?}\n{}",
            cfg,
            report
        );
    }
}

#[test]
fn extremes_check_without_proptest_overhead() {
    // Belt and braces at the two corners.
    let base = run_audit(&SeparationConfig::baseline(), &ClusterSpec::tiny());
    let mut open = base.open_channels();
    open.sort();
    assert_eq!(open, expected_open(&SeparationConfig::baseline()));
    assert_eq!(
        open.len(),
        Channel::all().len(),
        "baseline opens everything"
    );

    let full = run_audit(&SeparationConfig::llsc(), &ClusterSpec::tiny());
    let mut open = full.open_channels();
    open.sort();
    assert_eq!(open, expected_open(&SeparationConfig::llsc()));
    assert_eq!(open.len(), 3, "full config leaves only the residuals");
}
