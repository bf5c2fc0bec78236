//! The separation configuration: one toggle per mechanism the paper deploys.
//!
//! [`SeparationConfig::baseline`] is a stock Linux + Slurm cluster (every
//! control off, shared nodes); [`SeparationConfig::llsc`] is the paper's full
//! deployment. Each [`Mechanism`] is one toggle, and `llsc().without(m)` is
//! its single-mechanism ablation: the sweep in
//! `separation_integration::every_single_ablation_reopens_something` shows
//! which cross-user channels each control closes — the paper's defense-in-depth
//! argument (e.g. whole-node scheduling does *not* make `hidepid` redundant,
//! Sec. IV-B).

use eus_sched::{NodeSharing, PrivateData};
use std::fmt;

/// One separation mechanism the paper (or a companion paper) deploys: the
/// unit of the ablation sweep. Each audit channel names the one mechanism
/// that closes it (`Channel::closed_by`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mechanism {
    /// `hidepid=2` on `/proc` (Sec. IV-A).
    HidePid,
    /// Slurm `PrivateData` (Sec. IV-B).
    PrivateData,
    /// Whole-node scheduling: no two users on one compute node (Sec. IV-B).
    WholeNode,
    /// `pam_slurm` (Sec. IV-B).
    PamSlurm,
    /// The File Permission Handler (Sec. IV-C).
    Fsperm,
    /// The User-Based Firewall (Sec. IV-D).
    Ubf,
    /// Portal authorization and identity forwarding (Sec. IV-E).
    PortalAuthz,
    /// Scheduler-managed GPU `/dev` permissions (Sec. IV-F).
    GpuDevPerms,
    /// The epilog GPU-memory scrub (Sec. IV-F).
    GpuScrub,
    /// The federated credential plane (companion paper).
    FedAuth,
}

impl Mechanism {
    /// Every mechanism, in label order.
    pub fn all() -> &'static [Mechanism] {
        use Mechanism::*;
        &[
            HidePid,
            PrivateData,
            WholeNode,
            PamSlurm,
            Fsperm,
            Ubf,
            PortalAuthz,
            GpuDevPerms,
            GpuScrub,
            FedAuth,
        ]
    }

    /// The ablation's row label in experiment tables (`-hidepid`, …).
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::HidePid => "-hidepid",
            Mechanism::PrivateData => "-privdata",
            Mechanism::WholeNode => "-wholenode",
            Mechanism::PamSlurm => "-pam_slurm",
            Mechanism::Fsperm => "-fsperm",
            Mechanism::Ubf => "-ubf",
            Mechanism::PortalAuthz => "-portal",
            Mechanism::GpuDevPerms => "-gpuperm",
            Mechanism::GpuScrub => "-gpuscrub",
            Mechanism::FedAuth => "-fedauth",
        }
    }
}

/// Which mechanisms are deployed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparationConfig {
    /// `hidepid=2` on `/proc` plus the `seepid` exemption group (Sec. IV-A).
    pub hidepid: bool,
    /// Slurm `PrivateData` for jobs and usage (Sec. IV-B).
    pub private_data: bool,
    /// Node-sharing policy (Sec. IV-B).
    pub node_policy: NodeSharing,
    /// `pam_slurm`: ssh only where your job runs (Sec. IV-B).
    pub pam_slurm: bool,
    /// File Permission Handler: smask kernel patches + the smask every
    /// login session opens with + ACL restrictions (Sec. IV-C).
    pub fsperm: bool,
    /// User-Based Firewall rules + daemons on every node (Sec. IV-D).
    pub ubf: bool,
    /// Portal authorizes routes and forwards with the user's identity
    /// (Sec. IV-E); off = naive authenticated reverse proxy.
    pub portal_authz: bool,
    /// Scheduler-managed `/dev` permissions for accelerators (Sec. IV-F);
    /// off = world-accessible device nodes (the udev default).
    pub gpu_dev_perms: bool,
    /// Vendor GPU-memory scrub in the epilog (Sec. IV-F).
    pub gpu_scrub: bool,
    /// Federated identity & credential lifecycle: short-lived broker-issued
    /// tokens and SSH certificates replace raw-uid trust and long-lived keys
    /// (companion paper *Securing HPC using Federated Authentication*,
    /// Prout et al. 2019); off = sequential portal tokens, `authorized_keys`
    /// forever, no revocation plane.
    pub federated_auth: bool,
    /// Sister realms whose credentials the home site's trust policy
    /// allow-lists (realm ids; empty = PR-1's home-realm-only behavior).
    /// Non-listed realms fail closed. Ignored when `federated_auth` is off.
    pub trusted_realms: Vec<u32>,
    /// Scheduler policy plane: multi-partition fair-share head selection
    /// over the decayed usage ledger. Off in both presets (a scheduling
    /// *policy* choice, not a separation mechanism — it never appears in
    /// the ablation sweep); with it off the engine is observationally
    /// identical to the reference scheduler.
    pub sched_fair_share: bool,
    /// Scheduler policy plane: QoS preemption — latency-sensitive jobs may
    /// kill-and-requeue strictly-lower-class bulk work. The victim leaves
    /// through the full separation epilog (process cleanup, GPU scrub)
    /// before the preemptor's prolog, so every separation guarantee
    /// survives urgency. Off in both presets.
    pub sched_preemption: bool,
    /// Scheduler policy plane: conservative-backfill reservation depth
    /// (top-K queued jobs get planned starts; backfill may not collide
    /// with any of them). 0 = plain EASY. Off in both presets.
    pub sched_reservations: u32,
}

impl SeparationConfig {
    /// Stock Linux + Slurm: everything off, shared nodes.
    pub fn baseline() -> Self {
        SeparationConfig {
            hidepid: false,
            private_data: false,
            node_policy: NodeSharing::Shared,
            pam_slurm: false,
            fsperm: false,
            ubf: false,
            portal_authz: false,
            gpu_dev_perms: false,
            gpu_scrub: false,
            federated_auth: false,
            trusted_realms: Vec::new(),
            sched_fair_share: false,
            sched_preemption: false,
            sched_reservations: 0,
        }
    }

    /// The paper's full deployment.
    pub fn llsc() -> Self {
        SeparationConfig {
            hidepid: true,
            private_data: true,
            node_policy: NodeSharing::WholeNodeUser,
            pam_slurm: true,
            fsperm: true,
            ubf: true,
            portal_authz: true,
            gpu_dev_perms: true,
            gpu_scrub: true,
            federated_auth: true,
            trusted_realms: Vec::new(),
            sched_fair_share: false,
            sched_preemption: false,
            sched_reservations: 0,
        }
    }

    /// Builder: enable multi-partition fair-share scheduling.
    pub fn with_fair_share(mut self) -> Self {
        self.sched_fair_share = true;
        self
    }

    /// Builder: enable QoS preemption.
    pub fn with_preemption(mut self) -> Self {
        self.sched_preemption = true;
        self
    }

    /// Builder: hold conservative-backfill reservations for the top-`k`
    /// queued jobs.
    pub fn with_reservations(mut self, k: u32) -> Self {
        self.sched_reservations = k;
        self
    }

    /// Builder: allow-list sister realms at the home site.
    pub fn with_trusted_realms(mut self, realms: impl Into<Vec<u32>>) -> Self {
        self.trusted_realms = realms.into();
        self
    }

    /// The Slurm `PrivateData` flags implied by this config.
    pub fn private_data_flags(&self) -> PrivateData {
        if self.private_data {
            PrivateData::llsc()
        } else {
            PrivateData::open()
        }
    }

    /// Is `m` deployed? Whole-node counts any node policy but `Shared`.
    pub fn has(&self, m: Mechanism) -> bool {
        match m {
            Mechanism::HidePid => self.hidepid,
            Mechanism::PrivateData => self.private_data,
            Mechanism::WholeNode => self.node_policy != NodeSharing::Shared,
            Mechanism::PamSlurm => self.pam_slurm,
            Mechanism::Fsperm => self.fsperm,
            Mechanism::Ubf => self.ubf,
            Mechanism::PortalAuthz => self.portal_authz,
            Mechanism::GpuDevPerms => self.gpu_dev_perms,
            Mechanism::GpuScrub => self.gpu_scrub,
            Mechanism::FedAuth => self.federated_auth,
        }
    }

    /// This configuration with `m` turned off — the single-mechanism
    /// ablation `llsc().without(m)`. Whole-node off means shared nodes.
    // analyze:allow(dead-pub): a site's configuration minus one mechanism, the paper's ablation (Sec. V)
    pub fn without(mut self, m: Mechanism) -> Self {
        match m {
            Mechanism::HidePid => self.hidepid = false,
            Mechanism::PrivateData => self.private_data = false,
            Mechanism::WholeNode => self.node_policy = NodeSharing::Shared,
            Mechanism::PamSlurm => self.pam_slurm = false,
            Mechanism::Fsperm => self.fsperm = false,
            Mechanism::Ubf => self.ubf = false,
            Mechanism::PortalAuthz => self.portal_authz = false,
            Mechanism::GpuDevPerms => self.gpu_dev_perms = false,
            Mechanism::GpuScrub => self.gpu_scrub = false,
            Mechanism::FedAuth => self.federated_auth = false,
        }
        self
    }

    /// A short label for experiment tables.
    pub fn label(&self) -> String {
        if *self == Self::llsc() {
            return "llsc".to_string();
        }
        if *self == Self::baseline() {
            return "baseline".to_string();
        }
        let mut on: Vec<String> = Vec::new();
        for &m in Mechanism::all().iter().filter(|&&m| self.has(m)) {
            on.push(match (m, self.node_policy) {
                (Mechanism::WholeNode, NodeSharing::Exclusive) => "exclusive".into(),
                (Mechanism::WholeNode, _) => "whole-node".into(),
                _ => m.label().trim_start_matches('-').into(),
            });
        }
        if self.federated_auth && !self.trusted_realms.is_empty() {
            let realms: Vec<String> = self.trusted_realms.iter().map(u32::to_string).collect();
            on.push(format!("trust[{}]", realms.join(",")));
        }
        if self.sched_fair_share {
            on.push("fairshare".into());
        }
        if self.sched_preemption {
            on.push("preempt".into());
        }
        if self.sched_reservations > 0 {
            on.push(format!("resv{}", self.sched_reservations));
        }
        if on.is_empty() {
            "baseline".to_string()
        } else {
            format!("custom[{}]", on.join("+"))
        }
    }
}

impl Default for SeparationConfig {
    fn default() -> Self {
        Self::llsc()
    }
}

impl fmt::Display for SeparationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_labels() {
        assert_eq!(SeparationConfig::baseline().label(), "baseline");
        assert_eq!(SeparationConfig::llsc().label(), "llsc");
        let mut c = SeparationConfig::baseline();
        c.ubf = true;
        assert_eq!(c.label(), "custom[ubf]");
    }

    #[test]
    fn private_data_mapping() {
        assert!(SeparationConfig::llsc().private_data_flags().jobs);
        assert!(!SeparationConfig::baseline().private_data_flags().jobs);
    }

    #[test]
    fn each_ablation_drops_exactly_its_mechanism() {
        for &m in Mechanism::all() {
            let ablated = SeparationConfig::llsc().without(m);
            for &other in Mechanism::all() {
                assert_eq!(ablated.has(other), other != m, "{} vs {other:?}", m.label());
            }
        }
        let baseline = SeparationConfig::baseline();
        assert!(Mechanism::all().iter().all(|&m| !baseline.has(m)));
    }

    #[test]
    fn mechanism_and_config_labels_are_pinned() {
        let labels: Vec<&str> = Mechanism::all().iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            [
                "-hidepid",
                "-privdata",
                "-wholenode",
                "-pam_slurm",
                "-fsperm",
                "-ubf",
                "-portal",
                "-gpuperm",
                "-gpuscrub",
                "-fedauth"
            ]
        );
        assert_eq!(
            SeparationConfig::llsc().without(Mechanism::HidePid).label(),
            "custom[privdata+whole-node+pam_slurm+fsperm+ubf+portal+gpuperm+gpuscrub+fedauth]"
        );
        let mut exclusive = SeparationConfig::baseline();
        exclusive.node_policy = NodeSharing::Exclusive;
        assert_eq!(exclusive.label(), "custom[exclusive]");
    }

    #[test]
    fn federation_knobs_render_in_custom_labels() {
        let c = SeparationConfig::llsc().with_trusted_realms([2u32, 3]);
        let label = c.label();
        assert!(label.contains("trust[2,3]"), "{label}");
        // Presets keep their short names.
        assert_eq!(SeparationConfig::llsc().label(), "llsc");
    }

    #[test]
    fn policy_plane_knobs_render_and_are_not_mechanisms() {
        let c = SeparationConfig::llsc()
            .with_fair_share()
            .with_preemption()
            .with_reservations(8);
        let label = c.label();
        assert!(label.contains("fairshare"), "{label}");
        assert!(label.contains("preempt"), "{label}");
        assert!(label.contains("resv8"), "{label}");
        // The plane is policy, not a separation mechanism: presets keep it
        // off and the ablation sweep never toggles it.
        assert!(!SeparationConfig::llsc().sched_fair_share);
        assert!(!SeparationConfig::baseline().sched_preemption);
        let kept = |m| {
            c.clone()
                .without(m)
                .label()
                .ends_with("+fairshare+preempt+resv8]")
        };
        assert!(Mechanism::all().iter().all(|&m| kept(m)));
    }

    #[test]
    fn default_is_llsc() {
        assert_eq!(SeparationConfig::default(), SeparationConfig::llsc());
    }
}
