//! The separation audit: enumerate every cross-user channel against a
//! configuration and report which are open. `tests/separation_integration.rs`
//! reproduces the Sec. V claims with it: the full configuration closes
//! everything except three named residual paths, and "for users, it looks
//! like they're the only one on the HPC system".

pub mod channels;
pub mod report;

pub use channels::{probe, Channel, Outcome};
pub use report::{AuditReport, ChannelRow};

use crate::cluster::{ClusterSpec, SecureCluster};
use crate::config::SeparationConfig;

/// The channels the paper expects to remain open even under the full
/// configuration (Sec. V): those no mechanism closes — filenames in
/// world-writable directories, abstract namespace Unix domain sockets, and
/// direct IB verbs via the native connection manager.
pub fn expected_residuals() -> Vec<Channel> {
    Channel::all()
        .iter()
        .copied()
        .filter(|ch| ch.closed_by().is_none())
        .collect()
}

/// Audit one configuration. Each channel probes a fresh two-user cluster so
/// probes cannot contaminate each other.
pub fn run_audit(config: &SeparationConfig, spec: &ClusterSpec) -> AuditReport {
    let rows: Vec<ChannelRow> = Channel::all()
        .iter()
        .map(|&ch| {
            let mut cluster = SecureCluster::new(config.clone(), spec.clone());
            let attacker = cluster.add_user("attacker").expect("fresh db");
            let victim = cluster.add_user("victim").expect("fresh db");
            let outcome = probe(ch, &mut cluster, attacker, victim);
            ChannelRow {
                channel: ch,
                outcome,
            }
        })
        .collect();
    AuditReport {
        label: config.label(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_leaks_broadly() {
        let report = run_audit(&SeparationConfig::baseline(), &ClusterSpec::tiny());
        // Default Linux + Slurm leaks on most channels.
        assert!(
            report.open_count() >= 12,
            "baseline should be wide open:\n{report}"
        );
        // Sanity: specific canonical leaks.
        let open = report.open_channels();
        assert!(open.contains(&Channel::ProcList));
        assert!(open.contains(&Channel::NetTcp));
        assert!(open.contains(&Channel::FsWorldBit));
        assert!(open.contains(&Channel::GpuRemanence));
    }

    #[test]
    fn llsc_closes_everything_but_the_residuals() {
        let report = run_audit(&SeparationConfig::llsc(), &ClusterSpec::tiny());
        assert!(
            report.only_expected_residuals(),
            "unexpected leaks: {:?}\n{report}",
            report.unexpected_leaks()
        );
        // The three residual paths stay open, exactly as Sec. V says.
        let open = report.open_channels();
        assert_eq!(open.len(), 3, "{report}");
        for r in expected_residuals() {
            assert!(open.contains(&r), "missing residual {r}");
        }
    }
}
