//! Audit reports: the rendered outcome of a full channel sweep.

use super::channels::{Channel, Outcome};
use std::fmt;

/// One audited channel.
#[derive(Debug, Clone)]
pub struct ChannelRow {
    /// The channel.
    pub channel: Channel,
    /// What the probe found.
    pub outcome: Outcome,
}

/// A full audit of one configuration.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Configuration label.
    pub label: String,
    /// Rows in [`Channel::all`] order.
    pub rows: Vec<ChannelRow>,
}

impl AuditReport {
    /// Channels that leaked.
    // analyze:allow(dead-pub): the audit verdict as data: the channels a configuration leaves open
    pub fn open_channels(&self) -> Vec<Channel> {
        self.rows
            .iter()
            .filter(|r| r.outcome.is_leak())
            .map(|r| r.channel)
            .collect()
    }

    /// Number of leaked channels.
    pub fn open_count(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.is_leak()).count()
    }

    /// Number of blocked channels.
    pub fn closed_count(&self) -> usize {
        self.rows.len() - self.open_count()
    }

    /// Leaks on channels some mechanism closes (not Sec. V residuals) — for
    /// the full configuration this must be empty (the Sec. V claim).
    pub fn unexpected_leaks(&self) -> Vec<Channel> {
        self.rows
            .iter()
            .filter(|r| r.outcome.is_leak() && r.channel.closed_by().is_some())
            .map(|r| r.channel)
            .collect()
    }

    /// True when every leak is an expected residual.
    pub fn only_expected_residuals(&self) -> bool {
        self.unexpected_leaks().is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "separation audit [{}]: {} open / {} closed",
            self.label,
            self.open_count(),
            self.closed_count()
        )?;
        writeln!(
            f,
            "  {:<18} {:<5} {:<8} detail",
            "channel", "sect", "status"
        )?;
        for r in &self.rows {
            let status = if r.outcome.is_leak() {
                if r.channel.closed_by().is_none() {
                    "RESID"
                } else {
                    "OPEN"
                }
            } else {
                "closed"
            };
            let detail = match &r.outcome {
                Outcome::Leaked(s) | Outcome::Blocked(s) => s,
            };
            writeln!(
                f,
                "  {:<18} {:<5} {:<8} {}",
                r.channel.to_string(),
                r.channel.section(),
                status,
                detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AuditReport {
        AuditReport {
            label: "test".into(),
            rows: vec![
                ChannelRow {
                    channel: Channel::ProcList,
                    outcome: Outcome::Blocked("hidden".into()),
                },
                ChannelRow {
                    channel: Channel::FsTmpFilename,
                    outcome: Outcome::Leaked("names".into()),
                },
                ChannelRow {
                    channel: Channel::NetTcp,
                    outcome: Outcome::Leaked("connected".into()),
                },
            ],
        }
    }

    #[test]
    fn counting_and_classification() {
        let r = report();
        assert_eq!(r.open_count(), 2);
        assert_eq!(r.closed_count(), 1);
        assert_eq!(r.unexpected_leaks(), vec![Channel::NetTcp]);
        assert!(!r.only_expected_residuals());
        assert_eq!(
            r.open_channels(),
            vec![Channel::FsTmpFilename, Channel::NetTcp]
        );
    }

    #[test]
    fn display_marks_residuals() {
        let s = report().to_string();
        assert!(s.contains("RESID"));
        assert!(s.contains("OPEN"));
        assert!(s.contains("closed"));
        assert!(s.contains("2 open / 1 closed"));
    }
}
