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

    /// CSV rendering: `channel,section,status,detail` — the machine-readable
    /// face of the audit for EXPERIMENTS.md regeneration.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("channel,section,status,detail\n");
        for r in &self.rows {
            let status = if r.outcome.is_leak() {
                if r.channel.closed_by().is_none() {
                    "residual"
                } else {
                    "open"
                }
            } else {
                "closed"
            };
            let detail = match &r.outcome {
                Outcome::Leaked(s) | Outcome::Blocked(s) => s.replace(',', ";"),
            };
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.channel,
                r.channel.section(),
                status,
                detail
            ));
        }
        out
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
    fn csv_rendering() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "channel,section,status,detail");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("ProcList,IV-A,closed,"));
        assert!(lines[2].contains(",residual,"));
        assert!(lines[3].contains(",open,"));
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
