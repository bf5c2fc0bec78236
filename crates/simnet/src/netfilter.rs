//! A netfilter-style packet filter: ordered rules, first match wins, with
//! `NFQUEUE` verdicts that hand the decision to a userspace daemon — the
//! mechanism the User-Based Firewall builds on (paper Sec. IV-D).

use crate::addr::{FiveTuple, Port, Proto};
use std::fmt;

/// Conntrack state of the packet being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// First packet of a flow.
    New,
    /// Part of an existing flow (conntrack hit).
    Established,
}

/// What a chain decides about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Let it through.
    Accept,
    /// Silently discard.
    Drop,
    /// Punt to the userspace handler registered on this queue number.
    Queue(u16),
}

/// The packet attributes rules can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Flow identity.
    pub tuple: FiveTuple,
    /// Conntrack state.
    pub state: ConnState,
    /// Payload size, for transfer-cost accounting.
    pub payload_len: usize,
}

/// Match conditions; `None` means "any".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleMatch {
    /// Protocol to match.
    pub proto: Option<Proto>,
    /// Inclusive destination-port range.
    pub dport: Option<(Port, Port)>,
    /// Conntrack state to match.
    pub state: Option<ConnState>,
}

impl RuleMatch {
    /// Matches everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Does this rule match the packet?
    pub fn matches(&self, pkt: &PacketMeta) -> bool {
        if let Some(p) = self.proto {
            if pkt.tuple.proto != p {
                return false;
            }
        }
        if let Some((lo, hi)) = self.dport {
            let d = pkt.tuple.dst.port;
            if d < lo || d > hi {
                return false;
            }
        }
        if let Some(s) = self.state {
            if pkt.state != s {
                return false;
            }
        }
        true
    }
}

/// One rule: conditions plus verdict.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Match conditions.
    pub matcher: RuleMatch,
    /// Verdict when matched.
    pub verdict: Verdict,
    /// Human-readable comment (what `iptables -m comment` would carry).
    pub comment: &'static str,
}

/// An ordered rule chain with a default policy.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Rules, evaluated top to bottom.
    pub rules: Vec<Rule>,
    /// Verdict when no rule matches.
    pub policy: Verdict,
}

impl Default for Chain {
    fn default() -> Self {
        Chain {
            rules: Vec::new(),
            policy: Verdict::Accept,
        }
    }
}

impl Chain {
    /// Append a rule.
    pub fn push(&mut self, matcher: RuleMatch, verdict: Verdict, comment: &'static str) {
        self.rules.push(Rule {
            matcher,
            verdict,
            comment,
        });
    }

    /// First-match evaluation.
    pub fn evaluate(&self, pkt: &PacketMeta) -> Verdict {
        for r in &self.rules {
            if r.matcher.matches(pkt) {
                return r.verdict;
            }
        }
        self.policy
    }
}

/// A host's firewall: input and output chains (the two the UBF uses).
#[derive(Debug, Clone, Default)]
pub struct Firewall {
    /// Applied to packets arriving at this host.
    pub input: Chain,
    /// Applied to packets leaving this host.
    pub output: Chain,
}

impl Firewall {
    /// Accept-everything firewall (vanilla node).
    pub fn open() -> Self {
        Self::default()
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "{i}: {:?} -> {:?} # {}", r.matcher, r.verdict, r.comment)?;
        }
        write!(f, "policy {:?}", self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SocketAddr;
    use eus_simos::NodeId;

    fn pkt(proto: Proto, dport: Port, state: ConnState) -> PacketMeta {
        PacketMeta {
            tuple: FiveTuple {
                proto,
                src: SocketAddr::new(NodeId(1), 40000),
                dst: SocketAddr::new(NodeId(2), dport),
            },
            state,
            payload_len: 0,
        }
    }

    #[test]
    fn first_match_wins() {
        let mut c = Chain::default();
        c.push(
            RuleMatch {
                state: Some(ConnState::Established),
                ..RuleMatch::any()
            },
            Verdict::Accept,
            "established passthrough",
        );
        c.push(
            RuleMatch {
                proto: Some(Proto::Tcp),
                dport: Some((1024, 65535)),
                state: Some(ConnState::New),
            },
            Verdict::Queue(0),
            "ubf inspection",
        );
        assert_eq!(
            c.evaluate(&pkt(Proto::Tcp, 8888, ConnState::Established)),
            Verdict::Accept
        );
        assert_eq!(
            c.evaluate(&pkt(Proto::Tcp, 8888, ConnState::New)),
            Verdict::Queue(0)
        );
        // Below the inspected range: falls to policy.
        assert_eq!(
            c.evaluate(&pkt(Proto::Tcp, 22, ConnState::New)),
            Verdict::Accept
        );
    }

    #[test]
    fn match_dimensions() {
        let m = RuleMatch {
            proto: Some(Proto::Udp),
            dport: Some((5000, 6000)),
            state: None,
        };
        assert!(m.matches(&pkt(Proto::Udp, 5500, ConnState::New)));
        assert!(!m.matches(&pkt(Proto::Tcp, 5500, ConnState::New)));
        assert!(!m.matches(&pkt(Proto::Udp, 4999, ConnState::New)));
        assert!(m.matches(&pkt(Proto::Udp, 6000, ConnState::Established)));
        assert!(RuleMatch::any().matches(&pkt(Proto::Tcp, 1, ConnState::New)));
    }

    #[test]
    fn default_policy_applies() {
        let mut c = Chain {
            rules: vec![],
            policy: Verdict::Drop,
        };
        assert_eq!(
            c.evaluate(&pkt(Proto::Tcp, 80, ConnState::New)),
            Verdict::Drop
        );
        c.push(RuleMatch::any(), Verdict::Accept, "allow all");
        assert_eq!(
            c.evaluate(&pkt(Proto::Tcp, 80, ConnState::New)),
            Verdict::Accept
        );
    }

    #[test]
    fn display_renders_rules() {
        let mut c = Chain::default();
        c.push(RuleMatch::any(), Verdict::Drop, "deny everything");
        let s = c.to_string();
        assert!(s.contains("deny everything"));
        assert!(s.contains("policy Accept"));
    }
}
