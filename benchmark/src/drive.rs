//! The single client: every call a workload makes into `SecureCluster`
//! goes through a [`Driver`] method, which (a) wraps it in a harness span
//! when tracing, and (b) checks its outcome against what the workload says
//! must happen — the oracle. Only public methods and public fields of
//! `SecureCluster` are used.

use crate::trace::Tracer;
use bytes::Bytes;
use eus_core::fedauth::SignedToken;
use eus_core::portal::Token;
use eus_core::sched::{JobId, JobSpec};
use eus_core::simcore::{SimDuration, SimTime};
use eus_core::simnet::{ConnId, Port, Proto, SocketAddr};
use eus_core::simos::{Mode, NodeId, SessionId, Uid};
use eus_core::SecureCluster;

/// Outcome bookkeeping: every checked operation is *attempted*; one whose
/// outcome differs from the expectation is *failed* (a legitimate op
/// refused, a cross-user op allowed under llsc, a job lost, ...).
#[derive(Debug, Default)]
pub struct Oracle {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose outcome differed from the expectation.
    pub failed: u64,
    /// The first few mismatches, for the report.
    pub examples: Vec<String>,
}

impl Oracle {
    /// Record one checked outcome.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(what());
            }
        }
    }
}

/// The closed-loop client driving one cluster.
pub struct Driver {
    /// The system under test.
    pub c: SecureCluster,
    /// Harness spans (off for the end-to-end run).
    pub tr: Tracer,
    /// Outcome checks.
    pub oracle: Oracle,
    /// Whether cross-user operations must be refused (true under `llsc()`,
    /// false under `baseline()` — the oracle is checked both ways).
    pub separated: bool,
    /// Filesystem calls made / refused (for `fsperm.deny_ratio`).
    pub fs_calls: u64,
    /// See [`fs_calls`](Self::fs_calls).
    pub fs_denied: u64,
    /// Sum and count of modeled connection set-up latency (simulated µs).
    pub setup_us_sum: u64,
    /// See [`setup_us_sum`](Self::setup_us_sum).
    pub setup_count: u64,
}

impl Driver {
    /// Wrap a provisioned cluster. `separated` is the expectation for
    /// cross-user operations.
    pub fn new(c: SecureCluster, tr: Tracer, separated: bool) -> Self {
        Driver {
            c,
            tr,
            oracle: Oracle::default(),
            separated,
            fs_calls: 0,
            fs_denied: 0,
            setup_us_sum: 0,
            setup_count: 0,
        }
    }

    // -- login ---------------------------------------------------------

    /// Portal login; must succeed.
    pub fn portal_login(&mut self, user: Uid) -> Option<Token> {
        let t = self.tr.begin("portal.login");
        let r = self.c.portal_login(user);
        self.tr.end(t);
        self.oracle
            .check(r.is_ok(), || format!("portal_login({user}) refused: {r:?}"));
        r.ok()
    }

    /// End a portal session.
    pub fn portal_logout(&mut self, token: Token) {
        let t = self.tr.begin("portal.logout");
        self.c.portal.auth.logout(token);
        self.tr.end(t);
    }

    /// The credential refresh `ssh`/`submit_at` perform first, called on
    /// its own so the traced run can time it.
    fn ensure_session(&mut self, user: Uid) {
        if let Some(b) = &self.c.broker {
            let t = self.tr.begin("fedauth.ensure_session");
            let db = self.c.db.read();
            let _ = b.write().ensure_session(&db, user);
            drop(db);
            self.tr.end(t);
        }
    }

    /// ssh to a node; must succeed. Untraced this is `ssh`; traced it is
    /// the same two steps (`ensure_session`, then `ssh_raw`) timed apart.
    pub fn ssh(&mut self, user: Uid, node: NodeId) -> Option<SessionId> {
        let r = if self.tr.enabled() {
            self.ensure_session(user);
            let t = self.tr.begin("simos.pam_login");
            let r = self.c.ssh_raw(user, node);
            self.tr.end(t);
            r
        } else {
            self.c.ssh(user, node)
        };
        self.oracle
            .check(r.is_ok(), || format!("ssh({user}, {node}) refused: {r:?}"));
        r.ok()
    }

    /// Close an ssh session.
    pub fn logout(&mut self, node: NodeId, sid: SessionId) {
        let t = self.tr.begin("simos.logout");
        self.c.node_mut(node).logout(sid);
        self.tr.end(t);
    }

    // -- filesystem ----------------------------------------------------

    /// Write a file in the user's own area; must succeed.
    pub fn fs_write(&mut self, user: Uid, node: NodeId, path: &str, data: &[u8]) {
        let t = self.tr.begin("fsperm.write");
        let r = self.c.fs_write(user, node, path, Mode::new(0o644), data);
        self.tr.end(t);
        self.fs_calls += 1;
        self.fs_denied += r.is_err() as u64;
        self.oracle.check(r.is_ok(), || {
            format!("fs_write({user}, {path}) refused: {r:?}")
        });
    }

    /// Read a file. `expect` is the content the read must return, or `None`
    /// when the read must be refused.
    pub fn fs_read(&mut self, user: Uid, node: NodeId, path: &str, expect: Option<&[u8]>) {
        let t = self.tr.begin("fsperm.read");
        let r = self.c.fs_read(user, node, path);
        self.tr.end(t);
        self.fs_calls += 1;
        self.fs_denied += r.is_err() as u64;
        let ok = match (&r, expect) {
            (Ok(got), Some(want)) => got == want,
            (Err(_), None) => true,
            _ => false,
        };
        self.oracle.check(ok, || {
            format!(
                "fs_read({user}, {path}): expected {}, got {}",
                if expect.is_some() {
                    "content"
                } else {
                    "refusal"
                },
                if r.is_ok() { "content" } else { "refusal" },
            )
        });
    }

    // -- scheduler -----------------------------------------------------

    /// The submission gate asked on its own (traced runs only), so its
    /// cost can be told apart from the scheduler's inside `try_submit_at`.
    fn probe_authorize(&mut self, user: Uid, at: SimTime) {
        if let Some(b) = &self.c.broker {
            let t = self.tr.begin("fedauth.authorize_submit");
            let _ = std::hint::black_box(b.read().authorize_submit_at(user, at));
            self.tr.end(t);
        }
    }

    /// Submit through the federated gate with no refresh; must be accepted.
    pub fn try_submit_at(&mut self, at: SimTime, spec: JobSpec) -> Option<JobId> {
        if self.tr.enabled() {
            self.probe_authorize(spec.user, at);
        }
        let user = spec.user;
        let t = self.tr.begin("sched.submit");
        let r = self.c.try_submit_at(at, spec);
        self.tr.end(t);
        self.oracle.check(r.is_ok(), || {
            format!("try_submit_at({user}) refused: {r:?}")
        });
        r.ok()
    }

    /// The legitimate-client submit (`submit_at`: refresh, then the gate).
    pub fn submit_at(&mut self, at: SimTime, spec: JobSpec) -> Option<JobId> {
        if self.tr.enabled() {
            self.ensure_session(spec.user);
            self.try_submit_at(at, spec)
        } else {
            // `submit_at` panics rather than refuses, so reaching the next
            // line is the check.
            let id = self.c.submit_at(at, spec);
            self.oracle.check(true, String::new);
            Some(id)
        }
    }

    /// Advance the cluster clock (scheduler cycles, credential clocks,
    /// revocation feeds, prologs and epilogs).
    pub fn advance_to(&mut self, t: SimTime) {
        let tok = self.tr.begin("core.advance");
        self.c.advance_to(t);
        self.tr.end(tok);
    }

    // -- network -------------------------------------------------------

    /// Bind a listener; must succeed.
    pub fn listen(&mut self, user: Uid, node: NodeId, port: Port) {
        let t = self.tr.begin("simnet.listen");
        let r = self.c.listen(user, node, Proto::Tcp, port, None);
        self.tr.end(t);
        self.oracle.check(r.is_ok(), || {
            format!("listen({user}, {node}:{port}) failed: {r:?}")
        });
    }

    /// Connect. `same_user` says whether the listener belongs to `user`:
    /// such a connect must establish; a cross-user one must be refused
    /// exactly when the cluster is [`separated`](Self::separated).
    pub fn connect(
        &mut self,
        user: Uid,
        from: NodeId,
        to: SocketAddr,
        same_user: bool,
    ) -> Option<ConnId> {
        let t = self.tr.begin("simnet.connect");
        let r = self.c.connect(user, from, to, Proto::Tcp);
        self.tr.end(t);
        let want_ok = same_user || !self.separated;
        self.oracle.check(r.is_ok() == want_ok, || {
            format!(
                "connect({user}, {from} -> {to}) {}: {r:?}",
                if want_ok {
                    "refused"
                } else {
                    "allowed across users"
                }
            )
        });
        let (id, setup): (ConnId, SimDuration) = r.ok()?;
        self.setup_us_sum += setup.as_micros();
        self.setup_count += 1;
        Some(id)
    }

    /// Send one payload on each established flow, under one span (a send
    /// is ~100 ns: a span apiece would cost as much as the call); each
    /// must succeed. The send *count* comes from the fabric's own counter.
    pub fn send_all(&mut self, conns: &[ConnId], payload: &Bytes) {
        let t = self.tr.begin("simnet.send");
        for &conn in conns {
            let r = self.c.fabric.send(conn, payload);
            self.oracle
                .check(r.is_ok(), || format!("send({conn:?}) failed: {r:?}"));
        }
        self.tr.end(t);
    }

    /// Close an established flow.
    pub fn close(&mut self, conn: ConnId) {
        let t = self.tr.begin("simnet.close");
        let closed = self.c.fabric.close(conn);
        self.tr.end(t);
        self.oracle
            .check(closed, || format!("close({conn:?}): no such connection"));
    }

    /// Close a listener.
    pub fn close_listener(&mut self, node: NodeId, port: Port) {
        let t = self.tr.begin("simnet.close");
        if let Some(h) = self.c.fabric.host_mut(node) {
            h.sockets.close(Proto::Tcp, port);
        }
        self.tr.end(t);
    }

    // -- credentials ---------------------------------------------------

    /// Validate a batch of bearer tokens at the home site under one span
    /// (`layer` names who does the work: `fedauth.validate` for home-realm
    /// tokens, `revsync.validate` for cross-realm ones, which go through
    /// the local CRL replica). Each must verify to its owner, or — when
    /// `revoked` — be refused.
    pub fn validate_all<'a>(
        &mut self,
        layer: &'static str,
        tokens: impl IntoIterator<Item = &'a (Uid, SignedToken)>,
        revoked: bool,
    ) {
        let t = self.tr.begin(layer);
        for (uid, tok) in tokens {
            let r = self.c.validate_federated_token(tok);
            let ok = if revoked { r.is_err() } else { r == Ok(*uid) };
            self.oracle.check(ok, || {
                format!(
                    "validate(realm {}, {uid}) {}: {r:?}",
                    tok.realm.0,
                    if revoked {
                        "accepted a revoked token"
                    } else {
                        "refused a live token"
                    }
                )
            });
        }
        self.tr.end(t);
    }
}
