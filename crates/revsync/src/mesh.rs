//! [`RevSyncMesh`]: the inter-site revocation-propagation fabric.
//!
//! Every participating realm gets a host on a simulated WAN (a
//! [`Fabric`] with wide-area latency constants), and revocation state
//! travels two ways:
//!
//! * **push feeds** — every [`RevSyncConfig::feed_interval`], each issuer
//!   ships the delta-log entries its subscriber has not been sent yet
//!   (empty deltas are heartbeats, so freshness keeps advancing between
//!   revocations). Feeds are fire-and-forget: a configurable fraction
//!   ([`RevSyncConfig::push_loss`]) is lost in transit, and the issuer's
//!   optimistic cursor does not notice — the subscriber sees a sequence
//!   gap and refuses the next delta rather than silently skipping entries;
//! * **pull anti-entropy** — every [`RevSyncConfig::anti_entropy`], each
//!   subscriber asks its issuer for everything after its *applied*
//!   frontier. The response is exact (no gap possible), so anti-entropy
//!   repairs whatever loss broke, from any partial state.
//!
//! Deltas spend real simulated time on the wire (connection setup plus
//! size-proportional transfer, per the fabric's [`eus_simnet::LatencyModel`]), so a
//! revocation minted at the issuer becomes visible at a sister site only
//! after feed cadence + WAN latency — the propagation lag `exp_revsync`
//! charts. Validation against a replica never touches the mesh: the mesh
//! only moves state *between* validations, which is the whole point.
//!
//! The pump is tick-driven ([`RevSyncMesh::pump`], called from
//! `SecureCluster::advance_to`): all exchanges due up to the new instant
//! are processed in event-time order, so coarse ticks and fine ticks
//! converge to the same history.

use crate::obs::MeshObs;
use crate::replica::{ApplyOutcome, CrlDelta, CrlReplica};
use crate::RevSyncConfig;
use eus_fedauth::RealmId;
use eus_fedauth::{CredError, CredSerial, SharedBroker, SignedToken, SshCertificate};
use eus_obs::TraceCtx;
use eus_simcore::{SimDuration, SimRng, SimTime};
use eus_simnet::{Fabric, PeerInfo, Port, Proto, SocketAddr};
use eus_simos::{Gid, NodeId, Uid};
use std::collections::{BTreeMap, BTreeSet};

/// The well-known port each realm's CRL feed daemon listens on.
pub const CRL_FEED_PORT: Port = 9253;

/// Counters the mesh keeps while it runs (all monotonic).
#[derive(Debug, Clone, Copy, Default)]
pub struct RevSyncMetrics {
    /// Push feeds that made it onto the wire.
    pub pushes_sent: u64,
    /// Push feeds lost in transit (the subscriber never sees them).
    pub pushes_lost: u64,
    /// Push attempts refused at connect time (partitioned link).
    pub pushes_failed: u64,
    /// Anti-entropy rounds completed (request + response on the wire).
    pub pulls: u64,
    /// Anti-entropy attempts refused at connect time (partitioned link).
    pub pulls_failed: u64,
    /// Deltas applied cleanly at replicas (including heartbeats).
    pub deltas_applied: u64,
    /// Serials newly learned by replicas.
    pub serials_applied: u64,
    /// Deltas refused because an earlier loss left a sequence gap.
    pub gaps_refused: u64,
    /// Push feeds swallowed by a stalled feed daemon (fault injection):
    /// the issuer sees no error, so nothing retries — only the
    /// subscriber's silence detector can tell.
    pub pushes_stalled: u64,
    /// Push attempts re-armed on the backoff schedule after a detected
    /// connect-time failure.
    pub push_retries: u64,
    /// Full-membership snapshots shipped to subscribers whose frontier
    /// fell below an issuer's compaction floor.
    pub snapshots_sent: u64,
    /// Delta-log entries truncated by [`RevSyncMesh::compact_logs`].
    pub log_compacted: u64,
    /// Feed payload bytes shipped (pushes + pull responses + bootstraps).
    pub bytes_sent: u64,
}

/// One realm's presence on the WAN: its credential plane (the feed source)
/// and the CRL replicas the *site* holds for realms it subscribes to.
struct Site {
    host: NodeId,
    plane: SharedBroker,
    replicas: BTreeMap<RealmId, CrlReplica>,
}

/// One (issuer → subscriber) feed relationship and its two schedules.
struct FeedLink {
    issuer: RealmId,
    subscriber: RealmId,
    /// The issuer's optimistic push cursor: highest log seq already pushed
    /// (whether or not it arrived — fire-and-forget).
    pushed_seq: u64,
    next_push: SimTime,
    next_pull: SimTime,
    /// Consecutive *detected* push failures (connect refused); drives the
    /// capped exponential backoff. In-transit loss is invisible to the
    /// sender and never counts.
    retry_attempts: u32,
    /// Subscriber side: the instant the last delivery (data or heartbeat)
    /// on this link landed — the silence detector's anchor.
    last_heard: SimTime,
}

/// A delta on the wire.
struct InFlight {
    to: RealmId,
    delta: CrlDelta,
    arrives: SimTime,
    /// A full-membership snapshot rather than a contiguous delta: absorbed
    /// as a set union (no gap check applies).
    snapshot: bool,
}

/// The propagation mesh: realms, feed links, and deltas in flight.
pub struct RevSyncMesh {
    cfg: RevSyncConfig,
    fabric: Fabric,
    sites: BTreeMap<RealmId, Site>,
    links: Vec<FeedLink>,
    in_flight: Vec<InFlight>,
    /// Links currently unable to exchange anything (site outage / WAN
    /// partition), keyed (issuer, subscriber).
    partitioned: BTreeSet<(RealmId, RealmId)>,
    /// Links whose push daemon is stalled (fault injection): pushes are
    /// silently swallowed — no error the issuer could retry on — while
    /// pull anti-entropy still works. Keyed (issuer, subscriber).
    stalled: BTreeSet<(RealmId, RealmId)>,
    /// (issuer, log seq) → causal context of the traced revocation that
    /// produced that entry; feeds covering the seq continue the trace
    /// across the WAN. Bounded (oldest evicted) and empty unless someone
    /// revokes through [`revoke_serial_traced`](Self::revoke_serial_traced)
    /// with a live context — never consulted by propagation decisions.
    trace_by_seq: BTreeMap<(RealmId, u64), TraceCtx>,
    rng: SimRng,
    now: SimTime,
    /// Running counters.
    pub metrics: RevSyncMetrics,
    /// Observability (span/counters for the pump, atomic validate stats,
    /// staleness-edge flight events). Disabled by default; pure
    /// measurement — never consulted by a propagation or accept/reject
    /// decision.
    pub obs: MeshObs,
}

impl RevSyncMesh {
    /// An empty mesh under `cfg`.
    pub fn new(cfg: RevSyncConfig) -> Self {
        assert!(
            !cfg.feed_interval.is_zero(),
            "feed interval must be positive"
        );
        assert!(
            !cfg.anti_entropy.is_zero(),
            "anti-entropy period must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.push_loss),
            "push loss is a probability"
        );
        assert!(
            !cfg.retry_base.is_zero(),
            "push retry backoff base must be positive"
        );
        let mut fabric = Fabric::new();
        fabric.latency = cfg.wan;
        RevSyncMesh {
            rng: SimRng::seed_from_u64(cfg.seed ^ 0x9EC5_11AD),
            cfg,
            fabric,
            sites: BTreeMap::new(),
            links: Vec::new(),
            in_flight: Vec::new(),
            partitioned: BTreeSet::new(),
            stalled: BTreeSet::new(),
            trace_by_seq: BTreeMap::new(),
            now: SimTime::ZERO,
            metrics: RevSyncMetrics::default(),
            obs: MeshObs::disabled(),
        }
    }

    /// Turn on observability with `cfg` (replaces the disabled default).
    pub fn enable_obs(&mut self, cfg: eus_obs::ObsConfig) {
        self.obs = MeshObs::new(&cfg);
    }

    /// The mesh's configuration.
    pub fn config(&self) -> &RevSyncConfig {
        &self.cfg
    }

    /// The mesh's clock (the latest pump instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The WAN itself (latency constants, connect/transfer metrics).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The WAN itself, mutably — fault injection (partitions, loss,
    /// latency spikes) goes through the fabric's link-fault API. A
    /// fabric-level fault is *detected* at connect time, so pushes take
    /// the retry/backoff path, unlike a mesh-level
    /// [`set_feed_stalled`](Self::set_feed_stalled).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The WAN host a realm's feed daemon lives on (the address
    /// fabric-level fault injection targets). Realms get deterministic
    /// host ids far above any cluster node's.
    pub fn wan_host(realm: RealmId) -> NodeId {
        NodeId(900_000 + realm.0)
    }

    /// Put a realm on the WAN: a host with the realm's CRL feed daemon
    /// listening. Panics on double registration.
    pub fn add_realm(&mut self, realm: RealmId, plane: SharedBroker) {
        assert!(
            !self.sites.contains_key(&realm),
            "{realm} is already on the mesh"
        );
        assert_eq!(
            plane.read().realm(),
            realm,
            "plane must be built for the realm it joins as"
        );
        let host = Self::wan_host(realm);
        self.fabric.add_host(host);
        let daemon = PeerInfo {
            uid: Uid(0),
            egid: Gid(0),
            pid: None,
        };
        self.fabric
            .listen(host, Proto::Tcp, CRL_FEED_PORT, daemon)
            .expect("fresh host has a free feed port");
        self.sites.insert(
            realm,
            Site {
                host,
                plane,
                replicas: BTreeMap::new(),
            },
        );
    }

    /// Realms on the mesh, in order.
    pub fn realms(&self) -> impl Iterator<Item = RealmId> + '_ {
        self.sites.keys().copied()
    }

    /// Whether a realm is on the mesh.
    pub fn has_realm(&self, realm: RealmId) -> bool {
        self.sites.contains_key(&realm)
    }

    /// The plane a realm joined the mesh with, if registered.
    pub fn plane(&self, realm: RealmId) -> Option<&SharedBroker> {
        self.sites.get(&realm).map(|s| &s.plane)
    }

    /// Subscribe `subscriber` to `issuer`'s revocation feed: bootstrap a
    /// full-CRL replica (the registration-time state transfer, charged to
    /// the wire like everything else) and schedule the push/pull cadences.
    /// Panics unless both realms are on the mesh.
    pub fn subscribe(&mut self, subscriber: RealmId, issuer: RealmId) {
        assert_ne!(subscriber, issuer, "a site never replicates itself");
        assert!(self.sites.contains_key(&issuer), "{issuer} not on the mesh");
        assert!(
            self.sites.contains_key(&subscriber),
            "{subscriber} not on the mesh"
        );
        assert!(
            !self.sites[&subscriber].replicas.contains_key(&issuer),
            "{subscriber} already subscribes to {issuer}"
        );
        let (verifier, serials, head) = {
            let plane = self.sites[&issuer].plane.read();
            // A compacted issuer can no longer produce its full history as
            // a delta; the bootstrap payload is then the membership
            // snapshot (same serials — every log entry is a unique serial —
            // so the frontier math is identical).
            let serials = if plane.revocation_floor() > 0 {
                plane.revocation_snapshot()
            } else {
                plane.revocations_since(0)
            };
            (plane.verifier(), serials, plane.revocation_head())
        };
        let wire = CrlDelta::wire_bytes_for(serials.len());
        // The registration-time state transfer crosses the WAN for real —
        // one connection, the full CRL as payload — so the fabric's
        // connect/byte metrics agree with the mesh's. Trust activation is
        // synchronous with its completion: the replica only starts
        // answering once it holds the full history, so there is never a
        // window where an empty replica vouches for a realm with
        // revocation entries it has not yet received.
        let from = self.sites[&issuer].host;
        let to = self.sites[&subscriber].host;
        let daemon = PeerInfo {
            uid: Uid(0),
            egid: Gid(0),
            pid: None,
        };
        let (conn, _setup) = self
            .fabric
            .connect(from, daemon, SocketAddr::new(to, CRL_FEED_PORT), Proto::Tcp)
            .expect("mesh hosts listen on the feed port");
        let body = bytes::Bytes::from(vec![0u8; wire]);
        self.fabric.send(conn, &body).expect("just connected");
        self.fabric.close(conn);
        self.metrics.bytes_sent += wire as u64;
        let replica = CrlReplica::bootstrap(issuer, verifier, serials, self.now);
        let site = self.sites.get_mut(&subscriber).expect("checked above");
        site.replicas.insert(issuer, replica);
        self.links.push(FeedLink {
            issuer,
            subscriber,
            pushed_seq: head,
            next_push: self.now + self.cfg.feed_interval,
            next_pull: self.now + self.cfg.anti_entropy,
            retry_attempts: 0,
            last_heard: self.now,
        });
    }

    /// Sever or restore the (issuer → subscriber) link. While partitioned,
    /// pushes and pulls both fail at connect time, the replica stops
    /// refreshing, and its lag grows — past
    /// [`RevSyncConfig::max_lag`] validation fails closed (the bounded-
    /// staleness guarantee under outage).
    pub fn set_partitioned(&mut self, issuer: RealmId, subscriber: RealmId, down: bool) {
        if down {
            self.partitioned.insert((issuer, subscriber));
        } else if self.partitioned.remove(&(issuer, subscriber)) {
            // Heal is an event the operator (or the chaos controller)
            // performs, so the feed resubscribes immediately instead of
            // waiting out whatever backoff the outage accumulated: the
            // next pump re-pushes and realigns the cursor.
            for l in &mut self.links {
                if l.issuer == issuer && l.subscriber == subscriber {
                    l.retry_attempts = 0;
                    l.next_push = self.now;
                }
            }
        }
    }

    /// Stall or unstall the (issuer → subscriber) push feed daemon (fault
    /// injection). A stalled daemon swallows pushes — data *and*
    /// heartbeats — without any error the issuer could retry on; pull
    /// anti-entropy is a different process and keeps working. The
    /// subscriber's only tell is silence: after
    /// [`RevSyncConfig::silent_after`] missed intervals the mesh fires a
    /// `feed.silent` flight event (when observability is on).
    pub fn set_feed_stalled(&mut self, issuer: RealmId, subscriber: RealmId, on: bool) {
        if on {
            self.stalled.insert((issuer, subscriber));
        } else {
            self.stalled.remove(&(issuer, subscriber));
        }
    }

    /// Whether the (issuer → subscriber) push feed is currently stalled.
    pub fn feed_stalled(&self, issuer: RealmId, subscriber: RealmId) -> bool {
        self.stalled.contains(&(issuer, subscriber))
    }

    /// Compact every issuer's delta log below the minimum frontier its
    /// subscribers have *applied*: entries no subscriber can ever ask for
    /// again are truncated at the plane
    /// ([`CredentialPlane::compact_revocations_below`]), so long soaks
    /// don't grow logs without bound. Membership — what validation reads —
    /// is untouched and sequence numbers never renumber. Issuers with no
    /// subscribers are left alone (conservative: a future subscriber
    /// bootstraps from a snapshot anyway). Returns total entries dropped.
    ///
    /// [`CredentialPlane::compact_revocations_below`]:
    /// eus_fedauth::CredentialPlane::compact_revocations_below
    pub fn compact_logs(&mut self) -> u64 {
        let mut dropped = 0u64;
        let issuers: Vec<RealmId> = self.sites.keys().copied().collect();
        for issuer in issuers {
            let mut floor: Option<u64> = None;
            for l in &self.links {
                if l.issuer == issuer {
                    let acked = self.sites[&l.subscriber].replicas[&issuer].applied_seq();
                    floor = Some(floor.map_or(acked, |f| f.min(acked)));
                }
            }
            if let Some(floor) = floor {
                if floor > 0 {
                    dropped += self.sites[&issuer]
                        .plane
                        .write()
                        .compact_revocations_below(floor);
                }
            }
        }
        self.metrics.log_compacted += dropped;
        dropped
    }

    /// Revoke `serial` at `realm`'s credential plane, stitching the causal
    /// trace end to end: a `cred.revoke.serial` span is recorded in the
    /// plane's own trace buffer (when it keeps an enabled one) and the new
    /// revocation-log entry is associated with the continued context, so
    /// the next feed covering that entry extends the same trace across the
    /// WAN. Returns whether the serial was newly revoked. `ctx` may be
    /// [`TraceCtx::NONE`] — a quiet caller revokes identically, minus the
    /// stitching (`tests/obs_trace_properties.rs` pins the equality).
    pub fn revoke_serial_traced(
        &mut self,
        realm: RealmId,
        serial: CredSerial,
        ctx: TraceCtx,
        when: SimTime,
    ) -> bool {
        let Some(site) = self.sites.get(&realm) else {
            return false;
        };
        let mut plane = site.plane.write();
        let head_before = plane.revocation_head();
        plane.revoke_serial(serial);
        let head = plane.revocation_head();
        if head == head_before {
            return false; // already revoked: no new log entry to trace
        }
        let ctx = match plane.trace_buffer() {
            Some(tb) if tb.enabled() => tb.hit(ctx, "cred.revoke.serial", when, serial.0),
            // No (enabled) cred ring: pass the context through unchanged so
            // the chain survives a partially-instrumented deployment.
            _ => ctx,
        };
        drop(plane);
        self.associate_trace(realm, head, ctx);
        true
    }

    /// Remember `ctx` as the trace behind `issuer`'s log entry `seq`.
    fn associate_trace(&mut self, issuer: RealmId, seq: u64, ctx: TraceCtx) {
        if ctx.is_none() {
            return;
        }
        self.trace_by_seq.insert((issuer, seq), ctx);
        while self.trace_by_seq.len() > 1024 {
            let Some(oldest) = self.trace_by_seq.keys().next().copied() else {
                break;
            };
            self.trace_by_seq.remove(&oldest);
        }
    }

    /// The newest traced context among `issuer`'s log entries
    /// `first..=head` ([`TraceCtx::NONE`] when none are traced).
    fn trace_for_range(&self, issuer: RealmId, first: u64, head: u64) -> TraceCtx {
        if first > head {
            return TraceCtx::NONE;
        }
        self.trace_by_seq
            .range((issuer, first)..=(issuer, head))
            .next_back()
            .map_or(TraceCtx::NONE, |(_, c)| *c)
    }

    /// Drive every exchange due up to `t`, in event-time order (arrivals
    /// before same-instant emissions, pushes before same-instant pulls).
    /// Idempotent for `t <= now`.
    pub fn pump(&mut self, t: SimTime) {
        if t < self.now {
            return;
        }
        let pump_tok = self.obs.rec.span_start();
        loop {
            // Earliest event at or before `t`: kind 0 = arrival, 1 = push,
            // 2 = pull; ties break by kind then stable index.
            let mut best: Option<(SimTime, u8, usize)> = None;
            let consider = |cand: (SimTime, u8, usize), best: &mut Option<(SimTime, u8, usize)>| {
                if cand.0 <= t && best.is_none_or(|b| cand < b) {
                    *best = Some(cand);
                }
            };
            for (i, f) in self.in_flight.iter().enumerate() {
                consider((f.arrives, 0, i), &mut best);
            }
            for (i, l) in self.links.iter().enumerate() {
                consider((l.next_push, 1, i), &mut best);
                consider((l.next_pull, 2, i), &mut best);
            }
            let Some((when, kind, idx)) = best else { break };
            match kind {
                0 => self.deliver(idx),
                1 => self.push(idx, when),
                _ => self.pull(idx, when),
            }
        }
        self.now = t;
        self.obs.rec.span_end(self.obs.sp_pump, pump_tok);
        self.record_staleness_edges();
        self.record_feed_silence_edges();
        // Boundary sampling: fold counter deltas into the windowed rings
        // (no-op when obs is off).
        self.obs.rec.ts_tick(self.now);
    }

    /// Flight-record every replica that crossed the staleness budget in
    /// either direction since the last pump (no-op when obs is off). Edges
    /// — not levels — are what an incident timeline needs: the instant a
    /// partitioned feed pushes a replica over `max_lag` (validation starts
    /// failing closed) and the instant an exchange pulls it back under.
    fn record_staleness_edges(&mut self) {
        if !self.obs.rec.enabled() {
            return;
        }
        let mut edges: Vec<(RealmId, RealmId, bool, u64)> = Vec::new();
        for (site_id, site) in &self.sites {
            for (issuer, replica) in &site.replicas {
                let lag = replica.lag(self.now);
                let over = lag > self.cfg.max_lag;
                if over != self.obs.stale.contains(&(*site_id, *issuer)) {
                    edges.push((*site_id, *issuer, over, lag.as_secs_f64() as u64));
                }
            }
        }
        for (site, issuer, over, lag_secs) in edges {
            if over {
                self.obs.stale.insert((site, issuer));
                self.obs.rec.incr(self.obs.c_stale_enters);
                self.obs.rec.event(
                    self.now,
                    "replica.stale",
                    site.0 as u64,
                    issuer.0 as u64,
                    lag_secs,
                );
            } else {
                self.obs.stale.remove(&(site, issuer));
                self.obs.rec.incr(self.obs.c_stale_exits);
                self.obs.rec.event(
                    self.now,
                    "replica.fresh",
                    site.0 as u64,
                    issuer.0 as u64,
                    lag_secs,
                );
            }
        }
    }

    /// Flight-record every feed link whose subscriber has stopped hearing
    /// anything — data or heartbeat — for
    /// [`RevSyncConfig::silent_after`] feed intervals, and the first
    /// delivery after (no-op when obs is off). Like staleness, edges are
    /// what matter: a stalled daemon is invisible to the issuer, so the
    /// subscriber's silence detector is the only early warning before the
    /// staleness budget itself expires.
    fn record_feed_silence_edges(&mut self) {
        if !self.obs.rec.enabled() {
            return;
        }
        let budget = self.cfg.feed_interval * self.cfg.silent_after as u64;
        let mut edges: Vec<(RealmId, RealmId, bool, u64)> = Vec::new();
        for l in &self.links {
            let quiet = self.now.since(l.last_heard);
            let silent = quiet > budget;
            if silent != self.obs.silent.contains(&(l.issuer, l.subscriber)) {
                edges.push((l.issuer, l.subscriber, silent, quiet.as_secs_f64() as u64));
            }
        }
        for (issuer, subscriber, silent, quiet_secs) in edges {
            if silent {
                self.obs.silent.insert((issuer, subscriber));
                self.obs.rec.incr(self.obs.c_silent_enters);
                self.obs.rec.event(
                    self.now,
                    "feed.silent",
                    issuer.0 as u64,
                    subscriber.0 as u64,
                    quiet_secs,
                );
            } else {
                self.obs.silent.remove(&(issuer, subscriber));
                self.obs.rec.incr(self.obs.c_silent_exits);
                self.obs.rec.event(
                    self.now,
                    "feed.heard",
                    issuer.0 as u64,
                    subscriber.0 as u64,
                    quiet_secs,
                );
            }
        }
    }

    /// Emit one push feed on link `idx` at instant `when`.
    fn push(&mut self, idx: usize, when: SimTime) {
        let (issuer, subscriber, since) = {
            let l = &mut self.links[idx];
            l.next_push = when + self.cfg.feed_interval;
            (l.issuer, l.subscriber, l.pushed_seq)
        };
        if self.stalled.contains(&(issuer, subscriber)) {
            // A stalled daemon swallows the push with no error the issuer
            // could see: no retry, no cursor advance — only the
            // subscriber's silence detector can tell.
            self.metrics.pushes_stalled += 1;
            return;
        }
        if self.partitioned.contains(&(issuer, subscriber)) {
            self.metrics.pushes_failed += 1;
            self.schedule_push_retry(idx, when);
            return;
        }
        let (serials, head, floor) = {
            let plane = self.sites[&issuer].plane.read();
            (
                plane.revocations_since(since),
                plane.revocation_head(),
                plane.revocation_floor(),
            )
        };
        if since < floor {
            // The push cursor somehow fell below the compaction floor (an
            // operator compacted more aggressively than the subscriber
            // frontiers): degrade this push to a full snapshot rather than
            // ship a delta whose sequence numbering would lie.
            let snapshot = self.sites[&issuer].plane.read().revocation_snapshot();
            let delta = CrlDelta {
                issuer,
                first_seq: 1,
                serials: snapshot,
                head,
                as_of: when,
                trace: TraceCtx::NONE,
            };
            if self.ship(issuer, subscriber, delta, SimDuration::ZERO, true) {
                let l = &mut self.links[idx];
                l.pushed_seq = head;
                l.retry_attempts = 0;
                self.metrics.pushes_sent += 1;
                self.metrics.snapshots_sent += 1;
                self.obs.rec.incr(self.obs.c_pushes);
            } else {
                self.metrics.pushes_failed += 1;
                self.schedule_push_retry(idx, when);
            }
            return;
        }
        let mut delta = CrlDelta {
            issuer,
            first_seq: since + 1,
            serials,
            head,
            as_of: when,
            trace: TraceCtx::NONE,
        };
        // Fire-and-forget for in-transit loss: the cursor advances whether
        // or not the delta survives the wire (the subscriber sees a gap).
        if self.rng.chance(self.cfg.push_loss) {
            self.links[idx].pushed_seq = head;
            self.metrics.pushes_lost += 1;
            return;
        }
        // Continue the newest traced revocation this delta carries (free
        // when tracing is off — the association map is then empty).
        delta.trace = self.obs.trace.hit(
            self.trace_for_range(issuer, since + 1, head),
            "revsync.mesh.push",
            when,
            delta.serials.len() as u64,
        );
        if !self.ship(issuer, subscriber, delta, SimDuration::ZERO, false) {
            // A connect-time refusal (fabric link fault) *is* visible to
            // the sender: the cursor stays put and the link re-arms on the
            // backoff schedule instead of waiting a whole interval.
            self.metrics.pushes_failed += 1;
            self.schedule_push_retry(idx, when);
            return;
        }
        let l = &mut self.links[idx];
        l.pushed_seq = head;
        l.retry_attempts = 0;
        self.metrics.pushes_sent += 1;
        self.obs.rec.incr(self.obs.c_pushes);
    }

    /// Re-arm link `idx` after a detected push failure: capped exponential
    /// backoff (doubling from [`RevSyncConfig::retry_base`] up to
    /// [`RevSyncConfig::retry_cap`]) plus up to 25% jitter, so a transient
    /// fault heals in seconds instead of a full feed interval while a
    /// persistent outage backs the sender off — and parallel links don't
    /// retry in lockstep.
    fn schedule_push_retry(&mut self, idx: usize, when: SimTime) {
        let attempts = self.links[idx].retry_attempts.saturating_add(1);
        let shift = (attempts - 1).min(16);
        let backoff = (self.cfg.retry_base * (1u64 << shift))
            .min(self.cfg.retry_cap)
            .max(SimDuration::from_micros(1));
        let jitter =
            SimDuration::from_micros(self.rng.range_u64(0, (backoff.as_micros() / 4).max(1)));
        let l = &mut self.links[idx];
        l.retry_attempts = attempts;
        l.next_push = when + backoff + jitter;
        self.metrics.push_retries += 1;
    }

    /// Run one anti-entropy round on link `idx` at instant `when`.
    fn pull(&mut self, idx: usize, when: SimTime) {
        let (issuer, subscriber) = {
            let l = &mut self.links[idx];
            l.next_pull = when + self.cfg.anti_entropy;
            (l.issuer, l.subscriber)
        };
        if self.partitioned.contains(&(issuer, subscriber)) {
            self.metrics.pulls_failed += 1;
            return;
        }
        // The subscriber asks from its *applied* frontier — whatever gaps
        // loss tore open, the response is contiguous from there.
        let since = self.sites[&subscriber].replicas[&issuer].applied_seq();
        let (serials, head, floor) = {
            let plane = self.sites[&issuer].plane.read();
            (
                plane.revocations_since(since),
                plane.revocation_head(),
                plane.revocation_floor(),
            )
        };
        if since < floor {
            // The frontier fell below the issuer's compaction floor: no
            // contiguous delta exists any more, so the response degrades
            // to a full membership snapshot (exact, absorbed as a set
            // union — never a gap).
            let snapshot = self.sites[&issuer].plane.read().revocation_snapshot();
            let delta = CrlDelta {
                issuer,
                first_seq: 1,
                serials: snapshot,
                head,
                as_of: when,
                trace: TraceCtx::NONE,
            };
            if self.ship(issuer, subscriber, delta, self.cfg.wan.base_rtt, true) {
                self.links[idx].pushed_seq = self.links[idx].pushed_seq.max(head);
                self.metrics.pulls += 1;
                self.metrics.snapshots_sent += 1;
                self.obs.rec.incr(self.obs.c_pulls);
            } else {
                self.metrics.pulls_failed += 1;
            }
            return;
        }
        let serials_len = serials.len() as u64;
        let delta = CrlDelta {
            issuer,
            first_seq: since + 1,
            serials,
            head,
            as_of: when,
            trace: self.obs.trace.hit(
                self.trace_for_range(issuer, since + 1, head),
                "revsync.mesh.pull",
                when,
                serials_len,
            ),
        };
        // Request leg (one WAN round trip) precedes the response transfer.
        if self.ship(issuer, subscriber, delta, self.cfg.wan.base_rtt, false) {
            // The issuer now knows the subscriber's true frontier: realign
            // the push cursor so post-repair pushes are contiguous again.
            self.links[idx].pushed_seq = self.links[idx].pushed_seq.max(head);
            self.metrics.pulls += 1;
            self.obs.rec.incr(self.obs.c_pulls);
        } else {
            self.metrics.pulls_failed += 1;
        }
    }

    /// Put a delta on the wire from issuer to subscriber; `extra` models
    /// any protocol time before the transfer starts (the pull request leg),
    /// `snapshot` marks a full-membership payload. Returns false when the
    /// connect itself is refused (fabric-level link fault) — nothing was
    /// sent or charged.
    fn ship(
        &mut self,
        issuer: RealmId,
        subscriber: RealmId,
        delta: CrlDelta,
        extra: SimDuration,
        snapshot: bool,
    ) -> bool {
        let from = self.sites[&issuer].host;
        let to = self.sites[&subscriber].host;
        let daemon = PeerInfo {
            uid: Uid(0),
            egid: Gid(0),
            pid: None,
        };
        let Ok((conn, setup)) =
            self.fabric
                .connect(from, daemon, SocketAddr::new(to, CRL_FEED_PORT), Proto::Tcp)
        else {
            return false;
        };
        let body = bytes::Bytes::from(vec![0u8; delta.wire_bytes()]);
        let xfer = self.fabric.send(conn, &body).expect("just connected");
        self.fabric.close(conn);
        self.metrics.bytes_sent += delta.wire_bytes() as u64;
        self.in_flight.push(InFlight {
            to: subscriber,
            arrives: delta.as_of + extra + setup + xfer,
            delta,
            snapshot,
        });
        true
    }

    /// Deliver in-flight delta `idx` to its replica.
    fn deliver(&mut self, idx: usize) {
        let f = self.in_flight.swap_remove(idx);
        // The subscriber heard from this issuer — whatever the payload,
        // the silence detector re-arms.
        for l in &mut self.links {
            if l.issuer == f.delta.issuer && l.subscriber == f.to {
                l.last_heard = f.arrives;
            }
        }
        let site = self.sites.get_mut(&f.to).expect("subscriber exists");
        let replica = site
            .replicas
            .get_mut(&f.delta.issuer)
            .expect("subscribed replica exists");
        if f.snapshot {
            let n = replica.absorb_snapshot(&f.delta.serials, f.delta.head, f.delta.as_of);
            self.metrics.deltas_applied += 1;
            self.metrics.serials_applied += n as u64;
            self.obs.rec.incr(self.obs.c_deliveries);
            return;
        }
        match replica.apply(&f.delta) {
            ApplyOutcome::Applied(n) => {
                self.metrics.deltas_applied += 1;
                self.metrics.serials_applied += n as u64;
                self.obs.rec.incr(self.obs.c_deliveries);
                if !f.delta.trace.is_none() {
                    // The apply span is what fail-closed denials at this
                    // replica will parent under.
                    let ctx = self.obs.trace.hit(
                        f.delta.trace,
                        "revsync.replica.apply",
                        f.arrives,
                        n as u64,
                    );
                    replica.set_last_trace(ctx);
                }
            }
            ApplyOutcome::Gap { .. } => {
                self.metrics.gaps_refused += 1;
                self.obs.rec.incr(self.obs.c_gaps);
                let issuer = f.delta.issuer;
                self.obs.rec.event(
                    self.now,
                    "crl.gap",
                    f.to.0 as u64,
                    issuer.0 as u64,
                    f.delta.first_seq,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // The validate hot path (no mesh traffic, no issuer contact)
    // ------------------------------------------------------------------

    /// Validate a foreign bearer token at `site` against its local replica
    /// of the issuing realm, under the mesh's staleness budget. Fails
    /// closed when the site holds no replica for the issuer
    /// (`UnknownRealm`) or the replica is over budget (`StaleReplica`).
    pub fn validate_token_at(
        &self,
        site: RealmId,
        token: &SignedToken,
        now: SimTime,
    ) -> Result<Uid, CredError> {
        let t0 = self.obs.begin_validate();
        let r = self
            .subscribed_replica(site, token.realm)
            .and_then(|rep| rep.validate_token(token, now, self.cfg.max_lag));
        self.obs.finish_validate(t0, &r);
        self.trace_deny(site, token.realm, token.serial, now, &r);
        r
    }

    /// [`validate_token_at`](Self::validate_token_at) for SSH certificates.
    pub fn validate_cert_at(
        &self,
        site: RealmId,
        cert: &SshCertificate,
        now: SimTime,
    ) -> Result<Uid, CredError> {
        let t0 = self.obs.begin_validate();
        let r = self
            .subscribed_replica(site, cert.realm)
            .and_then(|rep| rep.validate_cert(cert, now, self.cfg.max_lag));
        self.obs.finish_validate(t0, &r);
        self.trace_deny(site, cert.realm, cert.serial, now, &r);
        r
    }

    /// Record a `revsync.replica.deny` span when a fail-closed refusal
    /// (revoked or stale) follows a traced apply at this replica. `&self`
    /// on purpose — the trace ring is interior-mutable — and one relaxed
    /// load + branch when tracing is off.
    fn trace_deny(
        &self,
        site: RealmId,
        issuer: RealmId,
        serial: CredSerial,
        now: SimTime,
        r: &Result<Uid, CredError>,
    ) {
        if self.obs.trace.enabled()
            && matches!(
                r,
                Err(CredError::Revoked(_)) | Err(CredError::StaleReplica { .. })
            )
        {
            if let Some(rep) = self.replica(site, issuer) {
                let _ = self
                    .obs
                    .trace
                    .hit(rep.last_trace(), "revsync.replica.deny", now, serial.0);
            }
        }
    }

    /// The replica lookup with precise fail-closed attribution: an
    /// `UnknownRealm` error names the realm that is actually missing — the
    /// validating site when *it* is not on the mesh, the issuer when the
    /// site holds no replica for it.
    fn subscribed_replica(&self, site: RealmId, issuer: RealmId) -> Result<&CrlReplica, CredError> {
        self.sites
            .get(&site)
            .ok_or(CredError::UnknownRealm(site))?
            .replicas
            .get(&issuer)
            .ok_or(CredError::UnknownRealm(issuer))
    }

    /// The replica `site` holds for `issuer`, if subscribed.
    pub fn replica(&self, site: RealmId, issuer: RealmId) -> Option<&CrlReplica> {
        self.sites.get(&site)?.replicas.get(&issuer)
    }

    /// How stale `site`'s replica of `issuer` is at `now` (`None` when not
    /// subscribed).
    pub fn replica_lag(&self, site: RealmId, issuer: RealmId, now: SimTime) -> Option<SimDuration> {
        Some(self.replica(site, issuer)?.lag(now))
    }
}

impl std::fmt::Debug for RevSyncMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevSyncMesh")
            .field("realms", &self.sites.keys().collect::<Vec<_>>())
            .field("links", &self.links.len())
            .field("in_flight", &self.in_flight.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eus_fedauth::{shared_broker, BrokerPolicy, CredentialBroker, CredentialPlane};
    use eus_simos::UserDb;

    fn two_realm_mesh(
        cfg: RevSyncConfig,
    ) -> (UserDb, RevSyncMesh, SharedBroker, SharedBroker, Uid) {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let home = shared_broker(CredentialBroker::new(
            RealmId(1),
            11,
            BrokerPolicy::default(),
        ));
        let sister = shared_broker(CredentialBroker::new(
            RealmId(2),
            22,
            BrokerPolicy::default(),
        ));
        let mut mesh = RevSyncMesh::new(cfg);
        mesh.add_realm(RealmId(1), home.clone());
        mesh.add_realm(RealmId(2), sister.clone());
        mesh.subscribe(RealmId(1), RealmId(2));
        (db, mesh, home, sister, alice)
    }

    #[test]
    fn push_feed_propagates_a_revocation_within_one_interval() {
        let cfg = RevSyncConfig::default();
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        let token = sister.write().login(&db, alice, None).unwrap();
        // Visible (and valid) at home via the replica immediately.
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, SimTime::ZERO)
                .unwrap(),
            alice
        );
        // Revoke at the issuer: home still accepts until a feed lands.
        sister.write().revoke_user(alice);
        assert!(mesh
            .validate_token_at(RealmId(1), &token, SimTime::ZERO)
            .is_ok());
        // One feed interval (plus wire time) later, home rejects.
        let after = SimTime::ZERO + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(after);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, after),
            Err(CredError::Revoked(token.serial))
        );
        assert!(mesh.metrics.pushes_sent >= 1);
        assert!(mesh.metrics.serials_applied >= 1);
        // The replica's lag is bounded by cadence + wire, well under budget.
        let lag = mesh.replica_lag(RealmId(1), RealmId(2), after).unwrap();
        assert!(lag <= cfg.feed_interval + SimDuration::from_secs(1));
    }

    #[test]
    fn lost_pushes_leave_gaps_that_anti_entropy_repairs() {
        let cfg = RevSyncConfig {
            push_loss: 1.0, // every push dies: only anti-entropy moves data
            ..RevSyncConfig::default()
        };
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        let token = sister.write().login(&db, alice, None).unwrap();
        sister.write().revoke_user(alice);

        // Many feed intervals pass: all pushes lost, replica unrefreshed.
        let mid = SimTime::ZERO + cfg.feed_interval * 5;
        mesh.pump(mid);
        assert!(mesh.metrics.pushes_lost >= 4);
        assert_eq!(mesh.metrics.serials_applied, 0);
        assert!(mesh.validate_token_at(RealmId(1), &token, mid).is_ok());

        // The anti-entropy round catches the replica all the way up.
        let after_ae = SimTime::ZERO + cfg.anti_entropy + SimDuration::from_secs(2);
        mesh.pump(after_ae);
        assert!(mesh.metrics.pulls >= 1);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, after_ae),
            Err(CredError::Revoked(token.serial))
        );
        let issuer_head = sister.read().revocation_head();
        assert_eq!(
            mesh.replica(RealmId(1), RealmId(2)).unwrap().applied_seq(),
            issuer_head
        );
    }

    #[test]
    fn partition_grows_lag_until_validation_fails_closed() {
        let cfg = RevSyncConfig::default();
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        let token = sister.write().login(&db, alice, None).unwrap();
        mesh.set_partitioned(RealmId(2), RealmId(1), true);

        // Inside the budget: stale but acceptable.
        let inside = SimTime::ZERO + cfg.max_lag;
        mesh.pump(inside);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, inside).unwrap(),
            alice
        );
        // Past the budget: fail closed, naming the stale realm.
        let outside = inside + SimDuration::from_secs(1);
        mesh.pump(outside);
        assert!(matches!(
            mesh.validate_token_at(RealmId(1), &token, outside),
            Err(CredError::StaleReplica {
                realm: RealmId(2),
                ..
            })
        ));
        // Healing the partition restores validation at the next exchange.
        mesh.set_partitioned(RealmId(2), RealmId(1), false);
        let healed = outside + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(healed);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, healed).unwrap(),
            alice
        );
    }

    #[test]
    fn obs_records_pump_counters_and_staleness_edges() {
        let cfg = RevSyncConfig::default();
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        mesh.enable_obs(eus_obs::ObsConfig::enabled());
        let token = sister.write().login(&db, alice, None).unwrap();
        mesh.set_partitioned(RealmId(2), RealmId(1), true);

        // Partition outlives the budget: exactly one stale edge in.
        let outside = SimTime::ZERO + cfg.max_lag + SimDuration::from_secs(1);
        mesh.pump(outside);
        assert_eq!(mesh.obs.rec.counter_value(mesh.obs.c_stale_enters), 1);
        assert!(mesh.validate_token_at(RealmId(1), &token, outside).is_err());
        assert!(mesh.obs.validate_stale() >= 1);
        assert!(mesh.obs.validate_calls() >= 1);

        // Healing produces exactly one fresh edge out.
        mesh.set_partitioned(RealmId(2), RealmId(1), false);
        let healed = outside + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(healed);
        assert_eq!(mesh.obs.rec.counter_value(mesh.obs.c_stale_exits), 1);
        assert!(mesh.obs.rec.counter_value(mesh.obs.c_pushes) >= 1);
        let kinds: Vec<&str> = mesh
            .obs
            .rec
            .flight
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&"replica.stale"));
        assert!(kinds.contains(&"replica.fresh"));
        assert!(mesh.obs.rec.span_stats(mesh.obs.sp_pump).count >= 2);
    }

    #[test]
    fn traced_revocation_chains_across_the_wan() {
        let cfg = RevSyncConfig::default();
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        mesh.enable_obs(eus_obs::ObsConfig::enabled());
        sister.read().trace_buffer().unwrap().set_enabled(true);
        let token = sister.write().login(&db, alice, None).unwrap();

        // Mint the entry-point root (the portal does this in production).
        let root = mesh.obs.trace.root("portal.route.revoke", SimTime::ZERO);
        assert!(mesh.revoke_serial_traced(RealmId(2), token.serial, root.ctx(), SimTime::ZERO));
        mesh.obs.trace.finish(root, SimTime::ZERO);

        // Feed + wire time later, home denies — and the denial is stitched
        // to the same trace.
        let after = SimTime::ZERO + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(after);
        assert!(mesh.validate_token_at(RealmId(1), &token, after).is_err());

        let trace_id = root.ctx().trace;
        let spans = eus_obs::assemble_trace(
            trace_id,
            &[
                mesh.obs.trace.spans(),
                sister.read().trace_buffer().unwrap().spans(),
            ],
        );
        eus_obs::check_well_formed(&spans).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        for want in [
            "portal.route.revoke",
            "cred.revoke.serial",
            "revsync.mesh.push",
            "revsync.replica.apply",
            "revsync.replica.deny",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        // Sim-time ordering is monotone down the chain.
        for pair in spans.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        // Idempotent re-revocation neither re-records nor re-associates.
        assert!(!mesh.revoke_serial_traced(RealmId(2), token.serial, root.ctx(), after));
    }

    #[test]
    fn quiet_mesh_runs_identically_with_trace_hooks_present() {
        let cfg = RevSyncConfig::default();
        let (db, mut quiet, _h1, s1, alice) = two_realm_mesh(cfg);
        let (db2, mut loud, _h2, s2, alice2) = two_realm_mesh(cfg);
        loud.enable_obs(eus_obs::ObsConfig::enabled());
        let t1 = s1.write().login(&db, alice, None).unwrap();
        let t2 = s2.write().login(&db2, alice2, None).unwrap();
        let root = loud.obs.trace.root("portal.route.revoke", SimTime::ZERO);
        quiet.revoke_serial_traced(RealmId(2), t1.serial, TraceCtx::NONE, SimTime::ZERO);
        loud.revoke_serial_traced(RealmId(2), t2.serial, root.ctx(), SimTime::ZERO);
        loud.obs.trace.finish(root, SimTime::ZERO);
        let after = SimTime::ZERO + cfg.feed_interval * 3;
        quiet.pump(after);
        loud.pump(after);
        // Same decisions, same propagation metrics, same wire charge.
        assert_eq!(
            quiet.validate_token_at(RealmId(1), &t1, after),
            loud.validate_token_at(RealmId(1), &t2, after)
        );
        assert_eq!(quiet.metrics.pushes_sent, loud.metrics.pushes_sent);
        assert_eq!(quiet.metrics.bytes_sent, loud.metrics.bytes_sent);
        assert_eq!(quiet.metrics.serials_applied, loud.metrics.serials_applied);
    }

    #[test]
    fn stalled_feed_goes_silent_and_anti_entropy_still_repairs() {
        let cfg = RevSyncConfig::default();
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        mesh.enable_obs(eus_obs::ObsConfig::enabled());
        let token = sister.write().login(&db, alice, None).unwrap();
        sister.write().revoke_user(alice);
        mesh.set_feed_stalled(RealmId(2), RealmId(1), true);
        assert!(mesh.feed_stalled(RealmId(2), RealmId(1)));

        // Past the silence budget: pushes were swallowed (no detected
        // failures, so no retries) and the silence edge fired exactly once.
        let quiet = SimTime::ZERO + cfg.feed_interval * (cfg.silent_after as u64 + 2);
        mesh.pump(quiet);
        assert_eq!(mesh.metrics.pushes_sent, 0);
        assert!(mesh.metrics.pushes_stalled >= cfg.silent_after as u64);
        assert_eq!(mesh.metrics.push_retries, 0);
        assert_eq!(mesh.obs.rec.counter_value(mesh.obs.c_silent_enters), 1);
        assert!(mesh.validate_token_at(RealmId(1), &token, quiet).is_ok());

        // Anti-entropy is a different process: the pull repairs the
        // replica, and its delivery clears the silence.
        let after_ae = SimTime::ZERO + cfg.anti_entropy + SimDuration::from_secs(2);
        mesh.pump(after_ae);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, after_ae),
            Err(CredError::Revoked(token.serial))
        );
        assert_eq!(mesh.obs.rec.counter_value(mesh.obs.c_silent_exits), 1);
        let kinds: Vec<&str> = mesh
            .obs
            .rec
            .flight
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&"feed.silent"));
        assert!(kinds.contains(&"feed.heard"));

        // Unstalling lets pushes flow again.
        mesh.set_feed_stalled(RealmId(2), RealmId(1), false);
        mesh.pump(after_ae + cfg.feed_interval * 2);
        assert!(mesh.metrics.pushes_sent >= 1);
    }

    #[test]
    fn detected_push_failure_retries_with_backoff_and_heal_resubscribes() {
        let cfg = RevSyncConfig::default();
        let (db, mut mesh, _home, sister, alice) = two_realm_mesh(cfg);
        let token = sister.write().login(&db, alice, None).unwrap();
        sister.write().revoke_user(alice);
        mesh.set_partitioned(RealmId(2), RealmId(1), true);

        // One minute of outage: the first attempt at one feed interval,
        // then the capped exponential schedule. Every detected failure
        // re-arms a retry.
        let mid = SimTime::ZERO + SimDuration::from_secs(60);
        mesh.pump(mid);
        assert!(mesh.metrics.push_retries >= 4);
        assert_eq!(mesh.metrics.pushes_failed, mesh.metrics.push_retries);
        assert_eq!(mesh.metrics.pushes_sent, 0);
        assert!(mesh.validate_token_at(RealmId(1), &token, mid).is_ok());

        // Heal: the feed resubscribes immediately — the missed revocation
        // lands within wire time of the next pump, not a whole backoff (or
        // feed interval) later.
        mesh.set_partitioned(RealmId(2), RealmId(1), false);
        let healed = mid + SimDuration::from_secs(1);
        mesh.pump(healed);
        assert!(mesh.metrics.pushes_sent >= 1);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, healed),
            Err(CredError::Revoked(token.serial))
        );
    }

    #[test]
    fn compaction_tracks_subscriber_frontier_and_feeds_stay_exact() {
        let cfg = RevSyncConfig::default();
        let (mut db, mut mesh, _home, sister, _alice) = two_realm_mesh(cfg);
        for name in ["u1", "u2", "u3", "u4"] {
            let u = db.create_user(name).unwrap();
            let t = sister.write().login(&db, u, None).unwrap();
            sister.write().revoke_serial(t.serial);
        }
        let t1 = SimTime::ZERO + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(t1);
        let head = sister.read().revocation_head();
        assert_eq!(
            mesh.replica(RealmId(1), RealmId(2)).unwrap().applied_seq(),
            head
        );

        // Compaction truncates exactly up to the subscriber's frontier.
        assert_eq!(mesh.compact_logs(), head);
        assert_eq!(sister.read().revocation_floor(), head);
        assert_eq!(mesh.metrics.log_compacted, head);

        // Later revocations still flow as exact deltas — nothing below the
        // floor is ever needed again.
        let eve = db.create_user("eve").unwrap();
        let t = sister.write().login(&db, eve, None).unwrap();
        sister.write().revoke_serial(t.serial);
        let t2 = t1 + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(t2);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &t, t2),
            Err(CredError::Revoked(t.serial))
        );
        assert_eq!(mesh.metrics.snapshots_sent, 0, "delta path sufficed");
        assert_eq!(mesh.compact_logs(), 1, "only the newly acked entry");
    }

    #[test]
    fn below_floor_subscriber_recovers_via_snapshot() {
        let cfg = RevSyncConfig::default();
        let (mut db, mut mesh, _home, sister, _alice) = two_realm_mesh(cfg);
        // Sever the feed, then revoke while the subscriber cannot hear.
        mesh.set_partitioned(RealmId(2), RealmId(1), true);
        let bob = db.create_user("bob").unwrap();
        let token = sister.write().login(&db, bob, None).unwrap();
        sister.write().revoke_serial(token.serial);
        // An over-aggressive operator compacts the issuer's whole log: the
        // subscriber's frontier (0) is now below the floor.
        let head = sister.read().revocation_head();
        assert_eq!(sister.write().compact_revocations_below(head), head);

        // On heal, the re-push degrades to a full membership snapshot and
        // converges the replica exactly.
        let mid = SimTime::ZERO + SimDuration::from_secs(30);
        mesh.pump(mid);
        mesh.set_partitioned(RealmId(2), RealmId(1), false);
        let healed = mid + SimDuration::from_secs(1);
        mesh.pump(healed);
        assert!(mesh.metrics.snapshots_sent >= 1);
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &token, healed),
            Err(CredError::Revoked(token.serial))
        );
        assert_eq!(
            mesh.replica(RealmId(1), RealmId(2)).unwrap().applied_seq(),
            head
        );
    }

    #[test]
    fn new_subscriber_bootstraps_from_membership_snapshot_after_compaction() {
        let cfg = RevSyncConfig::default();
        let (mut db, mut mesh, _home, sister, _alice) = two_realm_mesh(cfg);
        let carol = db.create_user("carol").unwrap();
        let token = sister.write().login(&db, carol, None).unwrap();
        sister.write().revoke_serial(token.serial);
        let t1 = SimTime::ZERO + cfg.feed_interval + SimDuration::from_secs(1);
        mesh.pump(t1);
        assert!(mesh.compact_logs() >= 1);

        // A realm joining after compaction bootstraps from the membership
        // snapshot and still fails closed on the truncated history.
        let third = shared_broker(CredentialBroker::new(
            RealmId(3),
            33,
            BrokerPolicy::default(),
        ));
        mesh.add_realm(RealmId(3), third);
        mesh.subscribe(RealmId(3), RealmId(2));
        assert_eq!(
            mesh.validate_token_at(RealmId(3), &token, t1),
            Err(CredError::Revoked(token.serial))
        );
        let head = sister.read().revocation_head();
        assert_eq!(
            mesh.replica(RealmId(3), RealmId(2)).unwrap().applied_seq(),
            head
        );
    }

    #[test]
    fn unsubscribed_realms_fail_closed() {
        let cfg = RevSyncConfig::default();
        let (db, mesh, _home, _sister, alice) = two_realm_mesh(cfg);
        let mut rogue = CredentialBroker::new(RealmId(9), 9, BrokerPolicy::default());
        let forged = rogue.login(&db, alice, None).unwrap();
        assert_eq!(
            mesh.validate_token_at(RealmId(1), &forged, SimTime::ZERO),
            Err(CredError::UnknownRealm(RealmId(9)))
        );
        // A site not on the mesh cannot validate anything — and the error
        // names the missing *site*, not the (possibly healthy) issuer.
        let sister_token = forged;
        assert_eq!(
            mesh.validate_token_at(RealmId(42), &sister_token, SimTime::ZERO),
            Err(CredError::UnknownRealm(RealmId(42)))
        );
    }
}
