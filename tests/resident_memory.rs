//! Resident memory follows live state, not configured bounds.
//!
//! A counting global allocator keeps, per thread, the bytes allocated
//! minus the bytes freed. Each test runs on its own thread and the
//! simulation spawns none, so a test reads exactly the heap its own cluster
//! holds, whatever the other tests do in parallel.
//!
//! The UBF puts a decision daemon on every host. Its `DecisionCache` is
//! bounded at `UBF_CACHE_CAPACITY` entries; reserving that
//! bound up front cost ≈232 KiB per host, ≈14.7 MiB for a 64-node cluster
//! that judged nothing. These tests pin that the fresh cluster stays small
//! and that what a wire-up adds to the UBF plane follows the identity pairs
//! it judged.

use hpc_user_separation::simnet::{Proto, SocketAddr};
use hpc_user_separation::ubf::UBF_CACHE_CAPACITY;
use hpc_user_separation::{ClusterSpec, Mechanism, SecureCluster, SeparationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The value `f` returns and the heap it still holds.
fn held<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let v = f();
    let after = LIVE.with(Cell::get);
    (v, usize::try_from(after - before).unwrap_or(0))
}

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// `net_wireup`'s cluster: 64 compute nodes and one login node.
fn wireup_spec() -> ClusterSpec {
    ClusterSpec {
        compute_nodes: 64,
        cores_per_node: 16,
        gpus_per_node: 0,
        ..ClusterSpec::default()
    }
}

/// A freshly built 64-node `llsc()` cluster holds what its state needs:
/// ≈0.26 MiB. Reserving every daemon's full cache bound held ≈15.3 MiB.
#[test]
fn a_fresh_64_node_cluster_holds_only_its_state() {
    let (c, bytes) = held(|| SecureCluster::new(SeparationConfig::llsc(), wireup_spec()));
    let hosts = c.compute_ids.len() + c.login_ids.len();
    assert_eq!(hosts, 65);
    assert!(
        bytes < MIB,
        "a fresh 65-host llsc cluster holds {} KiB of heap (bound 1024 KiB)",
        bytes / KIB
    );
}

/// Ranks per wire-up, as in `net_wireup`.
const RANKS: usize = 16;

/// Build a cluster under `config`, provision `users` accounts and run one
/// all-to-all wire-up per user over 16 of the 64 compute nodes (rank `i`
/// connects to every rank `j > i`; the node sets differ by user). Every
/// flow is same-user, so the fabric ends in the same state with or without
/// the UBF. Returns the heap the cluster holds after the tape and the
/// distinct (listener host, initiator, listener) identity pairs judged.
fn wire_up(config: SeparationConfig, users: usize) -> (usize, usize) {
    let ((_cluster, judged), bytes) = held(|| {
        let mut c = SecureCluster::new(config, wireup_spec());
        let uids: Vec<_> = (0..users)
            .map(|u| c.add_user(&format!("rank-user{u}")).unwrap())
            .collect();
        let compute = c.compute_ids.clone();
        let mut judged = BTreeSet::new();
        for (k, &user) in uids.iter().enumerate() {
            let port = 30_000 + k as u16;
            let nodes: Vec<_> = (0..RANKS)
                .map(|r| compute[(k * 5 + r * 3) % compute.len()])
                .collect();
            for &n in &nodes {
                c.listen(user, n, Proto::Tcp, port, None).unwrap();
            }
            let mut flows = Vec::new();
            for i in 0..RANKS {
                for j in i + 1..RANKS {
                    let (conn, _) = c
                        .connect(user, nodes[i], SocketAddr::new(nodes[j], port), Proto::Tcp)
                        .unwrap();
                    flows.push(conn);
                    judged.insert((nodes[j], user, user));
                }
            }
            for conn in flows {
                assert!(c.fabric.close(conn));
            }
        }
        (c, judged.len())
    });
    (bytes, judged)
}

/// What a wire-up tape leaves in the UBF plane (the cluster's heap with
/// the firewall minus the same cluster and tape without it) grows with the
/// identity pairs the daemons judged, at a small per-pair cost, and not
/// with the caches' configured bound.
#[test]
fn the_ubf_planes_heap_follows_the_pairs_it_judged() {
    let hosts = 65;
    // The FIFO alone, at the bound, holds one 16-byte key per entry.
    let per_host_bound = UBF_CACHE_CAPACITY * 16;
    for users in [2, 24] {
        let (with_ubf, judged) = wire_up(SeparationConfig::llsc(), users);
        let (without, _) = wire_up(SeparationConfig::llsc().without(Mechanism::Ubf), users);
        let ubf = with_ubf.saturating_sub(without);
        // Daemon, rules and stats per host (≈0.65 KiB), plus a cache entry
        // and its FIFO slot per judged pair (≈45 B at the tables' growth
        // slack).
        let bound = hosts * KIB + judged * 128;
        assert!(
            ubf <= bound,
            "{users} users: the UBF plane holds {ubf} B for {judged} judged pairs (bound {bound} B)"
        );
        assert!(
            ubf < hosts * per_host_bound / 8,
            "{users} users: the UBF plane holds {ubf} B, near the {} B that \
             reserving every cache's bound takes",
            hosts * per_host_bound
        );
    }
}
