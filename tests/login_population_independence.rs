//! A login is a per-event cost: what `portal_login` + `ssh` (and the two
//! logouts) allocate for one user must not depend on how many *other*
//! accounts the cluster holds. Measured in bytes through a counting global
//! allocator — deterministic, no stopwatch. A whole-`UserDb` copy per login
//! (what these paths did before they borrowed the db under its read guard)
//! allocates in proportion to the population and fails this by ~100x.

use hpc_user_separation::{ClusterSpec, SecureCluster, SeparationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread (per-thread, so the libtest harness
    /// and any other test thread cannot perturb the count).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // try_with: the slot may be gone during thread teardown.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local `Cell` bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Login round trips measured per cluster, so a one-off container growth
/// (a B-tree node split) cannot decide the comparison.
const ROUNDS: usize = 8;

/// Bytes allocated by `ROUNDS` × (`portal_login` + `ssh` + both logouts)
/// for one user of an `llsc()` cluster holding `users` accounts.
fn login_bytes(users: usize) -> u64 {
    let mut c = SecureCluster::new(SeparationConfig::llsc(), ClusterSpec::default());
    let uids: Vec<_> = (0..users)
        .map(|i| c.add_user(&format!("u{i}")).unwrap())
        .collect();
    let user = uids[users / 2];
    let login = c.login_node();
    let before = BYTES.with(Cell::get);
    for _ in 0..ROUNDS {
        let token = c.portal_login(user).expect("portal login");
        let sid = c.ssh(user, login).expect("ssh to the login node");
        assert!(c.node_mut(login).logout(sid));
        assert!(c.portal.auth.logout(token));
    }
    BYTES.with(Cell::get) - before
}

#[test]
fn login_allocation_does_not_grow_with_the_population() {
    let small = login_bytes(50);
    let large = login_bytes(5_000);
    assert!(small > 0, "the counting allocator is not installed");
    let diff = small.abs_diff(large) as f64 / small as f64;
    assert!(
        diff < 0.10,
        "login allocates {small} B at 50 users but {large} B at 5000 ({:.1} % apart): \
         a login must not pay for the other accounts",
        diff * 100.0
    );
}
