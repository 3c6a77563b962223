//! Allocation budget of the G-FIB bank's per-packet and re-advertisement
//! paths.
//!
//! A counting global allocator over `System` counts every heap allocation
//! the test's own thread makes, so the harness's other threads cannot
//! charge the code being measured. The file holds a single test so no
//! other test's allocations land in the count.
//!
//! A query runs on every fresh ARP and every first packet that misses the
//! L-FIB: it must probe the bank without allocating once the caller's
//! scratch has room. A peer re-advertising its filter under the same
//! geometry must overwrite the words it already holds in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lazyctrl_net::{MacAddr, SwitchId};
use lazyctrl_switch::{build_gfib_update, Gfib};

thread_local! {
    /// Heap allocations (and reallocations) made by this thread so far.
    /// Const-initialised and without a destructor, so reading it never
    /// allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread.
fn count() {
    // Fails only while the thread's locals are torn down, after the test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocated() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator with `layout`, and `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract: `ptr` came from
        // this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PEERS: u32 = 40;
/// A bank past two of the query's 64-filter chunks.
const MANY_PEERS: u32 = 130;
const HOSTS_PER_PEER: u64 = 24;
const QUERIES: u64 = 10_000;

/// Allocations `f` makes.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = allocated();
    f();
    allocated() - before
}

/// The hosts `peer` advertises, `shift` places on.
fn hosts(peer: u32, shift: u64) -> impl Iterator<Item = MacAddr> {
    let first = peer as u64 * HOSTS_PER_PEER + shift;
    (first..first + HOSTS_PER_PEER).map(MacAddr::for_host)
}

/// A bank of `peers` filters.
fn bank(peers: u32) -> Gfib {
    let mut gfib = Gfib::new();
    for peer in 0..peers {
        assert!(gfib.apply_update(&build_gfib_update(SwitchId::new(peer), 1, hosts(peer, 0))));
    }
    assert_eq!(gfib.num_peers(), peers as usize);
    gfib
}

/// Queries `gfib` for members of every filter and addresses no peer
/// holds, into a scratch with room for every peer: nothing allocates.
fn queries_do_not_allocate(gfib: &Gfib) {
    let mut scratch = Vec::with_capacity(gfib.num_peers());
    let mut claimed = 0;
    let queries = allocations(|| {
        for i in 0..QUERIES {
            scratch.clear();
            gfib.query_into(MacAddr::for_host(i % 5_000), &mut scratch);
            claimed += scratch.len();
        }
    });
    assert_eq!(
        queries,
        0,
        "{QUERIES} queries of {} peers allocated {queries} times",
        gfib.num_peers()
    );
    let members = gfib.num_peers() as u64 * HOSTS_PER_PEER;
    let member_queries = (0..QUERIES).filter(|i| i % 5_000 < members).count();
    assert!(claimed >= member_queries);
}

#[test]
fn gfib_queries_and_same_width_updates_do_not_allocate() {
    let mut gfib = bank(PEERS);
    queries_do_not_allocate(&gfib);
    queries_do_not_allocate(&bank(MANY_PEERS));

    // A re-advertisement under the same geometry: same host count, so the
    // same width, different contents.
    let peer = SwitchId::new(PEERS / 2);
    let moved = build_gfib_update(peer, 2, hosts(PEERS / 2, HOSTS_PER_PEER / 2));
    let bytes = gfib.storage_bytes();
    let update = allocations(|| assert!(gfib.apply_update(&moved)));
    assert_eq!(
        update, 0,
        "a same-width G-FIB update allocated {update} times"
    );
    assert_eq!(gfib.storage_bytes(), bytes);
    let mut scratch = Vec::new();
    gfib.query_into(
        MacAddr::for_host((PEERS / 2) as u64 * HOSTS_PER_PEER + HOSTS_PER_PEER),
        &mut scratch,
    );
    assert!(scratch.contains(&peer), "the update did not land");
}
