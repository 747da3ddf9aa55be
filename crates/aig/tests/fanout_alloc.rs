//! Pins the allocation contract of the fanout map: every node's fanouts
//! sit in one flat array with per-node offsets, so building the map costs
//! a constant handful of allocations, not one per node. `balance`,
//! `rewrite` and `refactor` each build a map per pass, and the flow one
//! per accepted change.
//!
//! Same counting-allocator pattern as `cut_alloc.rs`, in its own test
//! binary so no other test allocates while this one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alsrac_circuits::arith::array_multiplier;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn fanout_map_allocates_per_map_not_per_node() {
    // The 8x8 array multiplier: 545 nodes.
    let aig = array_multiplier(8);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let fanouts = aig.fanout_map();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let edges: usize = aig.iter_nodes().map(|id| fanouts.fanouts(id).len()).sum();
    assert!(edges > 1000, "only {edges} fanout edges");
    assert!(
        allocations <= 8,
        "a fanout map of {} nodes allocated {allocations} times",
        aig.num_nodes()
    );
}
