//! Pins the allocation contract of cut enumeration: the cut table is one
//! flat array of inline node sets plus per-node offsets, and the merge
//! buffer is reused across nodes, so enumerating every cut of a graph
//! costs a handful of allocations (the arrays' growth), not one per cut.
//! `rewrite` enumerates cuts four times per `optimize`, and both mappers
//! start from the enumeration.
//!
//! Same counting-allocator pattern as `alsrac-sim`'s `influence_alloc`
//! test: `GlobalAlloc` needs `unsafe`, which the library crates forbid, so
//! a test binary is the only place the count is observable.

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
fn enumeration_allocates_per_table_not_per_cut() {
    // The 8x8 array multiplier: 528 ANDs, about 5,000 kept cuts at the
    // LUT mapper's sizes.
    let aig = array_multiplier(8);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let table = aig.enumerate_cuts(6, 12);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let kept: usize = aig.iter_ands().map(|id| table.cuts(id).len()).sum();
    assert!(kept > 1000, "only {kept} cuts kept");
    assert!(
        allocations < 64,
        "enumerating {kept} cuts allocated {allocations} times"
    );
}
