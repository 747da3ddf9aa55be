//! Pins the allocation contract of `Aig::mffc_with`: the scratch keeps the
//! member list and the walk stack as well as the reference-count deltas,
//! so once it has grown to the graph, a query allocates nothing.
//! `refactor` and LAC generation query the MFFC of every AND node.
//!
//! Same counting-allocator pattern as `cut_alloc.rs`: `GlobalAlloc` needs
//! `unsafe`, which the library crates forbid, so a test binary is the
//! only place the count is observable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alsrac_aig::MffcScratch;
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
fn a_warm_mffc_sweep_allocates_nothing() {
    // The 8x8 array multiplier: 528 ANDs.
    let aig = array_multiplier(8);
    let fanouts = aig.fanout_map();
    let mut scratch = MffcScratch::new();
    let mut sweep = || -> usize {
        aig.iter_ands()
            .map(|id| aig.mffc_with(id, &fanouts, &mut scratch).len())
            .sum()
    };
    let warm = sweep();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let members = sweep();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(members, warm);
    assert!(members > aig.num_ands(), "only {members} MFFC members");
    assert_eq!(
        allocations,
        0,
        "a warm sweep of {} MFFCs allocated {allocations} times",
        aig.num_ands()
    );
}
