//! Pins the allocation contract of `map_cells`: a cut is matched against
//! the library by its (variable count, word) key, with no truth table
//! built per cut, and placed signals are marked in a flat per-node array.
//! So a mapping allocates per placed cell (its name, pins and table), not
//! per cut.
//!
//! Same counting-allocator pattern as `alsrac-aig`'s `cut_alloc` test:
//! `GlobalAlloc` needs `unsafe`, which the library crates forbid, so a
//! test binary is the only place the count is observable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alsrac_circuits::arith::array_multiplier;
use alsrac_map::cell::{map_cells, Library};

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
fn cell_mapping_allocates_per_placed_cell_not_per_cut() {
    // The 8x8 array multiplier: 528 ANDs, thousands of 4-feasible cuts.
    let aig = array_multiplier(8);
    let library = Library::mcnc();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mapping = map_cells(&aig, &library);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let cells = mapping.cells.len() as u64;
    assert!(cells > 100, "only {cells} cells placed");
    assert!(
        allocations <= 4 * cells + 64,
        "mapping onto {cells} cells allocated {allocations} times"
    );
}
