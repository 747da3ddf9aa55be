//! Pins the allocation contract of `balance`: the per-tree leaf list,
//! walk stack and heap are reused across nodes, so a pass allocates for
//! the graphs it builds (node tables, strash maps, the fanout map, names),
//! not once or more per AND node.
//!
//! Same counting-allocator pattern as `alsrac-aig`'s `cut_alloc` test, in
//! its own test binary so no other test allocates while this one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
use alsrac_synth::balance;

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

/// The ANDs of a random network with 16 inputs and 8 outputs, and the
/// allocations of one `balance` pass over it.
fn one_pass(num_gates: usize) -> (usize, u64) {
    let aig = random_network(&RandomNetworkConfig {
        num_inputs: 16,
        num_outputs: 8,
        num_gates,
        locality: 64,
        seed: 5,
    });
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let balanced = balance(&aig);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(balanced.num_outputs(), 8);
    (aig.num_ands(), allocations)
}

#[test]
fn a_balance_pass_allocates_per_graph_not_per_node() {
    let (small_ands, small) = one_pass(500);
    let (big_ands, big) = one_pass(4000);
    assert!(
        big_ands > 4 * small_ands,
        "{small_ands} and {big_ands} ANDs"
    );
    // Growing arrays double, so eight times the nodes may cost a few more
    // reallocations per growing array, and nothing per node.
    assert!(
        big <= small + 24,
        "{small_ands} ANDs: {small} allocations; {big_ands} ANDs: {big}"
    );
}
