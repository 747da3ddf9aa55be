//! Pins the allocation contract of the scratch flip propagation. After one
//! warm-up pass has sized the row stack, the epoch stamps and the frontier
//! buckets, repeated [`InfluenceScratch::propagate`] calls on the same
//! graph must not allocate at all. The flow calls this once per (node,
//! iteration) — it is the estimation stage's inner loop — so a hidden
//! per-call allocation would silently dominate small-word workloads. And a
//! fresh scratch stores flipped rows only for the nodes a flip reaches, so
//! a flip that reaches nothing costs the per-node stamps, not a row per
//! node.
//!
//! Same counting-allocator pattern as `alsrac-rt`'s `trace_disabled`
//! test: `GlobalAlloc` needs `unsafe`, which the library crates forbid,
//! so a test binary is the only place "allocates nothing" is observable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alsrac_aig::{Aig, NodeId};
use alsrac_circuits::arith;
use alsrac_sim::{InfluenceScratch, PatternBuffer, Simulation};

thread_local! {
    /// Allocations and requested bytes of this thread, so the tests of this
    /// binary, which run concurrently, count only their own.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation of `bytes` on the calling thread.
fn count(bytes: usize) {
    ALLOCATIONS.with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

/// This thread's allocation count and requested bytes so far.
fn allocated() -> (u64, u64) {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Pairwise reduction tree over `layer`, alternating XOR and AND levels
/// so the result is multi-level and reconvergent with the parity output.
fn reduce(aig: &mut Aig, layer: &[alsrac_aig::Lit]) -> alsrac_aig::Lit {
    let mut layer = layer.to_vec();
    let mut use_and = false;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(match *pair {
                [a, b] if use_and => aig.and(a, b),
                [a, b] => aig.xor(a, b),
                [a] => a,
                _ => unreachable!("chunks(2)"),
            });
        }
        use_and = !use_and;
        layer = next;
    }
    layer[0]
}

/// A reconvergent multi-level circuit: an alternating XOR/AND reduction
/// tree plus a full parity chain over the same 16 inputs, so propagations
/// traverse real fanout fans and shared subtrees.
fn build_circuit() -> Aig {
    let mut aig = Aig::new("alloc_probe");
    let inputs = aig.add_inputs("x", 16);
    let tree = reduce(&mut aig, &inputs);
    aig.add_output("y", tree);
    let parity = aig.xor_all(&inputs);
    aig.add_output("p", parity);
    aig
}

#[test]
fn steady_state_propagation_allocates_nothing() {
    let aig = build_circuit();
    let patterns = PatternBuffer::random(aig.num_inputs(), 256, 7);
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    let lanes = vec![u64::MAX; sim.num_words()];
    let mut scratch = InfluenceScratch::new();

    // Warm-up: one full pass over every node sizes the epoch stamps and
    // frontier buckets for this graph and grows the row stack to the
    // widest flip (the stack keeps its rows across propagations).
    for raw in 0..aig.num_nodes() {
        scratch.propagate(&aig, &sim, &fanouts, NodeId::new(raw), &lanes);
    }

    let (before, _) = allocated();
    let mut visited_total = 0usize;
    for _round in 0..5 {
        for raw in 0..aig.num_nodes() {
            visited_total += scratch.propagate(&aig, &sim, &fanouts, NodeId::new(raw), &lanes);
        }
    }
    let (after, _) = allocated();

    assert!(visited_total > 0, "propagations visited no nodes");
    assert_eq!(
        after - before,
        0,
        "steady-state flip propagation allocated {} times",
        after - before
    );
}

#[test]
fn a_fresh_scratch_holds_rows_only_for_dirty_nodes() {
    // 2,336 ANDs at 128 words: a row per node would be about 2.4 MB.
    let aig = arith::array_multiplier(16);
    let patterns = PatternBuffer::random(aig.num_inputs(), 128 * 64, 3);
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    let lanes = vec![u64::MAX; sim.num_words()];
    // An output driver nothing reads: the flip turns the root dirty and
    // visits no other node.
    let root = aig
        .outputs()
        .iter()
        .map(|output| output.lit.node())
        .find(|&node| aig.node(node).is_and() && fanouts.fanouts(node).is_empty())
        .expect("a multiplier's top product bits drive no AND");
    let mut scratch = InfluenceScratch::new();

    let (_, before) = allocated();
    let visited = scratch.propagate(&aig, &sim, &fanouts, root, &lanes);
    let (_, after) = allocated();

    assert_eq!(
        visited, 1,
        "the flip of a fanout-free driver visits its root"
    );
    assert!(scratch.is_dirty(root));
    let u32_bytes = std::mem::size_of::<u32>();
    let stamps = 4 * u32_bytes * aig.num_nodes();
    let buckets = u32_bytes * fanouts.num_levels() as usize;
    let two_rows = 2 * sim.num_words() * std::mem::size_of::<u64>();
    let bound = (stamps + buckets + two_rows) as u64;
    assert!(
        after - before < bound,
        "a fresh propagation allocated {} bytes, bound {bound}",
        after - before
    );
}
