//! AND-tree balancing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alsrac_aig::{Aig, Lit, Node, NodeId};

/// Rebuilds the graph with every single-fanout conjunction chain
/// re-associated into a minimum-height tree (ABC's `balance`).
///
/// Shared nodes (reference count > 1) are kept as tree leaves so no logic
/// is duplicated; the result is functionally equivalent and never deeper
/// than the input.
pub fn balance(aig: &Aig) -> Aig {
    let fanouts = aig.fanout_map();
    let mut out = Aig::new(aig.name().to_string());
    // map[node] = balanced literal in `out`.
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    map[NodeId::CONST.index()] = Some(Lit::FALSE);
    for (pos, &input) in aig.inputs().iter().enumerate() {
        map[input.index()] = Some(out.add_input(aig.input_name(pos).to_string()));
    }
    // Logic level of every node of `out`, grown as nodes are appended.
    let mut levels = vec![0u32; out.num_nodes()];
    // Per-tree buffers, reused across nodes.
    let mut leaves: Vec<Lit> = Vec::new();
    let mut stack: Vec<Lit> = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();

    // Process AND nodes in topological order; node ids are already
    // topological.
    for id in aig.iter_ands() {
        if map[id.index()].is_some() {
            continue;
        }
        // Collect the conjunction leaves of the chain rooted at `id`,
        // walking through non-complemented, single-reference AND children.
        leaves.clear();
        stack.push(id.lit());
        while let Some(lit) = stack.pop() {
            let expandable = !lit.is_complement()
                && aig.node(lit.node()).is_and()
                && (lit.node() == id || fanouts.ref_count(lit.node()) == 1);
            if expandable {
                let [f0, f1] = aig.and_fanins(lit.node());
                stack.push(f0);
                stack.push(f1);
            } else {
                leaves.push(lit);
            }
        }
        // Map leaves into the new graph. The heap is keyed by an upper
        // bound on each term's level (exact for fresh nodes; constant folds
        // and strash hits can only be shallower).
        heap.clear();
        heap.extend(leaves.iter().map(|&l| {
            let mapped = map[l.node().index()]
                .expect("leaf processed before (topological order)")
                .complement_if(l.is_complement());
            Reverse((levels[mapped.node().index()], mapped.raw()))
        }));
        // Huffman-style: repeatedly combine the two shallowest terms.
        while heap.len() > 1 {
            let Reverse((la, a_raw)) = heap.pop().expect("len > 1");
            let Reverse((lb, b_raw)) = heap.pop().expect("len > 1");
            let combined = out.and(Lit::from_raw(a_raw), Lit::from_raw(b_raw));
            if levels.len() < out.num_nodes() {
                let [f0, f1] = out.and_fanins(combined.node());
                levels.push(1 + levels[f0.node().index()].max(levels[f1.node().index()]));
            }
            heap.push(Reverse((la.max(lb) + 1, combined.raw())));
        }
        let root = heap
            .pop()
            .map(|Reverse((_, raw))| Lit::from_raw(raw))
            .unwrap_or(Lit::TRUE);
        map[id.index()] = Some(root);
    }

    for output in aig.outputs() {
        let mapped = match *aig.node(output.lit.node()) {
            Node::Const => Lit::FALSE,
            _ => map[output.lit.node().index()].expect("cone mapped"),
        };
        out.add_output(
            output.name.clone(),
            mapped.complement_if(output.lit.is_complement()),
        );
    }
    debug_assert_eq!(levels, out.levels(), "incremental levels drifted");
    out.cleaned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equivalent(a: &Aig, b: &Aig) {
        assert_eq!(a.num_inputs(), b.num_inputs());
        let n = a.num_inputs();
        assert!(n <= 12, "use sampled check for wide circuits");
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p:b}");
        }
    }

    #[test]
    fn flattens_linear_chain() {
        let mut aig = Aig::new("chain");
        let xs = aig.add_inputs("x", 8);
        // Deliberately skewed chain: depth 7.
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.and(acc, x);
        }
        aig.add_output("y", acc);
        assert_eq!(aig.depth(), 7);
        let balanced = balance(&aig);
        assert_eq!(balanced.depth(), 3);
        assert_equivalent(&aig, &balanced);
    }

    #[test]
    fn keeps_shared_subtrees() {
        let mut aig = Aig::new("shared");
        let xs = aig.add_inputs("x", 4);
        let shared = aig.and(xs[0], xs[1]);
        let left = aig.and(shared, xs[2]);
        let right = aig.and(shared, xs[3]);
        aig.add_output("l", left);
        aig.add_output("r", right);
        let balanced = balance(&aig);
        assert_equivalent(&aig, &balanced);
        // Sharing preserved: still 3 ANDs, not 4.
        assert_eq!(balanced.num_ands(), 3);
    }

    #[test]
    fn handles_complemented_chains() {
        let mut aig = Aig::new("or_chain");
        let xs = aig.add_inputs("x", 8);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.or(acc, x); // complemented internally
        }
        aig.add_output("y", acc);
        let balanced = balance(&aig);
        assert!(balanced.depth() <= aig.depth());
        assert_equivalent(&aig, &balanced);
    }

    #[test]
    fn constant_outputs_survive() {
        let mut aig = Aig::new("c");
        let _x = aig.add_input("x");
        aig.add_output("zero", Lit::FALSE);
        aig.add_output("one", Lit::TRUE);
        let balanced = balance(&aig);
        assert_eq!(balanced.evaluate(&[false]), vec![false, true]);
    }

    #[test]
    fn idempotent_on_balanced_tree() {
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 8);
        let root = aig.and_all(&xs);
        aig.add_output("y", root);
        let once = balance(&aig);
        let twice = balance(&once);
        assert_eq!(once.num_ands(), twice.num_ands());
        assert_eq!(once.depth(), twice.depth());
    }

    #[test]
    fn never_increases_depth_on_structured_circuits() {
        for aig in [
            alsrac_circuits::arith::ripple_carry_adder(5),
            alsrac_circuits::arith::wallace_multiplier(3),
            alsrac_circuits::arith::alu(3),
        ] {
            let balanced = balance(&aig);
            assert!(
                balanced.depth() <= aig.depth(),
                "{}: {} -> {}",
                aig.name(),
                aig.depth(),
                balanced.depth()
            );
            assert_equivalent(&aig, &balanced);
        }
    }
}
