//! K-input LUT mapping.

use alsrac_aig::{Aig, Node, NodeId};
use alsrac_truthtable::{CutEvaluator, Tt};

/// One mapped LUT.
#[derive(Clone, Debug)]
pub struct Lut {
    /// The AIG node this LUT implements (positive polarity).
    pub root: NodeId,
    /// Leaf nodes (LUT input signals), ascending.
    pub leaves: Vec<NodeId>,
    /// The LUT function over the leaves.
    pub tt: Tt,
}

/// A complete LUT covering of an AIG.
#[derive(Clone, Debug)]
pub struct LutMapping {
    luts: Vec<Lut>,
    depth: u32,
}

impl LutMapping {
    /// The LUTs, in topological order of their roots.
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// Number of LUTs (the FPGA area metric).
    pub fn num_luts(&self) -> usize {
        self.luts.len()
    }

    /// Depth of the LUT network (the FPGA delay metric).
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// Maps `aig` into `k`-input LUTs.
///
/// Depth-oriented: each node picks the cut minimizing mapped depth, with
/// area flow as the tie-breaker; the cover is then extracted from the
/// outputs so shared LUTs are counted once. Constant or input-driven
/// outputs need no LUT. This mirrors the cost model of ABC's `if -K k`
/// (without its iterative refinement passes).
///
/// # Panics
///
/// Panics if `k < 2` or `k > 6`: [`Aig::enumerate_cuts`] keeps cuts of at
/// most [`NodeSet::CAPACITY`](alsrac_aig::NodeSet::CAPACITY) leaves.
pub fn map_luts(aig: &Aig, k: usize) -> LutMapping {
    assert!(k >= 2, "LUT size must be at least 2");
    let cut_table = aig.enumerate_cuts(k, 12);
    let num = aig.num_nodes();
    // Best (depth, area_flow, cut index) per node.
    let mut best_depth = vec![0u32; num];
    let mut best_flow = vec![0.0f64; num];
    let mut best_cut: Vec<usize> = vec![0; num];
    let fanouts = aig.fanout_map();

    for id in aig.iter_nodes() {
        if !aig.node(id).is_and() {
            continue;
        }
        let i = id.index();
        let mut chosen: Option<(u32, f64, usize)> = None;
        for (c, cut) in cut_table.cuts(id).iter().enumerate() {
            let depth = 1 + cut.iter().map(|l| best_depth[l.index()]).max().unwrap_or(0);
            let flow: f64 = 1.0
                + cut
                    .iter()
                    .map(|l| best_flow[l.index()] / f64::from(fanouts.ref_count(*l).max(1)))
                    .sum::<f64>();
            if chosen.is_none_or(|(d, f, _)| (depth, flow) < (d, f)) {
                chosen = Some((depth, flow, c));
            }
        }
        let (d, f, c) = chosen.expect("every AND node has at least its fanin-pair cut");
        best_depth[i] = d;
        best_flow[i] = f;
        best_cut[i] = c;
    }

    // Extract the cover from the outputs.
    let mut needed = vec![false; num];
    let mut stack: Vec<NodeId> = Vec::new();
    for output in aig.outputs() {
        let n = output.lit.node();
        if aig.node(n).is_and() {
            stack.push(n);
        }
    }
    let mut luts = Vec::new();
    let mut eval = CutEvaluator::new();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut needed[id.index()], true) {
            continue;
        }
        let cut = &cut_table.cuts(id)[best_cut[id.index()]];
        let tt = eval
            .tt(aig, id.lit(), cut)
            .expect("enumerated cuts are valid cuts");
        for &leaf in cut.iter() {
            if aig.node(leaf).is_and() {
                stack.push(leaf);
            }
        }
        luts.push(Lut {
            root: id,
            leaves: cut.to_vec(),
            tt,
        });
    }
    luts.sort_by_key(|l| l.root);

    let depth = aig
        .outputs()
        .iter()
        .map(|o| best_depth[o.lit.node().index()])
        .max()
        .unwrap_or(0);
    LutMapping { luts, depth }
}

/// Evaluates a LUT mapping on a single input pattern — the reference
/// used to check covers against the original circuit.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the graph's input count.
pub fn evaluate_mapping(aig: &Aig, mapping: &LutMapping, inputs: &[bool]) -> Vec<bool> {
    assert_eq!(inputs.len(), aig.num_inputs(), "input arity mismatch");
    let mut values = vec![false; aig.num_nodes()];
    for (i, &input) in aig.inputs().iter().enumerate() {
        values[input.index()] = inputs[i];
    }
    //

    for lut in mapping.luts() {
        let mut pattern = 0usize;
        for (v, leaf) in lut.leaves.iter().enumerate() {
            if values[leaf.index()] {
                pattern |= 1 << v;
            }
        }
        values[lut.root.index()] = lut.tt.get(pattern);
    }
    aig.outputs()
        .iter()
        .map(|o| {
            let v = match aig.node(o.lit.node()) {
                Node::Const => false,
                _ => values[o.lit.node().index()],
            };
            v ^ o.lit.is_complement()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(aig: &Aig, k: usize) -> LutMapping {
        let mapping = map_luts(aig, k);
        let n = aig.num_inputs();
        assert!(n <= 12, "test helper is exhaustive");
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(
                evaluate_mapping(aig, &mapping, &bits),
                aig.evaluate(&bits),
                "pattern {p:b}"
            );
        }
        for lut in mapping.luts() {
            assert!(lut.leaves.len() <= k, "oversized LUT");
        }
        mapping
    }

    #[test]
    fn covers_adder_correctly() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(4);
        let m6 = check_cover(&aig, 6);
        let m4 = check_cover(&aig, 4);
        // Bigger LUTs never need more of them.
        assert!(m6.num_luts() <= m4.num_luts());
        assert!(m6.depth() <= m4.depth());
    }

    #[test]
    fn covers_various_circuits() {
        for aig in [
            alsrac_circuits::arith::alu(3),
            alsrac_circuits::arith::wallace_multiplier(3),
            alsrac_circuits::control::voter(7),
            alsrac_circuits::control::arbiter(5),
        ] {
            check_cover(&aig, 6);
        }
    }

    #[test]
    fn single_gate_circuit_is_one_lut() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y", x);
        let mapping = check_cover(&aig, 6);
        assert_eq!(mapping.num_luts(), 1);
        assert_eq!(mapping.depth(), 1);
    }

    #[test]
    fn constant_and_wire_outputs_need_no_lut() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("w", !a);
        aig.add_output("k", alsrac_aig::Lit::TRUE);
        let mapping = check_cover(&aig, 6);
        assert_eq!(mapping.num_luts(), 0);
        assert_eq!(mapping.depth(), 0);
    }

    #[test]
    fn depth_matches_longest_lut_chain() {
        // A 12-input AND tree in 6-LUTs: 2 levels.
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 12);
        let root = aig.and_all(&xs);
        aig.add_output("y", root);
        let mapping = check_cover(&aig, 6);
        assert_eq!(mapping.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "limit of 6 leaves")]
    fn luts_over_six_inputs_panic() {
        map_luts(&alsrac_circuits::arith::ripple_carry_adder(4), 7);
    }

    #[test]
    fn shared_logic_counted_once() {
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 6);
        let shared = aig.and_all(&xs);
        aig.add_output("y1", shared);
        aig.add_output("y2", !shared);
        let mapping = check_cover(&aig, 6);
        assert_eq!(mapping.num_luts(), 1);
    }
}
