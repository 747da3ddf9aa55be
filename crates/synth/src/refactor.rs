//! Large-cone refactoring.
//!
//! Rewriting works on 4-feasible cuts; refactoring attacks larger
//! structures: for each node whose maximum fanout-free cone (MFFC) is big
//! enough, the whole cone is collapsed to a truth table over its leaves and
//! re-synthesized as the factored form of its ISOP, substituted when smaller
//! (ABC's `refactor`). Recipes come from the [`Optimizer`]'s cache, shared
//! with `rewrite`.

use alsrac_aig::{Aig, MffcScratch, Node, NodeId};
use alsrac_truthtable::{CutEvaluator, Sop};

use crate::optimizer::substitute;
use crate::Optimizer;

/// Only refactor nodes whose MFFC has at least this many nodes.
const MIN_CONE: usize = 3;

/// Skip cones with more than this many leaves (truth-table width).
const MAX_LEAVES: usize = 10;

/// Options for [`refactor`].
#[derive(Clone, Debug, Default)]
pub struct RefactorConfig {
    /// Accept replacements with zero gain.
    pub zero_gain: bool,
}

/// One refactoring pass with a fresh recipe cache. Returns the refactored
/// (and swept) graph; the result is functionally equivalent to the input.
/// Same as [`Optimizer::refactor`].
pub fn refactor(aig: &Aig, config: &RefactorConfig) -> Aig {
    Optimizer::new().refactor(aig, config)
}

impl Optimizer {
    /// One refactoring pass, reusing this optimizer's recipes. Returns the
    /// refactored (and swept) graph; the result is functionally equivalent
    /// to the input.
    pub fn refactor(&mut self, aig: &Aig, config: &RefactorConfig) -> Aig {
        let fanouts = aig.fanout_map();
        // Decisions are collected first and materialized after the scan, so
        // the fanout map and MFFC queries always see the unmodified graph.
        let mut pending: Vec<(NodeId, Sop, bool, Vec<NodeId>)> = Vec::new();
        let mut claimed = vec![false; aig.num_nodes()];
        let mut scratch = MffcScratch::new();
        let mut eval = CutEvaluator::new();
        // `in_mffc[i] == stamp`: node `i` is in the MFFC of the node with
        // that stamp.
        let mut in_mffc = vec![0u32; aig.num_nodes()];
        let mut leaves: Vec<NodeId> = Vec::new();

        // Visit large nodes first (reverse topological order) so enclosing
        // cones get priority over their sub-cones.
        for (stamp, id) in (1u32..).zip(aig.iter_ands().rev()) {
            if claimed[id.index()] {
                continue;
            }
            let mffc = aig.mffc_with(id, &fanouts, &mut scratch);
            if mffc.len() < MIN_CONE || mffc.iter().any(|n| claimed[n.index()]) {
                continue;
            }
            // Leaves: fanins of MFFC members that are not themselves members.
            for &n in mffc {
                in_mffc[n.index()] = stamp;
            }
            leaves.clear();
            for &n in mffc {
                if let Node::And { f0, f1 } = *aig.node(n) {
                    for fanin in [f0.node(), f1.node()] {
                        if in_mffc[fanin.index()] != stamp
                            && fanin != NodeId::CONST
                            && !leaves.contains(&fanin)
                        {
                            leaves.push(fanin);
                        }
                    }
                }
            }
            if leaves.len() > MAX_LEAVES || leaves.is_empty() {
                continue;
            }
            leaves.sort_unstable();
            let Some(tt) = eval.tt(aig, id.lit(), &leaves) else {
                continue;
            };
            let recipe = self.recipe(&tt);
            let gain = mffc.len() as isize - recipe.cost as isize;
            if gain > 0 || (config.zero_gain && gain == 0) {
                for &n in mffc {
                    claimed[n.index()] = true;
                }
                pending.push((
                    id,
                    recipe.cover.clone(),
                    recipe.complemented,
                    leaves.clone(),
                ));
            }
        }

        substitute(aig, pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equivalent(a: &Aig, b: &Aig) {
        let n = a.num_inputs();
        assert_eq!(n, b.num_inputs());
        assert!(n <= 12);
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p:b}");
        }
    }

    #[test]
    fn collapses_redundant_cone() {
        // f = (a & b) | (a & !b) == a, built wastefully.
        let mut aig = Aig::new("waste");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, !b);
        let f = aig.or(t1, t2);
        let g = aig.and(f, c);
        aig.add_output("y", g);
        let refactored = refactor(&aig, &RefactorConfig::default());
        assert_equivalent(&aig, &refactored);
        assert!(
            refactored.num_ands() < aig.num_ands(),
            "{} -> {}",
            aig.num_ands(),
            refactored.num_ands()
        );
    }

    #[test]
    fn preserves_function_on_benchmarks() {
        for aig in [
            alsrac_circuits::arith::carry_lookahead_adder(4),
            alsrac_circuits::arith::alu(3),
            alsrac_circuits::control::voter(7),
            alsrac_circuits::catalog::ecc_network(6, 3),
        ] {
            let refactored = refactor(&aig, &RefactorConfig::default());
            assert_equivalent(&aig, &refactored);
        }
    }

    #[test]
    fn random_networks_survive_refactoring() {
        for seed in 0..6 {
            let aig = alsrac_circuits::random_logic::random_network(
                &alsrac_circuits::random_logic::RandomNetworkConfig {
                    num_inputs: 9,
                    num_outputs: 3,
                    num_gates: 70,
                    locality: 16,
                    seed: seed + 100,
                },
            );
            let refactored = refactor(&aig, &RefactorConfig::default());
            assert_equivalent(&aig, &refactored);
        }
    }
}
