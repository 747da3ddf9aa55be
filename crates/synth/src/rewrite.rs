//! Cut-based rewriting.
//!
//! For every AND node, enumerate its 4-feasible cuts, derive each cut's
//! truth table, re-synthesize the function as the factored form of its ISOP,
//! and substitute when the replacement is smaller than the logic it frees
//! (the node's MFFC restricted to the cut cone). Replacement recipes are
//! memoized per truth table by the [`Optimizer`] running the pass — across
//! every pass of a run when the run holds one optimizer — and shared with
//! `refactor`, playing the role of ABC's precomputed NPN library.
//!
//! A cut is evaluated over a scratch that lives for the pass
//! ([`CutScratch`]): a [`CutEvaluator`] gives the truth table as one word
//! and the cone's interior, and the cut-local MFFC falls out of one
//! reverse-topological sweep of that interior.

use alsrac_aig::{Aig, FanoutMap, NodeId, NodeSet};
use alsrac_truthtable::{CutEvaluator, Sop};

use crate::optimizer::substitute;
use crate::Optimizer;

/// Cut size, as in ABC's `rewrite`. The word-level cut evaluation covers
/// at most 6 leaves.
const CUT_SIZE: usize = 4;

/// Cuts kept per node during enumeration.
const MAX_CUTS: usize = 8;

/// Options for [`rewrite`].
#[derive(Clone, Debug, Default)]
pub struct RewriteConfig {
    /// Accept replacements with zero gain (ABC's `rewrite -z`); useful for
    /// escaping local minima between passes.
    pub zero_gain: bool,
}

/// One rewriting pass over the graph with a fresh recipe cache. Returns
/// the rewritten (and swept) graph; the result is functionally equivalent
/// to the input. Same as [`Optimizer::rewrite`].
pub fn rewrite(aig: &Aig, config: &RewriteConfig) -> Aig {
    Optimizer::new().rewrite(aig, config)
}

impl Optimizer {
    /// One rewriting pass over the graph, reusing this optimizer's recipes.
    /// Returns the rewritten (and swept) graph; the result is functionally
    /// equivalent to the input.
    pub fn rewrite(&mut self, aig: &Aig, config: &RewriteConfig) -> Aig {
        let cut_table = aig.enumerate_cuts(CUT_SIZE, MAX_CUTS);
        let fanouts = aig.fanout_map();
        let mut scratch = CutScratch::new(aig);
        // Decisions are collected first and materialized after the scan, so
        // cut/fanout/MFFC queries always see the unmodified graph.
        let mut pending: Vec<(NodeId, Sop, bool, NodeSet)> = Vec::new();
        // Nodes already freed by an accepted substitution this pass: their
        // savings must not be double-counted by enclosing cones.
        let mut claimed = vec![false; aig.num_nodes()];
        let mut best_mffc: Vec<NodeId> = Vec::new();

        for id in aig.iter_ands() {
            if claimed[id.index()] {
                continue;
            }
            let mut best: Option<(isize, NodeSet, u64)> = None;
            for &cut in cut_table.cuts(id) {
                if cut.len() < 2 {
                    continue;
                }
                let Some(bits) = scratch.evaluate(aig, &fanouts, id, &cut) else {
                    continue;
                };
                // Savings: interior nodes of the cone that are referenced
                // only from inside it (the cut-local MFFC), none already
                // claimed.
                if scratch.mffc.iter().any(|n| claimed[n.index()]) {
                    continue;
                }
                let saved = scratch.mffc.len() as isize;
                let gain = saved - self.word_recipe(cut.len(), bits).cost as isize;
                let acceptable = gain > 0 || (config.zero_gain && gain == 0);
                if acceptable && best.is_none_or(|(g, ..)| gain > g) {
                    best = Some((gain, cut, bits));
                    best_mffc.clone_from(&scratch.mffc);
                }
            }
            if let Some((_gain, cut, bits)) = best {
                // Claim the freed nodes so overlapping cones don't recount
                // them.
                for n in &best_mffc {
                    claimed[n.index()] = true;
                }
                let recipe = self.word_recipe(cut.len(), bits);
                pending.push((id, recipe.cover.clone(), recipe.complemented, cut));
            }
        }
        substitute(aig, pending)
    }
}

/// Scratch for evaluating the cuts of one pass without allocating: the
/// cut function comes from a [`CutEvaluator`], and the cut-local MFFC from
/// epoch-stamped per-node marks (the [`alsrac_aig::MffcScratch`] idiom),
/// so each cut costs time proportional to its cone, not the graph.
struct CutScratch {
    eval: CutEvaluator,
    /// `freed[i] == epoch`: node `i` dangles once the root is replaced.
    freed: Vec<u32>,
    epoch: u32,
    /// Whether each node drives a primary output, which keeps it alive.
    drives_output: Vec<bool>,
    /// The current cut's MFFC: the interior nodes that dangle once the
    /// root is replaced, ascending.
    mffc: Vec<NodeId>,
}

impl CutScratch {
    fn new(aig: &Aig) -> CutScratch {
        let n = aig.num_nodes();
        let mut drives_output = vec![false; n];
        for output in aig.outputs() {
            drives_output[output.lit.node().index()] = true;
        }
        CutScratch {
            eval: CutEvaluator::new(),
            freed: vec![0; n],
            epoch: 0,
            drives_output,
            mffc: Vec::new(),
        }
    }

    /// Evaluates the cut `leaves` of `root`: returns the cut's truth table
    /// as [`CutEvaluator::word`] does and leaves the cut-local MFFC in
    /// `self.mffc`. `None` when `leaves` is not a cut of `root`.
    fn evaluate(
        &mut self,
        aig: &Aig,
        fanouts: &FanoutMap,
        root: NodeId,
        leaves: &[NodeId],
    ) -> Option<u64> {
        let bits = self.eval.word(aig, root.lit(), leaves)?;
        if self.epoch == u32::MAX {
            self.freed.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        // Fanouts come after their fanins, so one reverse-topological sweep
        // decides every interior node after all of its consumers.
        self.mffc.clear();
        for &n in self.eval.interior().iter().rev() {
            let is_freed = n == root
                || (!self.drives_output[n.index()]
                    && fanouts
                        .fanouts(n)
                        .iter()
                        .all(|f| self.freed[f.index()] == epoch));
            if is_freed {
                self.freed[n.index()] = epoch;
                self.mffc.push(n);
            }
        }
        self.mffc.reverse();
        Some(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_circuits::catalog::{self, Scale};
    use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};

    /// The per-cut evaluation of a pass-long [`CutScratch`], by its
    /// definition: the truth table and interior from a fresh
    /// [`CutEvaluator`] (whose tables `tests/equivalence_props.rs` pins to
    /// exhaustive simulation), and the cut-local MFFC by
    /// [`cut_local_mffc`]'s fixed point.
    fn oracle(
        aig: &Aig,
        fanouts: &FanoutMap,
        root: NodeId,
        leaves: &[NodeId],
    ) -> Option<(u64, Vec<NodeId>)> {
        let mut eval = CutEvaluator::new();
        let bits = eval.word(aig, root.lit(), leaves)?;
        Some((bits, cut_local_mffc(aig, root, eval.interior(), fanouts)))
    }

    /// The nodes of `interior` (a cone of `root`) that become dangling when
    /// the root is replaced: every reference to them comes from inside the
    /// cone.
    fn cut_local_mffc(
        aig: &Aig,
        root: NodeId,
        interior: &[NodeId],
        fanouts: &FanoutMap,
    ) -> Vec<NodeId> {
        // Iterate to a fixed point: a node is freed if it is the root or all
        // of its fanouts are freed cone members (and it drives no output).
        let mut freed = vec![false; aig.num_nodes()];
        freed[root.index()] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for &n in interior.iter().rev() {
                if freed[n.index()] || n == root {
                    continue;
                }
                let all_consumers_freed = fanouts.fanouts(n).iter().all(|f| freed[f.index()])
                    && fanouts.ref_count(n)
                        == fanouts
                            .fanouts(n)
                            .iter()
                            .map(|f| {
                                let [f0, f1] = aig.and_fanins(*f);
                                (f0.node() == n) as u32 + (f1.node() == n) as u32
                            })
                            .sum::<u32>();
                if all_consumers_freed {
                    freed[n.index()] = true;
                    changed = true;
                }
            }
        }
        interior
            .iter()
            .copied()
            .filter(|n| freed[n.index()])
            .collect()
    }

    /// Every enumerated cut of every AND node, and each cut with one leaf
    /// dropped (usually not a cut, which exercises the rejection), gives
    /// the oracle's truth table or rejection and its MFFC node list. One
    /// scratch serves the whole graph, as in a pass.
    fn assert_cut_evaluation_matches_oracle(aig: &Aig) {
        let fanouts = aig.fanout_map();
        let cut_table = aig.enumerate_cuts(CUT_SIZE, MAX_CUTS);
        let mut scratch = CutScratch::new(aig);
        let mut evaluated = 0;
        for id in aig.iter_ands() {
            for cut in cut_table.cuts(id) {
                for dropped in std::iter::once(None).chain((0..cut.len()).map(Some)) {
                    let leaves: Vec<NodeId> = (0..cut.len())
                        .filter(|&i| Some(i) != dropped)
                        .map(|i| cut[i])
                        .collect();
                    let fast = scratch
                        .evaluate(aig, &fanouts, id, &leaves)
                        .map(|bits| (bits, scratch.mffc.clone()));
                    let slow = oracle(aig, &fanouts, id, &leaves);
                    evaluated += usize::from(slow.is_some());
                    assert_eq!(fast, slow, "{}: node {id}, leaves {leaves:?}", aig.name());
                }
            }
        }
        assert!(aig.num_ands() == 0 || evaluated > 0, "{}", aig.name());
    }

    #[test]
    fn cut_evaluation_matches_oracle_on_random_networks() {
        for (seed, (num_inputs, num_gates)) in (0..).zip([(4, 12), (6, 40), (8, 90), (10, 160)]) {
            for offset in 0..3 {
                let aig = random_network(&RandomNetworkConfig {
                    num_inputs,
                    num_outputs: 3,
                    num_gates,
                    locality: 16,
                    seed: seed * 10 + offset,
                });
                assert_cut_evaluation_matches_oracle(&aig);
            }
        }
    }

    #[test]
    fn cut_evaluation_matches_oracle_on_the_test_catalog() {
        for bench in catalog::iscas_and_arith(Scale::Test)
            .into_iter()
            .chain(catalog::epfl_control(Scale::Test))
            .chain(catalog::epfl_arith(Scale::Test))
        {
            assert_cut_evaluation_matches_oracle(&bench.aig);
        }
    }

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
    fn rewrite_shrinks_redundant_xor_ladder() {
        // xor built the wasteful way: (a|b) & !(a&b) twice over.
        let mut aig = Aig::new("waste");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let or1 = aig.or(a, b);
        let nand1 = !aig.and(a, b);
        let x1 = aig.and(or1, nand1);
        let or2 = aig.or(x1, a);
        let nand2 = !aig.and(x1, a);
        let x2 = aig.and(or2, nand2);
        aig.add_output("y", x2);
        let rewritten = rewrite(&aig, &RewriteConfig::default());
        assert!(rewritten.num_ands() <= aig.num_ands());
        assert_equivalent(&aig, &rewritten);
    }

    #[test]
    fn rewrite_preserves_function_on_benchmarks() {
        for aig in [
            alsrac_circuits::arith::ripple_carry_adder(4),
            alsrac_circuits::arith::alu(3),
            alsrac_circuits::arith::wallace_multiplier(3),
            alsrac_circuits::control::voter(7),
        ] {
            let rewritten = rewrite(&aig, &RewriteConfig::default());
            assert!(
                rewritten.num_ands() <= aig.num_ands(),
                "{} grew: {} -> {}",
                aig.name(),
                aig.num_ands(),
                rewritten.num_ands()
            );
            assert_equivalent(&aig, &rewritten);
        }
    }

    #[test]
    fn zero_gain_mode_preserves_function() {
        let aig = alsrac_circuits::arith::kogge_stone_adder(4);
        let rewritten = rewrite(&aig, &RewriteConfig { zero_gain: true });
        assert_equivalent(&aig, &rewritten);
        assert!(rewritten.num_ands() <= aig.num_ands());
    }

    #[test]
    fn random_networks_survive_rewriting() {
        for seed in 0..6 {
            let aig = alsrac_circuits::random_logic::random_network(
                &alsrac_circuits::random_logic::RandomNetworkConfig {
                    num_inputs: 8,
                    num_outputs: 4,
                    num_gates: 80,
                    locality: 20,
                    seed,
                },
            );
            let rewritten = rewrite(&aig, &RewriteConfig::default());
            assert_equivalent(&aig, &rewritten);
        }
    }

    #[test]
    fn rewrite_is_stable_at_fixpoint() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(4);
        let once = rewrite(&aig, &RewriteConfig::default());
        let twice = rewrite(&once, &RewriteConfig::default());
        assert!(twice.num_ands() <= once.num_ands());
        assert_equivalent(&once, &twice);
    }
}
