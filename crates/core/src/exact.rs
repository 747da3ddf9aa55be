//! Exact (zero-error) resubstitution — the \[14\]/\[18\] machinery ALSRAC
//! approximates.
//!
//! Before ALSRAC, resubstitution used *complete* care sets: a divisor set
//! is usable only if it can express the node on **every** input pattern,
//! checked with SAT or BDDs. This module implements that exact flow on top
//! of `alsrac-sat`, both as a correctness baseline for tests (exact
//! resubstitution must never change the function) and as the runtime
//! contrast the paper's §I motivates ("unscalable for large circuits").
//!
//! The check itself is [`alsrac_sat::cec::exact_resub_feasible`]; this
//! module adds the surrounding optimization pass: scan nodes, find a
//! cheaper exact resubstitution over Algorithm-1 divisor sets, apply it.

use std::collections::HashMap;

use alsrac_aig::{Aig, Lit, NodeId};
use alsrac_sat::cec::exact_resub_function;
use alsrac_truthtable::{isop, sop_to_aig, Tt};

use crate::divisors::{select_divisor_sets, DivisorConfig};

/// Try at most this many divisor sets (Algorithm 1, with the approximate
/// flow's default options) per node.
const ATTEMPTS_PER_NODE: usize = 4;

/// Only consider nodes whose MFFC has at least this many nodes (a 1-node
/// MFFC can at best break even).
const MIN_MFFC: usize = 2;

/// Statistics from one [`exact_resub_pass`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactResubStats {
    /// Nodes examined.
    pub examined: usize,
    /// SAT feasibility/function queries issued.
    pub sat_queries: usize,
    /// Substitutions applied.
    pub applied: usize,
}

/// One pass of exact resubstitution over all AND nodes.
///
/// For each node (largest MFFC first), Algorithm-1 divisor sets are tried;
/// the exact function of the node over a divisor set — when one exists for
/// all reachable patterns — is derived with SAT queries, covered by its
/// ISOP (prime and irredundant), and substituted if it costs fewer nodes
/// than the node's MFFC frees. The returned circuit is **functionally
/// equivalent** to the input (verified by property tests and CEC in the
/// test suite).
pub fn exact_resub_pass(aig: &Aig) -> (Aig, ExactResubStats) {
    let mut stats = ExactResubStats::default();
    let work = aig.cleaned();
    let fanouts = work.fanout_map();
    let mut substitutions: HashMap<NodeId, Lit> = HashMap::new();
    let mut claimed = vec![false; work.num_nodes()];
    let mut appended = work.clone();

    // Largest savings first.
    let mut nodes: Vec<(usize, NodeId)> = work
        .iter_ands()
        .map(|id| (work.mffc(id, &fanouts).len(), id))
        .filter(|&(m, _)| m >= MIN_MFFC)
        .collect();
    nodes.sort_by_key(|&(m, id)| (std::cmp::Reverse(m), id));

    for &(mffc_size, node) in &nodes {
        if claimed[node.index()] {
            continue;
        }
        stats.examined += 1;
        for divisors in select_divisor_sets(&work, node, &DivisorConfig::default())
            .into_iter()
            .take(ATTEMPTS_PER_NODE)
        {
            stats.sat_queries += 1;
            let divisor_lits: Vec<Lit> = divisors.iter().map(|&d| d.lit()).collect();
            let Ok(table) = exact_resub_function(&work, node.lit(), &divisor_lits) else {
                continue; // infeasible
            };
            // Build on/dc sets from the derived (possibly partial) table.
            let k = divisors.len();
            let mut on = Tt::zero(k);
            let mut dc = Tt::zero(k);
            for (pattern, entry) in table.iter().enumerate() {
                match entry {
                    Some(true) => on.set(pattern, true),
                    Some(false) => {}
                    None => dc.set(pattern, true),
                }
            }
            let cover = isop(&on, &on.or(&dc));
            // Standalone cost must beat the freed MFFC.
            let cost = alsrac_truthtable::factored_aig_cost(&cover, k);
            if cost >= mffc_size {
                continue;
            }
            let replacement = sop_to_aig(&mut appended, &cover, &divisor_lits);
            let mffc = work.mffc(node, &fanouts);
            for n in mffc {
                claimed[n.index()] = true;
            }
            substitutions.insert(node, replacement);
            stats.applied += 1;
            break;
        }
    }

    if substitutions.is_empty() {
        return (work, stats);
    }
    match appended.rebuilt_with_substitutions(&substitutions) {
        Ok(rebuilt) => (rebuilt, stats),
        // Strash collision onto a fanout node (see Lac::apply): extremely
        // rare; fall back to the unmodified circuit rather than panic.
        Err(_) => (work, stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equivalent(a: &Aig, b: &Aig) {
        let n = a.num_inputs();
        assert!(n <= 12);
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(a.evaluate(&bits), b.evaluate(&bits), "pattern {p:b}");
        }
    }

    #[test]
    fn removes_planted_redundancy() {
        // f = (a & b) | (a & !b & c) | (a & b & c) — collapses to a & (b | c).
        let mut aig = Aig::new("redundant");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let t1 = aig.and(a, b);
        let nb = !b;
        let t2a = aig.and(a, nb);
        let t2 = aig.and(t2a, c);
        let t3a = aig.and(a, b);
        let t3 = aig.and(t3a, c);
        let o1 = aig.or(t1, t2);
        let f = aig.or(o1, t3);
        aig.add_output("f", f);
        let before = aig.num_ands();
        let (after, stats) = exact_resub_pass(&aig);
        assert_equivalent(&aig, &after);
        assert!(stats.examined > 0);
        assert!(
            after.num_ands() <= before,
            "{before} -> {}",
            after.num_ands()
        );
    }

    #[test]
    fn preserves_function_on_benchmarks() {
        for aig in [
            alsrac_circuits::arith::carry_lookahead_adder(4),
            alsrac_circuits::arith::alu(3),
            alsrac_circuits::catalog::ecc_network(6, 2),
        ] {
            let (after, _) = exact_resub_pass(&aig);
            assert_equivalent(&aig, &after);
        }
    }

    #[test]
    fn preserves_function_on_random_networks() {
        for seed in 0..4 {
            let aig = alsrac_circuits::random_logic::random_network(
                &alsrac_circuits::random_logic::RandomNetworkConfig {
                    num_inputs: 8,
                    num_outputs: 3,
                    num_gates: 60,
                    locality: 16,
                    seed: seed + 400,
                },
            );
            let (after, _) = exact_resub_pass(&aig);
            assert_equivalent(&aig, &after);
        }
    }

    #[test]
    fn sat_equivalence_check_confirms_a_larger_case() {
        use alsrac_sat::cec::{equivalent, CecResult};
        let aig = alsrac_circuits::arith::wallace_multiplier(4);
        let (after, stats) = exact_resub_pass(&aig);
        assert_eq!(equivalent(&aig, &after), CecResult::Equivalent);
        assert!(stats.sat_queries > 0);
    }

    #[test]
    fn stats_track_work() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let (_, stats) = exact_resub_pass(&aig);
        assert!(stats.sat_queries >= stats.applied);
        assert!(stats.examined >= stats.applied);
    }
}
