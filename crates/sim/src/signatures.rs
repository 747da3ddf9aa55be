//! Simulation-signature equivalence classes over the nodes of an AIG.
//!
//! A node's *signature* is its simulated value vector masked to the valid
//! pattern lanes. Two nodes whose signatures agree — or agree after
//! complementing one of them — are indistinguishable under the current
//! patterns, which is exactly the relation resubstitution cares about:
//! a divisor set whose members all fall in one signature class (up to
//! complement) spans at most that one function over the care patterns.
//! [`Signatures`] buckets every node into such complement-canonical
//! classes with one hash lookup per node, turning pairwise
//! "simulation-equal?" checks into O(1) class-id comparisons (Lee et al.,
//! *Simulation-Guided Boolean Resubstitution*).
//!
//! Class 0 is always the constant class: node 0 (constant false) carries
//! the all-zero signature and is bucketed first, so `class(id) == 0` means
//! "constant under the current patterns, up to complement".
//!
//! No flow builds a table; the type stays public, with its tests, only
//! for the benchmark's stage-by-stage `lac_gen` probe
//! (`alsbench/src/probes.rs`).

use std::collections::HashMap;

use alsrac_aig::{Aig, NodeId};

use crate::{PatternBuffer, Simulation};

/// Complement-canonical signature equivalence classes for one simulation
/// snapshot: two nodes share a class when their masked signatures agree,
/// possibly after complementing one, and class 0 is the constant class.
#[derive(Clone, Debug)]
pub struct Signatures {
    /// Class id per node, indexed by node.
    class_of: Vec<u32>,
    /// Per node: whether its signature is the complement of its class's
    /// canonical representative.
    complemented: Vec<bool>,
}

impl Signatures {
    /// Buckets every node of `aig` by its signature under `sim`.
    ///
    /// Class ids are assigned in first-seen node order, so the numbering
    /// is deterministic; class 0 is the constant class.
    pub fn build(aig: &Aig, sim: &Simulation, patterns: &PatternBuffer) -> Signatures {
        let masks = patterns.word_masks();
        // Canonical representative signature -> class id.
        let mut class_index: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut table = Signatures {
            class_of: Vec::with_capacity(aig.num_nodes()),
            complemented: Vec::with_capacity(aig.num_nodes()),
        };
        let mut scratch = vec![0u64; sim.num_words()];
        for id in aig.iter_nodes() {
            // Canonical polarity: lane 0 (always valid) reads 0.
            // Complementing within the masked lanes keeps the relation
            // symmetric.
            let complement = sim.node_word(id, 0) & 1 != 0;
            for (w, slot) in scratch.iter_mut().enumerate() {
                let word = sim.node_word(id, w);
                *slot = (if complement { !word } else { word }) & masks[w];
            }
            let class = match class_index.get(&scratch) {
                Some(&class) => class,
                None => {
                    let class = class_index.len() as u32;
                    class_index.insert(scratch.clone(), class);
                    class
                }
            };
            table.class_of.push(class);
            table.complemented.push(complement);
        }
        table
    }

    /// Class id of `id`. Class 0 is the constant class.
    #[inline]
    pub fn class(&self, id: NodeId) -> u32 {
        self.class_of[id.index()]
    }

    /// Whether `id`'s signature is the complement of its class
    /// representative.
    #[inline]
    pub fn is_complemented(&self, id: NodeId) -> bool {
        self.complemented[id.index()]
    }

    /// Whether two nodes carry the same signature up to complement.
    #[inline]
    pub fn same_class(&self, a: NodeId, b: NodeId) -> bool {
        self.class_of[a.index()] == self.class_of[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_aig::Aig;

    fn sample() -> Aig {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let ab2 = aig.and(b, a); // strashes onto ab
        let nand = !aig.and(a, b);
        let dead = aig.and(a, !a); // constant 0 behavior
        let x = aig.xor(a, b);
        let y = aig.or(ab, c);
        // (!a & !c) | (!b & !c) = !y, built from other nodes.
        let nanc = aig.and(!a, !c);
        let nbnc = aig.and(!b, !c);
        let q = aig.or(nanc, nbnc);
        aig.add_output("y", y);
        aig.add_output("y2", ab2);
        aig.add_output("y3", nand);
        aig.add_output("d", dead);
        aig.add_output("x", x);
        aig.add_output("q", q);
        aig
    }

    #[test]
    fn classes_match_pairwise_masked_equality() {
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(3);
        let sim = Simulation::new(&aig, &patterns);
        let sigs = Signatures::build(&aig, &sim, &patterns);
        let mask = patterns.word_mask(0);
        for a in aig.iter_nodes() {
            for b in aig.iter_nodes() {
                let wa = sim.node_word(a, 0) & mask;
                let wb = sim.node_word(b, 0) & mask;
                let equal_up_to_complement = wa == wb || wa == !wb & mask;
                assert_eq!(
                    sigs.same_class(a, b),
                    equal_up_to_complement,
                    "nodes {a} / {b}"
                );
                // Polarity refinement: identical (not complemented)
                // signatures iff same class and same polarity flag.
                let same_polarity = sigs.is_complemented(a) == sigs.is_complemented(b);
                assert_eq!(
                    sigs.same_class(a, b) && same_polarity,
                    wa == wb,
                    "polarity {a} / {b}"
                );
            }
        }
    }

    #[test]
    fn constant_class_is_class_zero() {
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(3);
        let sim = Simulation::new(&aig, &patterns);
        let sigs = Signatures::build(&aig, &sim, &patterns);
        assert_eq!(sigs.class(NodeId::CONST), 0);
        // `dead = a & !a` simulates to constant 0 too.
        let dead = aig.outputs()[3].lit.node();
        assert_eq!(sigs.class(dead), 0);
        assert!(sigs.same_class(dead, NodeId::CONST));
    }

    #[test]
    fn complement_polarity_is_tracked() {
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(3);
        let sim = Simulation::new(&aig, &patterns);
        let sigs = Signatures::build(&aig, &sim, &patterns);
        // `y = ab | c` is the complemented edge of AND(!ab, !c), and `q`
        // (= !y) the complemented edge of another AND that computes `y`:
        // the two nodes share a class with opposite polarities.
        let y = aig.outputs()[0].lit;
        let q = aig.outputs()[5].lit;
        assert!(y.is_complement() && q.is_complement());
        assert_ne!(y.node(), q.node());
        assert!(sigs.same_class(y.node(), q.node()));
        assert_ne!(
            sigs.is_complemented(y.node()),
            sigs.is_complemented(q.node())
        );
    }
}
