//! Property suite for the word-row simulation kernels.
//!
//! The word kernels (`alsrac_sim::kernel`) and the fused influence pass
//! promise *bit identity* with the scalar recurrences they implement — the
//! flow's determinism contract rests on it. This suite pins that promise
//! on real circuit generators across ragged word counts:
//!
//! 1. **Word-row simulation ≡ scalar reference.** Every node's packed
//!    words equal a per-pattern boolean re-evaluation of the graph, at
//!    pattern counts from one partial word to several words with a partial
//!    final word.
//! 2. **Event-driven ≡ full-cone influence.** `FlipInfluence::compute`
//!    (touched outputs discovered during propagation) yields the same
//!    masks as a whole-TFO resimulation kept in test code
//!    (`support/full_cone.rs`), and its sparse layout stores exactly the
//!    outputs whose driver ended the walk dirty, ascending.
//! 3. **Both hold across random LAC applies.** After random node
//!    substitutions — the structural edits the flow performs — a fresh
//!    simulation of the rebuilt graph, the scalar reference, and the
//!    influence oracle still agree. The flow sweeps each rebuilt graph
//!    afresh in the same way.

use std::collections::HashMap;

use alsrac_aig::{Aig, Lit, Node, NodeId};
use alsrac_circuits::arith;
use alsrac_rt::Rng;
use alsrac_sim::{FlipInfluence, InfluenceScratch, OutputIndex, PatternBuffer, Simulation};

#[path = "support/full_cone.rs"]
mod full_cone;

/// Pattern counts covering one partial word, exact single words, and
/// multi-word rows with and without a partial final word.
fn ragged_pattern_counts() -> Vec<usize> {
    vec![1, 63, 64, 65, 130, 192, 256, 300]
}

/// Scalar reference: evaluates every node on every pattern with plain
/// bools, then packs the results. No word-level ops — this is the
/// specification the word-row sweep must reproduce bit-for-bit.
fn reference_node_words(aig: &Aig, patterns: &PatternBuffer) -> Vec<Vec<u64>> {
    let num_words = patterns.num_words();
    let mut words = vec![vec![0u64; num_words]; aig.num_nodes()];
    for p in 0..patterns.num_patterns() {
        let mut values = vec![false; aig.num_nodes()];
        for id in aig.iter_nodes() {
            let v = match *aig.node(id) {
                Node::Const => false,
                Node::Input { index } => patterns.get(index as usize, p),
                Node::And { f0, f1 } => {
                    (values[f0.node().index()] ^ f0.is_complement())
                        && (values[f1.node().index()] ^ f1.is_complement())
                }
            };
            values[id.index()] = v;
            if v {
                words[id.index()][p / 64] |= 1 << (p % 64);
            }
        }
    }
    words
}

fn assert_simulation_matches_reference(aig: &Aig, patterns: &PatternBuffer, what: &str) {
    let sim = Simulation::new(aig, patterns);
    let want = reference_node_words(aig, patterns);
    for id in aig.iter_nodes() {
        for (w, &want_w) in want[id.index()].iter().enumerate() {
            let mask = patterns.word_mask(w);
            assert_eq!(
                sim.node_word(id, w) & mask,
                want_w & mask,
                "{what}: node {id}, word {w}"
            );
        }
    }
}

fn assert_influence_matches_full_cone(aig: &Aig, patterns: &PatternBuffer, what: &str) {
    let sim = Simulation::new(aig, patterns);
    let fanouts = aig.fanout_map();
    let outputs = OutputIndex::new(aig);
    let mut scratch = InfluenceScratch::new();
    for id in aig.iter_nodes().skip(1) {
        let inf = FlipInfluence::compute(aig, &sim, &fanouts, &outputs, id, &mut scratch);
        let full = full_cone::full_cone_influence(aig, &sim, &fanouts, id);
        // Sparse layout: one row per output whose driver ended the walk
        // dirty, ascending by output index.
        let reached: Vec<u32> = (0..aig.num_outputs() as u32)
            .filter(|&po| scratch.is_dirty(aig.outputs()[po as usize].lit.node()))
            .collect();
        assert_eq!(inf.touched(), reached.as_slice(), "{what}: node {id}");
        // Dense masks on the valid lanes (the oracle keeps an all-zero row
        // for every cone-reached output whose diff quenched, so the sparse
        // layouts differ by design).
        let mut any = vec![0u64; sim.num_words()];
        for (po, full_po) in full.iter().enumerate() {
            for (w, &full_w) in full_po.iter().enumerate() {
                let mask = patterns.word_mask(w);
                assert_eq!(
                    inf.po_mask(po)[w] & mask,
                    full_w & mask,
                    "{what}: node {id}, po {po}, word {w}"
                );
                any[w] |= full_w;
            }
        }
        for (w, &any_w) in any.iter().enumerate() {
            let mask = patterns.word_mask(w);
            assert_eq!(inf.any_mask()[w] & mask, any_w & mask, "{what}: node {id}");
        }
    }
}

fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("rca4", arith::ripple_carry_adder(4)),
        ("ksa4", arith::kogge_stone_adder(4)),
        ("mtp3", arith::array_multiplier(3)),
    ]
}

#[test]
fn batched_simulation_matches_scalar_reference_on_ragged_pattern_counts() {
    for (name, aig) in circuits() {
        for (seed, num_patterns) in ragged_pattern_counts().into_iter().enumerate() {
            let patterns = PatternBuffer::random(aig.num_inputs(), num_patterns, seed as u64 + 1);
            let what = format!("{name} @ {num_patterns} patterns");
            assert_simulation_matches_reference(&aig, &patterns, &what);
        }
    }
}

#[test]
fn influence_matches_full_cone_on_real_circuits() {
    for (name, aig) in circuits() {
        for num_patterns in [65, 256, 300] {
            let patterns = PatternBuffer::random(aig.num_inputs(), num_patterns, 7);
            let what = format!("{name} @ {num_patterns} patterns");
            assert_influence_matches_full_cone(&aig, &patterns, &what);
        }
    }
}

#[test]
fn equivalences_hold_across_random_lac_applies() {
    let mut aig = arith::ripple_carry_adder(4);
    let patterns_of = |aig: &Aig, round: u64| {
        // 130 patterns: two full words plus a partial third, so each round
        // exercises a masked final word.
        PatternBuffer::random(aig.num_inputs(), 130, 100 + round)
    };
    let mut rng = Rng::from_seed(41);
    for round in 0..6u64 {
        // A random constant-substitution LAC: replace one AND node with a
        // constant, as the flow's simplest candidate shape does, and
        // rebuild. (Substituting by a constant can never create a cycle.)
        let ands: Vec<NodeId> = aig.iter_ands().collect();
        if ands.is_empty() {
            break;
        }
        let victim = ands[rng.next_u64() as usize % ands.len()];
        let replacement = if rng.next_u64() & 1 == 0 {
            Lit::FALSE
        } else {
            Lit::TRUE
        };
        aig = aig
            .rebuilt_with_substitutions(&HashMap::from([(victim, replacement)]))
            .expect("constant substitution cannot introduce a cycle");

        let patterns = patterns_of(&aig, round);
        let what = format!("round {round}");
        assert_simulation_matches_reference(&aig, &patterns, &what);
        assert_influence_matches_full_cone(&aig, &patterns, &what);
    }
}
