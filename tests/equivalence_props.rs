//! Property-based tests: functional-equivalence invariants of the exact
//! transformations (optimizer passes, mappers, BLIF) and of the cut-function
//! evaluator they share over random circuits, and interval invariants of the
//! two-level minimization engine.
//!
//! Runs on the `alsrac-rt` property harness. Circuit-valued properties
//! generate a [`RandomNetworkConfig`] (sizes + seed) and build the network
//! inside the property, so failures shrink toward smaller circuits.

use alsrac_rt::{check, prop_assert, prop_assert_eq, u64s, usizes, Config, Gen};
use alsrac_suite::aig::{Aig, Lit, Node, NodeId};
use alsrac_suite::circuits::{
    blif,
    catalog::{self, Scale},
    random_logic::{random_network, RandomNetworkConfig},
};
use alsrac_suite::map::cell::{evaluate_mapping as eval_cells, map_cells, Library};
use alsrac_suite::map::lut::{evaluate_mapping as eval_luts, map_luts};
use alsrac_suite::sat::cec::{self, CecResult};
use alsrac_suite::synth;
use alsrac_suite::truthtable::{isop, minimize, sop_to_aig, CutEvaluator, Tt};

/// The proptest suite ran 48 cases per property; keep that budget.
fn config() -> Config {
    Config::with_cases(48)
}

/// Generator of network shapes: `(num_inputs, num_outputs, num_gates, seed)`.
fn networks() -> impl Gen<Value = (usize, usize, usize, u64)> {
    (usizes(2..9), usizes(1..5), usizes(5..90), u64s())
}

fn build(&(num_inputs, num_outputs, num_gates, seed): &(usize, usize, usize, u64)) -> Aig {
    random_network(&RandomNetworkConfig {
        num_inputs,
        num_outputs,
        num_gates,
        locality: 16,
        seed,
    })
}

/// Exhaustive equivalence check for small-input circuits.
fn equivalent(a: &Aig, b: &Aig) -> bool {
    assert!(a.num_inputs() <= 10);
    (0..1u64 << a.num_inputs()).all(|p| {
        let bits: Vec<bool> = (0..a.num_inputs()).map(|i| p >> i & 1 != 0).collect();
        a.evaluate(&bits) == b.evaluate(&bits)
    })
}

#[test]
fn optimize_preserves_function() {
    check(
        "optimize preserves function",
        &config(),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let optimized = synth::optimize(&aig);
            prop_assert!(equivalent(&aig, &optimized), "function changed");
            prop_assert!(
                optimized.num_ands() <= aig.num_ands(),
                "optimizer grew the circuit"
            );
            Ok(())
        },
    );
}

/// Every node's value under every input pattern, 64 patterns a word.
fn simulate_exhaustively(aig: &Aig) -> Vec<Vec<u64>> {
    let num_words = (1usize << aig.num_inputs()).div_ceil(64);
    let mut values = vec![vec![0; num_words]; aig.num_nodes()];
    for (i, input) in aig.inputs().iter().enumerate() {
        for (w, word) in values[input.index()].iter_mut().enumerate() {
            *word = (0..64).map(|b| ((w * 64 + b) as u64 >> i & 1) << b).sum();
        }
    }
    let lit_word = |values: &[Vec<u64>], lit: Lit, w: usize| {
        values[lit.node().index()][w] ^ 0u64.wrapping_sub(u64::from(lit.is_complement()))
    };
    for id in aig.iter_ands() {
        let [f0, f1] = aig.and_fanins(id);
        values[id.index()] = (0..num_words)
            .map(|w| lit_word(&values, f0, w) & lit_word(&values, f1, w))
            .collect();
    }
    values
}

/// The cuts whose functions the optimizer and both mappers read: every
/// enumerated cut of every AND node at `rewrite`'s, `map_cells`' and
/// `map_luts`' sizes, and every cone `refactor` collapses (an MFFC over at
/// most 10 leaves, the constant excluded).
fn evaluated_cuts(aig: &Aig) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut cuts = Vec::new();
    for (k, max_cuts) in [(4, 8), (4, 10), (6, 12)] {
        let table = aig.enumerate_cuts(k, max_cuts);
        for id in aig.iter_ands() {
            for cut in table.cuts(id) {
                cuts.push((id, cut.to_vec()));
            }
        }
    }
    let fanouts = aig.fanout_map();
    for id in aig.iter_ands() {
        let mffc = aig.mffc(id, &fanouts);
        let mut leaves: Vec<NodeId> = mffc
            .iter()
            .flat_map(|&n| aig.and_fanins(n).map(Lit::node))
            .filter(|n| *n != NodeId::CONST && !mffc.contains(n))
            .collect();
        leaves.sort_unstable();
        leaves.dedup();
        if leaves.len() <= 10 {
            cuts.push((id, leaves));
        }
    }
    cuts
}

/// `tt` read at the leaves' values, 64 patterns a word: a multiplexer tree
/// over the table's entries whose select lines are the leaf words.
fn read_table(tt: &Tt, leaf_words: &[u64]) -> u64 {
    let mut entries: Vec<u64> = (0..tt.num_patterns())
        .map(|m| 0u64.wrapping_sub(u64::from(tt.get(m))))
        .collect();
    for (i, &select) in leaf_words.iter().enumerate().rev() {
        for m in 0..1 << i {
            entries[m] = entries[m] & !select | entries[m + (1 << i)] & select;
        }
    }
    entries[0]
}

/// Pins [`CutEvaluator`] to the definition of a cut function: every cut of
/// [`evaluated_cuts`] evaluates (so every enumerated cut is a cut), its
/// table read at the leaves' simulated values is the root's simulated value
/// under every input pattern, in both polarities and through the one-word
/// path too, and its interior is the cone's AND nodes that are not leaves.
fn cut_functions_match_simulation(aig: &Aig) -> Result<(), String> {
    let values = simulate_exhaustively(aig);
    let valid = u64::MAX >> (64 - (1usize << aig.num_inputs()).min(64));
    let mut eval = CutEvaluator::new();
    for (root, leaves) in evaluated_cuts(aig) {
        let Some(tt) = eval.tt(aig, root.lit(), &leaves) else {
            return Err(format!("{leaves:?} is not a cut of {root}"));
        };
        for (w, &root_word) in values[root.index()].iter().enumerate() {
            let leaf_words: Vec<u64> = leaves.iter().map(|l| values[l.index()][w]).collect();
            prop_assert!(
                (read_table(&tt, &leaf_words) ^ root_word) & valid == 0,
                "node {root} over {leaves:?}, patterns {}..",
                w * 64
            );
        }
        let mut inside = vec![false; aig.num_nodes()];
        inside[root.index()] = true;
        let mut interior = Vec::new();
        for id in aig.iter_ands().rev().skip_while(|&id| id != root) {
            if inside[id.index()] && !leaves.contains(&id) {
                interior.push(id);
                for fanin in aig.and_fanins(id) {
                    inside[fanin.node().index()] = true;
                }
            }
        }
        interior.reverse();
        prop_assert_eq!(eval.interior(), &interior[..]);
        prop_assert_eq!(eval.tt(aig, !root.lit(), &leaves), Some(tt.not()));
        if leaves.len() <= 6 {
            prop_assert_eq!(eval.word(aig, root.lit(), &leaves), Some(tt.to_bits()));
        }
    }
    Ok(())
}

#[test]
fn cut_functions_match_simulation_on_random_networks() {
    check(
        "cut functions match simulation",
        &config(),
        &networks(),
        |cfg| cut_functions_match_simulation(&build(cfg)),
    );
}

#[test]
fn cut_functions_match_simulation_on_the_test_catalog() {
    for bench in catalog::iscas_and_arith(Scale::Test)
        .into_iter()
        .chain(catalog::epfl_control(Scale::Test))
        .chain(catalog::epfl_arith(Scale::Test))
    {
        if let Err(e) = cut_functions_match_simulation(&bench.aig) {
            panic!("{}: {e}", bench.paper_name);
        }
    }
}

/// The cut enumeration as it read before the flat cut table: every cut its
/// own `Vec`, every node's list led by its trivial cut, dominance filtered
/// while merging, then a stable sort by size and a cut to `max_cuts`. Kept
/// as the reference the table is pinned to.
fn reference_cuts(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Vec<NodeId>>> {
    fn merge(a: &[NodeId], b: &[NodeId], k: usize) -> Option<Vec<NodeId>> {
        let mut leaves = Vec::with_capacity(k);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) | (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, None) => unreachable!(),
            };
            if leaves.len() == k {
                return None;
            }
            leaves.push(next);
        }
        Some(leaves)
    }
    fn dominates(a: &[NodeId], b: &[NodeId]) -> bool {
        a.len() <= b.len() && a.iter().all(|leaf| b.contains(leaf))
    }
    let mut sets: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(aig.num_nodes());
    for id in aig.iter_nodes() {
        let mut cuts = vec![vec![id]];
        if let Node::And { f0, f1 } = *aig.node(id) {
            let mut merged: Vec<Vec<NodeId>> = Vec::new();
            for c0 in &sets[f0.node().index()] {
                for c1 in &sets[f1.node().index()] {
                    let Some(cut) = merge(c0, c1, k) else {
                        continue;
                    };
                    if merged.iter().any(|m| dominates(m, &cut)) {
                        continue;
                    }
                    merged.retain(|m| !dominates(&cut, m));
                    merged.push(cut);
                }
            }
            merged.sort_by_key(Vec::len);
            merged.truncate(max_cuts - 1);
            cuts.extend(merged);
        }
        sets.push(cuts);
    }
    sets
}

/// At every node the flat cut table holds the reference's non-trivial cuts
/// in the reference's order, at the passes' sizes and at edge sizes (the
/// smallest `k`, and keeping one cut or none).
fn cut_table_matches_reference(aig: &Aig) -> Result<(), String> {
    for (k, max_cuts) in [(4, 8), (4, 10), (6, 12), (2, 1), (3, 2), (6, 1)] {
        let table = aig.enumerate_cuts(k, max_cuts);
        let reference = reference_cuts(aig, k, max_cuts);
        for id in aig.iter_nodes() {
            let got: Vec<&[NodeId]> = table.cuts(id).iter().map(|cut| &cut[..]).collect();
            let want: Vec<&[NodeId]> = reference[id.index()][1..]
                .iter()
                .map(Vec::as_slice)
                .collect();
            prop_assert!(
                got == want,
                "({k}, {max_cuts}) node {id}: {got:?} != {want:?}"
            );
        }
    }
    Ok(())
}

#[test]
fn cut_table_matches_the_nested_enumeration_on_random_networks() {
    check(
        "cut table matches the nested enumeration",
        &config(),
        &networks(),
        |cfg| cut_table_matches_reference(&build(cfg)),
    );
}

#[test]
fn cut_table_matches_the_nested_enumeration_on_the_test_catalog() {
    for bench in catalog::iscas_and_arith(Scale::Test)
        .into_iter()
        .chain(catalog::epfl_control(Scale::Test))
        .chain(catalog::epfl_arith(Scale::Test))
    {
        if let Err(e) = cut_table_matches_reference(&bench.aig) {
            panic!("{}: {e}", bench.paper_name);
        }
    }
}

/// Paper-scale circuits, whose node ids pass 64 many times, so many
/// leaves share a signature bit and the cut merge's signature filters
/// meet collisions.
#[test]
fn cut_table_matches_the_nested_enumeration_on_paper_circuits() {
    for name in ["alu4", "c880", "c1908", "mtp8"] {
        let aig = catalog::by_name(name, Scale::Paper).expect("catalog circuit");
        assert!(
            aig.num_nodes() > 4 * 64,
            "{name}: {} nodes",
            aig.num_nodes()
        );
        if let Err(e) = cut_table_matches_reference(&aig) {
            panic!("{name}: {e}");
        }
    }
}

/// An AIG node for node: its nodes, input names and outputs.
fn structure(aig: &Aig) -> (Vec<Node>, Vec<&str>, Vec<(&str, Lit)>) {
    let nodes = aig.iter_nodes().map(|id| *aig.node(id)).collect();
    let inputs = (0..aig.num_inputs()).map(|i| aig.input_name(i)).collect();
    let outputs = aig.outputs().iter().map(|o| (&*o.name, o.lit)).collect();
    (nodes, inputs, outputs)
}

/// One optimizer reused over every Test-scale catalog circuit and then
/// over its optimized output, so later calls hit recipes derived by earlier
/// ones: each result is node for node what a fresh `optimize` returns, and
/// SAT proves it equivalent to its input. The paper-scale circuits of the
/// benchmark workloads are proved equivalent too.
#[test]
fn shared_recipe_cache_is_pure_and_optimize_is_exact() {
    let mut optimizer = synth::Optimizer::new();
    let test_scale = catalog::iscas_and_arith(Scale::Test)
        .into_iter()
        .chain(catalog::epfl_control(Scale::Test))
        .chain(catalog::epfl_arith(Scale::Test));
    for bench in test_scale {
        let once = optimizer.optimize(&bench.aig);
        let twice = optimizer.optimize(&once);
        for (input, output) in [(&bench.aig, &once), (&once, &twice)] {
            let fresh = synth::optimize(input);
            assert!(
                structure(output) == structure(&fresh),
                "{}: the shared recipe cache changed the result",
                bench.paper_name
            );
            assert_eq!(
                cec::equivalent(input, output),
                CecResult::Equivalent,
                "{}",
                bench.paper_name
            );
        }
    }
    let paper_scale = [
        "alu4",
        "c880",
        "rca32",
        "int2float",
        "decoder",
        "log2",
        "shifter",
        "max",
        "cla32",
    ];
    for name in paper_scale {
        let aig = catalog::by_name(name, Scale::Paper).expect("catalog circuit");
        let optimized = optimizer.optimize(&aig);
        assert_eq!(
            cec::equivalent(&aig, &optimized),
            CecResult::Equivalent,
            "{name}"
        );
    }
    assert!(optimizer.recipes_computed() > 0);
}

#[test]
fn balance_never_deepens() {
    check("balance never deepens", &config(), &networks(), |cfg| {
        let aig = build(cfg);
        let balanced = synth::balance(&aig);
        prop_assert!(equivalent(&aig, &balanced), "function changed");
        prop_assert!(
            balanced.depth() <= aig.depth(),
            "balance deepened the circuit"
        );
        Ok(())
    });
}

#[test]
fn lut_cover_implements_the_circuit() {
    check(
        "lut cover implements the circuit",
        &config(),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let mapping = map_luts(&aig, 4);
            for p in 0..1u64 << aig.num_inputs() {
                let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 != 0).collect();
                prop_assert_eq!(eval_luts(&aig, &mapping, &bits), aig.evaluate(&bits));
            }
            Ok(())
        },
    );
}

#[test]
fn cell_cover_implements_the_circuit() {
    let library = Library::mcnc();
    check(
        "cell cover implements the circuit",
        &config(),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let mapping = map_cells(&aig, &library);
            for p in 0..1u64 << aig.num_inputs() {
                let bits: Vec<bool> = (0..aig.num_inputs()).map(|i| p >> i & 1 != 0).collect();
                prop_assert_eq!(eval_cells(&aig, &mapping, &bits), aig.evaluate(&bits));
            }
            Ok(())
        },
    );
}

#[test]
fn blif_round_trip_is_identity() {
    check(
        "blif round trip is identity",
        &config(),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let text = blif::write(&aig);
            let parsed = match blif::parse(&text) {
                Ok(parsed) => parsed,
                Err(e) => return Err(format!("own output failed to parse: {e}")),
            };
            prop_assert!(equivalent(&aig, &parsed), "round trip changed the function");
            Ok(())
        },
    );
}

#[test]
fn isop_respects_interval() {
    check(
        "isop respects interval",
        &config(),
        &(u64s(), u64s()),
        |&(on_bits, dc_bits)| {
            let on = Tt::from_bits(6, on_bits & !dc_bits);
            let dc = Tt::from_bits(6, dc_bits & !(on_bits & !dc_bits));
            let upper = on.or(&dc);
            let cover = isop(&on, &upper);
            let f = cover.to_tt(6);
            prop_assert!(on.and(&f.not()).is_const0(), "misses on-set");
            prop_assert!(f.and(&upper.not()).is_const0(), "hits off-set");

            let minimized = minimize(&cover, &on, &dc);
            let g = minimized.to_tt(6);
            prop_assert!(on.and(&g.not()).is_const0(), "minimized misses on-set");
            prop_assert!(g.and(&upper.not()).is_const0(), "minimized hits off-set");
            prop_assert!(
                minimized.num_cubes() <= cover.num_cubes(),
                "minimization grew the cover"
            );
            Ok(())
        },
    );
}

#[test]
fn sop_to_aig_builds_the_cover() {
    check("sop_to_aig builds the cover", &config(), &u64s(), |&bits| {
        let f = Tt::from_bits(6, bits);
        let cover = isop(&f, &f);
        let mut aig = Aig::new("t");
        let inputs = aig.add_inputs("x", 6);
        let root = sop_to_aig(&mut aig, &cover, &inputs);
        aig.add_output("y", root);
        for p in 0..64usize {
            let pattern: Vec<bool> = (0..6).map(|i| p >> i & 1 != 0).collect();
            prop_assert_eq!(aig.evaluate(&pattern)[0], f.get(p));
        }
        Ok(())
    });
}

#[test]
fn cleaned_is_idempotent_and_equivalent() {
    check(
        "cleaned is idempotent and equivalent",
        &config(),
        &networks(),
        |cfg| {
            let aig = build(cfg);
            let once = aig.cleaned();
            let twice = once.cleaned();
            prop_assert!(equivalent(&aig, &once), "cleanup changed the function");
            prop_assert_eq!(once.num_ands(), twice.num_ands());
            Ok(())
        },
    );
}
