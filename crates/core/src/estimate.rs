//! Batch error estimation (§III-C, the scheme of Su et al. DAC 2018).
//!
//! Evaluating every LAC candidate by rebuilding and re-simulating the whole
//! circuit would dominate the runtime. Instead, one base simulation of the
//! current circuit plus one flip-influence computation per *node* suffices
//! to evaluate every candidate at that node exactly (on the sampled
//! patterns): a candidate changes the node's value on the lanes where its
//! new function disagrees with the current one, and each such lane flips
//! exactly the outputs the influence masks say it flips.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use alsrac_aig::{Aig, FanoutMap, NodeId};
use alsrac_metrics::{
    compare_flipped_error_rate, compare_flipped_output_words, compare_output_words, ErrorMetric,
    Measurement,
};
use alsrac_rt::{pool, trace};
use alsrac_sim::{
    FlipInfluence, InfluenceScratch, OutputIndex, OutputWords, PatternBuffer, Simulation,
};
use alsrac_truthtable::Sop;

use crate::lac::Lac;

/// Batch error estimator for LAC candidates on a fixed pattern set.
///
/// Borrows the *original* circuit's output words (the error reference),
/// a simulation of the *current* circuit (the one being modified) on the
/// same patterns, and the current circuit's fanout map (computed once per
/// graph snapshot by the caller — every flow already has it in hand for
/// LAC generation).
///
/// Per-candidate comparisons are tailored to the metric being ranked.
/// [`ErrorMetric::ErrorRate`] never reads the distance metrics, so it takes
/// a sparse rate-only compare: the base mismatch columns are precomputed
/// once per snapshot (`O(outputs × words)`) and each candidate then costs
/// `O(words + outputs × dirty_words)`, where dirty words are those its
/// flips actually reach. `error_rate` is bit-identical to a full compare;
/// the unread distance metrics come back as `None`. Distance metrics take
/// the full fused decode.
pub struct Estimator<'a> {
    current: &'a Aig,
    patterns: &'a PatternBuffer,
    fanouts: &'a FanoutMap,
    metric: ErrorMetric,
    sim: &'a Simulation,
    original_outputs: &'a OutputWords,
    current_outputs: OutputWords,
    masks: Vec<u64>,
    /// Node → driven outputs, built once per snapshot so the influence
    /// pass can skip the per-candidate all-outputs scan.
    output_index: OutputIndex,
    /// Per-word base mismatch columns + total error-lane count, present
    /// exactly when `metric` is [`ErrorMetric::ErrorRate`] (the sparse
    /// rate-only compare, [`alsrac_metrics::compare_flipped_error_rate`]).
    rate_base: Option<(Vec<u64>, u64)>,
}

impl<'a> Estimator<'a> {
    /// Builds an estimator ranking by `metric`.
    ///
    /// `original_outputs` are the original circuit's output words on
    /// `patterns`: the estimation patterns are fixed for a run, so callers
    /// simulate the original once. `sim` must be a simulation of `current`
    /// on `patterns`, and `fanouts` the fanout map of `current` (the same
    /// snapshot — it is used to walk TFO cones during influence
    /// computation).
    ///
    /// # Panics
    ///
    /// Panics if `sim` simulates a graph with another node count than
    /// `current`, or the output or pattern shapes disagree.
    pub fn new(
        original_outputs: &'a OutputWords,
        sim: &'a Simulation,
        current: &'a Aig,
        patterns: &'a PatternBuffer,
        fanouts: &'a FanoutMap,
        metric: ErrorMetric,
    ) -> Estimator<'a> {
        assert_eq!(
            original_outputs.num_outputs(),
            current.num_outputs(),
            "output arity"
        );
        assert_eq!(
            sim.num_nodes(),
            current.num_nodes(),
            "simulation is not of the current graph"
        );
        assert_eq!(sim.num_words(), patterns.num_words(), "pattern shape");
        assert_eq!(
            original_outputs.num_words(),
            patterns.num_words(),
            "pattern shape"
        );
        let current_outputs = sim.output_words(current);
        let masks = patterns.word_masks();
        let rate_base = (!metric.needs_distance())
            .then(|| alsrac_metrics::base_diff_columns(original_outputs, &current_outputs, &masks));
        Estimator {
            current,
            patterns,
            fanouts,
            metric,
            sim,
            original_outputs,
            current_outputs,
            masks,
            output_index: OutputIndex::new(current),
            rate_base,
        }
    }

    /// The error of the *current* circuit against the original (no LAC).
    pub fn baseline(&self) -> Measurement {
        compare_output_words(
            self.original_outputs,
            &self.current_outputs,
            &self.masks,
            self.patterns.num_patterns(),
        )
    }

    /// Evaluates the cover of a LAC on the divisor simulation words.
    fn change_mask(&self, lac: &Lac) -> Vec<u64> {
        let words = self.sim.num_words();
        let mut new_value = vec![0u64; words];
        sop_eval_words(&lac.cover, &lac.divisors, self.sim, &mut new_value);
        // The cover reproduces the signal lac.node; lanes where it
        // disagrees with that signal are exactly the lanes where the
        // underlying node flips (polarity cancels in the XOR).
        (0..words)
            .map(|w| new_value[w] ^ self.sim.lit_word(lac.node, w))
            .collect()
    }

    /// Estimates the error measurement of applying one LAC to the current
    /// circuit, relative to the original circuit.
    fn estimate(&self, lac: &Lac, influence: &FlipInfluence) -> Measurement {
        debug_assert_eq!(
            influence.node(),
            lac.node.node(),
            "influence/LAC node mismatch"
        );
        let change = self.change_mask(lac);
        if let Some((base_diff, base_lanes)) = &self.rate_base {
            return compare_flipped_error_rate(
                self.original_outputs,
                &self.current_outputs,
                influence,
                &change,
                &self.masks,
                self.patterns.num_patterns(),
                base_diff,
                *base_lanes,
            );
        }
        compare_flipped_output_words(
            self.original_outputs,
            &self.current_outputs,
            influence,
            &change,
            &self.masks,
            self.patterns.num_patterns(),
        )
    }

    /// Estimates all candidates, computing each node's influence once.
    ///
    /// Returns the per-candidate measurements, aligned with `lacs`.
    ///
    /// Both stages — one [`FlipInfluence`] per distinct candidate node,
    /// then one [`Measurement`] per candidate — run on the
    /// [`alsrac_rt::pool`] executor. Every work item is a pure function of
    /// the shared read-only simulations, so the result is bit-identical to
    /// the serial loop at any thread count.
    pub fn estimate_all(&self, lacs: &[Lac]) -> Vec<Measurement> {
        // Distinct candidate nodes in first-appearance order (LACs are
        // grouped by node, so this also keeps the dispatch cache-friendly).
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut slot: HashMap<NodeId, usize> = HashMap::new();
        for lac in lacs {
            if let Entry::Vacant(e) = slot.entry(lac.node.node()) {
                e.insert(nodes.len());
                nodes.push(lac.node.node());
            }
        }
        // Telemetry: every candidate beyond the first at a node reuses
        // that node's influence — the cache hit the two-stage split buys.
        trace::add("lacs_scored", lacs.len() as u64);
        trace::add("influences_computed", nodes.len() as u64);
        trace::add("influence_cache_hits", (lacs.len() - nodes.len()) as u64);
        // One scratch arena per worker: allocation-free propagation in
        // steady state, and since each influence is a pure function of the
        // shared simulation, placement by index keeps the result
        // bit-identical at any thread count.
        let influences = pool::par_map_init(&nodes, InfluenceScratch::new, |scratch, &node| {
            FlipInfluence::compute(
                self.current,
                self.sim,
                self.fanouts,
                &self.output_index,
                node,
                scratch,
            )
        });
        pool::par_map(lacs, |lac| {
            self.estimate(lac, &influences[slot[&lac.node.node()]])
        })
    }

    /// Picks the index of the candidate with the smallest error under the
    /// estimator's metric, tie-breaking by the largest estimated node gain.
    ///
    /// Returns `None` when `lacs` is empty or the metric is unavailable
    /// (distance metric on a >63-output circuit).
    pub fn best_candidate(&self, lacs: &[Lac]) -> Option<(usize, Measurement)> {
        self.ranked_candidates(lacs)
            .map(|ranked| ranked.into_iter().next())?
    }

    /// Ranks all candidates by (error under the estimator's metric, then
    /// largest estimated gain), best first. Candidates whose metric value
    /// is NaN are excluded — a NaN compares as "greater than everything"
    /// under a naive sort recovery and must never outrank a real
    /// measurement.
    ///
    /// Returns `None` when the metric is unavailable (distance metric on a
    /// >63-output circuit).
    pub fn ranked_candidates(&self, lacs: &[Lac]) -> Option<Vec<(usize, Measurement)>> {
        let measurements = self.estimate_all(lacs);
        let mut indexed: Vec<(usize, f64, isize)> = Vec::with_capacity(lacs.len());
        for (i, m) in measurements.iter().enumerate() {
            let value = m.value(self.metric)?;
            indexed.push((i, value, lacs[i].est_gain()));
        }
        Some(
            rank_entries(indexed)
                .into_iter()
                .map(|i| (i, measurements[i]))
                .collect(),
        )
    }
}

/// Orders `(index, error, gain)` entries best-first: ascending error
/// (total order — no NaN surprises), ties broken by descending gain. NaN
/// errors are dropped entirely rather than ranked arbitrarily.
fn rank_entries(entries: Vec<(usize, f64, isize)>) -> Vec<usize> {
    let before = entries.len();
    let mut ranked: Vec<(usize, f64, isize)> = entries
        .into_iter()
        .filter(|&(_, value, _)| !value.is_nan())
        .collect();
    trace::add("nan_filtered", (before - ranked.len()) as u64);
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)));
    ranked.into_iter().map(|(i, ..)| i).collect()
}

/// Evaluates a cover bitwise over the simulated divisor signal words.
fn sop_eval_words(cover: &Sop, divisors: &[alsrac_aig::Lit], sim: &Simulation, out: &mut [u64]) {
    out.fill(0);
    for cube in cover.cubes() {
        for (w, slot) in out.iter_mut().enumerate() {
            let mut term = u64::MAX;
            for (i, &d) in divisors.iter().enumerate() {
                let value = sim.lit_word(d, w);
                if cube.pos >> i & 1 != 0 {
                    term &= value;
                } else if cube.neg >> i & 1 != 0 {
                    term &= !value;
                }
            }
            *slot |= term;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lac::{generate_lacs, LacConfig};

    /// The output words and the simulation of `aig` on `patterns`: what an
    /// estimator of `aig` against itself borrows.
    fn simulated(aig: &Aig, patterns: &PatternBuffer) -> (OutputWords, Simulation) {
        let sim = Simulation::new(aig, patterns);
        (sim.output_words(aig), sim)
    }

    /// Estimated error must equal the exact error of actually applying the
    /// LAC and re-measuring, bit for bit — the headline property of batch
    /// estimation. ER takes the sparse rate-only compare (distance metrics
    /// left unpopulated), NMED the full decode.
    #[test]
    fn estimation_matches_direct_application() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let care_patterns = PatternBuffer::random(6, 4, 5);
        let care_sim = Simulation::new(&aig, &care_patterns);
        let fanouts = aig.fanout_map();
        let lacs = generate_lacs(
            &aig,
            &care_sim,
            &care_patterns,
            &fanouts,
            &LacConfig {
                lac_limit: 2,
                ..LacConfig::default()
            },
        );
        assert!(!lacs.is_empty());

        let est_patterns = PatternBuffer::exhaustive(6);
        let (outputs, sim) = simulated(&aig, &est_patterns);
        let estimate_all = |metric| {
            Estimator::new(&outputs, &sim, &aig, &est_patterns, &fanouts, metric)
                .estimate_all(&lacs)
        };
        let rate = estimate_all(ErrorMetric::ErrorRate);
        let decode = estimate_all(ErrorMetric::Nmed);
        for ((lac, rate), decode) in lacs.iter().zip(&rate).zip(&decode) {
            let applied = lac.apply(&aig).expect("no cycle");
            let direct =
                alsrac_metrics::measure(&aig, &applied, &est_patterns).expect("same arity");
            assert_eq!(
                rate.error_rate.to_bits(),
                direct.error_rate.to_bits(),
                "ER mismatch for {lac:?}"
            );
            assert_eq!(rate.nmed, None, "ER estimates skip the decode");
            assert_eq!(
                decode.error_rate.to_bits(),
                direct.error_rate.to_bits(),
                "ER mismatch for {lac:?}"
            );
            assert_eq!(
                decode.nmed.map(f64::to_bits),
                direct.nmed.map(f64::to_bits),
                "NMED mismatch for {lac:?}"
            );
            assert_eq!(
                decode.mred.map(f64::to_bits),
                direct.mred.map(f64::to_bits),
                "MRED mismatch for {lac:?}"
            );
            assert_eq!(decode.max_error_distance, direct.max_error_distance);
        }
    }

    #[test]
    fn estimation_accounts_for_accumulated_error() {
        // Current circuit already differs from the original; estimates are
        // relative to the ORIGINAL.
        let original = alsrac_circuits::arith::ripple_carry_adder(2);
        let mut current = original.clone();
        current.set_output_lit(2, alsrac_aig::Lit::FALSE); // stuck carry
        let patterns = PatternBuffer::exhaustive(4);
        let fanouts = current.fanout_map();
        let (original_outputs, _) = simulated(&original, &patterns);
        let sim = Simulation::new(&current, &patterns);
        let estimator = Estimator::new(
            &original_outputs,
            &sim,
            &current,
            &patterns,
            &fanouts,
            ErrorMetric::ErrorRate,
        );
        let baseline = estimator.baseline();
        assert!(baseline.error_rate > 0.0);
    }

    #[test]
    fn best_candidate_prefers_smaller_error() {
        let aig = alsrac_circuits::arith::kogge_stone_adder(3);
        let care_patterns = PatternBuffer::random(6, 4, 11);
        let care_sim = Simulation::new(&aig, &care_patterns);
        let fanouts = aig.fanout_map();
        let lacs = generate_lacs(
            &aig,
            &care_sim,
            &care_patterns,
            &fanouts,
            &LacConfig {
                lac_limit: 3,
                ..LacConfig::default()
            },
        );
        assert!(lacs.len() >= 2);
        let est_patterns = PatternBuffer::exhaustive(6);
        let (outputs, sim) = simulated(&aig, &est_patterns);
        let estimator = Estimator::new(
            &outputs,
            &sim,
            &aig,
            &est_patterns,
            &fanouts,
            ErrorMetric::ErrorRate,
        );
        let (best_idx, best_m) = estimator.best_candidate(&lacs).expect("candidates exist");
        let all = estimator.estimate_all(&lacs);
        for m in &all {
            assert!(best_m.error_rate <= m.error_rate + 1e-12);
        }
        assert!(best_idx < lacs.len());
    }

    #[test]
    fn estimate_all_is_bit_identical_across_thread_counts() {
        let aig = alsrac_circuits::arith::wallace_multiplier(3);
        let care_patterns = PatternBuffer::random(6, 8, 17);
        let care_sim = Simulation::new(&aig, &care_patterns);
        let fanouts = aig.fanout_map();
        let lacs = generate_lacs(
            &aig,
            &care_sim,
            &care_patterns,
            &fanouts,
            &LacConfig {
                lac_limit: 3,
                ..LacConfig::default()
            },
        );
        assert!(lacs.len() >= 2, "need a few candidates");
        let est_patterns = PatternBuffer::exhaustive(6);
        let (outputs, sim) = simulated(&aig, &est_patterns);
        for metric in [ErrorMetric::ErrorRate, ErrorMetric::Nmed] {
            let estimator = Estimator::new(&outputs, &sim, &aig, &est_patterns, &fanouts, metric);
            let serial = alsrac_rt::pool::with_threads(1, || estimator.estimate_all(&lacs));
            for threads in [2, 5] {
                let parallel =
                    alsrac_rt::pool::with_threads(threads, || estimator.estimate_all(&lacs));
                assert_eq!(serial.len(), parallel.len());
                for (s, p) in serial.iter().zip(&parallel) {
                    assert_eq!(s.num_patterns, p.num_patterns);
                    assert_eq!(s.error_rate.to_bits(), p.error_rate.to_bits());
                    assert_eq!(s.nmed.map(f64::to_bits), p.nmed.map(f64::to_bits));
                    assert_eq!(s.mred.map(f64::to_bits), p.mred.map(f64::to_bits));
                    assert_eq!(s.max_error_distance, p.max_error_distance);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "simulation is not of the current graph")]
    fn rejects_a_simulation_of_another_graph() {
        let mut current = Aig::new("t");
        let a = current.add_input("a");
        let b = current.add_input("b");
        let y = current.and(a, b);
        current.add_output("y", y);
        // Same inputs, outputs and pattern shape, more nodes: accepted, it
        // would score the wrong circuit.
        let mut larger = current.clone();
        larger.xor(a, b);
        assert!(larger.num_nodes() > current.num_nodes());
        let patterns = PatternBuffer::exhaustive(2);
        let (outputs, sim) = simulated(&larger, &patterns);
        let fanouts = current.fanout_map();
        Estimator::new(
            &outputs,
            &sim,
            &current,
            &patterns,
            &fanouts,
            ErrorMetric::ErrorRate,
        );
    }

    #[test]
    fn nan_entries_never_outrank_real_candidates() {
        // A NaN error with a huge gain must be dropped, not sorted first.
        let entries = vec![(0, f64::NAN, 1000), (1, 0.5, 0), (2, 0.1, 0)];
        assert_eq!(rank_entries(entries), vec![2, 1]);
        // All-NaN input ranks nothing.
        assert!(rank_entries(vec![(0, f64::NAN, 0)]).is_empty());
    }

    #[test]
    fn rank_breaks_error_ties_by_largest_gain() {
        let entries = vec![(0, 0.2, 1), (1, 0.2, 5), (2, 0.3, 9)];
        assert_eq!(rank_entries(entries), vec![1, 0, 2]);
    }

    #[test]
    fn sop_eval_words_matches_eval() {
        use alsrac_truthtable::Cube;
        let mut aig = alsrac_aig::Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b); // keep some logic alive
        aig.add_output("y", x);
        let patterns = PatternBuffer::exhaustive(3);
        let sim = Simulation::new(&aig, &patterns);
        let cover = Sop::new(vec![
            Cube::TAUTOLOGY.with_pos(0).with_neg(1),
            Cube::TAUTOLOGY.with_pos(2),
        ]);
        let divisors = vec![a, b, c];
        let mut out = vec![0u64; sim.num_words()];
        sop_eval_words(&cover, &divisors, &sim, &mut out);
        for p in 0..8 {
            let pattern = (sim.lit_bit(a, p) as usize)
                | (sim.lit_bit(b, p) as usize) << 1
                | (sim.lit_bit(c, p) as usize) << 2;
            assert_eq!(out[0] >> p & 1 != 0, cover.eval(pattern), "p={p}");
        }
    }
}
