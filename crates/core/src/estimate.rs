//! Batch error estimation (§III-C, the scheme of Su et al. DAC 2018).
//!
//! Evaluating every LAC candidate by rebuilding and re-simulating the whole
//! circuit would dominate the runtime. Instead, one base simulation of the
//! current circuit plus one flip-influence computation per *node* suffices
//! to evaluate every candidate at that node exactly (on the sampled
//! patterns): a candidate changes the node's value on the lanes where its
//! new function disagrees with the current one, and each such lane flips
//! exactly the outputs the influence masks say it flips.

use alsrac_aig::{Aig, FanoutMap};
use alsrac_metrics::{ErrorMetric, FlipCompare, Measurement};
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
/// Candidates are scored by one [`FlipCompare`] of the current circuit's
/// outputs, which charges each candidate only for the words its flips
/// reach. It decodes distances only when the metric reads them
/// ([`ErrorMetric::needs_distance`]); under [`ErrorMetric::ErrorRate`]
/// they come back as `None`. Either way the result is bit-identical to a
/// full compare of the applied candidate.
pub struct Estimator<'a> {
    current: &'a Aig,
    fanouts: &'a FanoutMap,
    metric: ErrorMetric,
    sim: &'a Simulation,
    /// Node → driven outputs, built once per snapshot so the influence
    /// pass can skip the per-candidate all-outputs scan.
    output_index: OutputIndex,
    compare: FlipCompare<'a>,
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
    /// `current`, the output or pattern shapes disagree, or `metric` is a
    /// distance metric and `current` has more than 63 outputs (the flows
    /// reject that case up front with [`crate::FlowError::MetricUnavailable`]).
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
        assert!(
            !metric.needs_distance() || current.num_outputs() <= 63,
            "{metric} needs integer-decodable outputs"
        );
        Estimator {
            current,
            fanouts,
            metric,
            sim,
            output_index: OutputIndex::new(current),
            compare: FlipCompare::new(
                original_outputs,
                sim.output_words(current),
                patterns.word_masks(),
                patterns.num_patterns(),
                metric.needs_distance(),
            ),
        }
    }

    /// Writes the lanes where a LAC's cover disagrees with the signal it
    /// replaces into `change`: exactly the lanes where the underlying node
    /// flips (polarity cancels in the XOR).
    fn change_mask(&self, lac: &Lac, change: &mut [u64]) {
        sop_eval_words(&lac.cover, &lac.divisors, self.sim, change);
        for (w, word) in change.iter_mut().enumerate() {
            *word ^= self.sim.lit_word(lac.node, w);
        }
    }

    /// Estimates all candidates: the error of applying each one to the
    /// current circuit, relative to the original. Returns the
    /// per-candidate measurements, aligned with `lacs`.
    ///
    /// One stage on the [`alsrac_rt::pool`] executor: each work item is a
    /// run of adjacent candidates at one node (LAC generation and Su emit
    /// candidates grouped by node). It writes the run's change masks into
    /// its worker's buffer, computes that node's [`FlipInfluence`] on the
    /// union of those masks in its worker's scratch (a candidate reads the
    /// influence only on its own change lanes, so every score is the one
    /// the full influence gives), scores the whole run, and drops the
    /// influence, so at most one influence per worker is alive. A node
    /// whose candidates are not adjacent gets its influence computed once
    /// per run: still exact, only slower. Every item is a pure function of
    /// the shared read-only simulations, so the result is bit-identical to
    /// the serial loop at any thread count.
    pub fn estimate_all(&self, lacs: &[Lac]) -> Vec<Measurement> {
        let runs: Vec<&[Lac]> = lacs
            .chunk_by(|a, b| a.node.node() == b.node.node())
            .collect();
        // Telemetry: every candidate beyond the first of a run reuses the
        // run's influence.
        trace::add("lacs_scored", lacs.len() as u64);
        trace::add("influences_computed", runs.len() as u64);
        trace::add("influence_cache_hits", (lacs.len() - runs.len()) as u64);
        let num_words = self.sim.num_words();
        let init = || (InfluenceScratch::new(), Vec::new());
        let scored = pool::par_map_init(&runs, init, |(scratch, masks), run| {
            // Row 0 is the union of the run's change masks, row `1 + i`
            // candidate `i`'s own mask.
            masks.clear();
            masks.resize((run.len() + 1) * num_words, 0);
            let (lanes, changes) = masks.split_at_mut(num_words);
            for (lac, change) in run.iter().zip(changes.chunks_exact_mut(num_words)) {
                self.change_mask(lac, change);
                for (lane, &word) in lanes.iter_mut().zip(change.iter()) {
                    *lane |= word;
                }
            }
            let influence = FlipInfluence::compute(
                self.current,
                self.sim,
                self.fanouts,
                &self.output_index,
                run[0].node.node(),
                lanes,
                scratch,
            );
            changes
                .chunks_exact(num_words)
                .map(|change| self.compare.flipped(&influence, change))
                .collect::<Vec<_>>()
        });
        scored.into_iter().flatten().collect()
    }

    /// Ranks all candidates by (error under the estimator's metric, then
    /// largest estimated gain), best first, as `(index into lacs, error)`.
    /// Candidates whose metric value is NaN are excluded — a NaN compares
    /// as "greater than everything" under a naive sort recovery and must
    /// never outrank a real measurement.
    pub fn ranked_candidates(&self, lacs: &[Lac]) -> Vec<(usize, f64)> {
        let entries = self
            .estimate_all(lacs)
            .iter()
            .zip(lacs)
            .enumerate()
            .map(|(i, (m, lac))| {
                let error = m.value(self.metric).expect("`new` checked the metric");
                (i, error, lac.est_gain())
            })
            .collect();
        rank_entries(entries)
    }
}

/// Orders `(index, error, gain)` entries best-first: ascending error
/// (total order — no NaN surprises), ties broken by descending gain, and
/// returns their `(index, error)` pairs. NaN errors are dropped entirely
/// rather than ranked arbitrarily.
fn rank_entries(entries: Vec<(usize, f64, isize)>) -> Vec<(usize, f64)> {
    let before = entries.len();
    let mut ranked: Vec<(usize, f64, isize)> = entries
        .into_iter()
        .filter(|&(_, value, _)| !value.is_nan())
        .collect();
    trace::add("nan_filtered", (before - ranked.len()) as u64);
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)));
    ranked.into_iter().map(|(i, error, _)| (i, error)).collect()
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
        // A LAC that rebuilds a node from its own fanins flips nothing, so
        // its estimate is the current circuit's own error: the stuck carry
        // is wrong on the 6 of 16 patterns where a + b >= 4.
        let node = current.iter_ands().next().expect("has ands");
        let unchanged = Lac {
            node: node.lit(),
            divisors: current.and_fanins(node).to_vec(),
            cover: Sop::new(vec![alsrac_truthtable::Cube::TAUTOLOGY
                .with_pos(0)
                .with_pos(1)]),
            est_cost: 1,
            est_saved: 1,
        };
        let baseline = estimator.estimate_all(&[unchanged])[0];
        assert_eq!(baseline.error_rate, 6.0 / 16.0);
    }

    /// The ranking is a permutation of the candidates (none of these
    /// errors is NaN), best first, and every entry carries its candidate's
    /// `estimate_all` value under the estimator's metric, bit for bit.
    #[test]
    fn ranked_candidates_sort_the_estimated_errors() {
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
        for metric in [ErrorMetric::ErrorRate, ErrorMetric::Nmed] {
            let estimator = Estimator::new(&outputs, &sim, &aig, &est_patterns, &fanouts, metric);
            let ranked = estimator.ranked_candidates(&lacs);
            let all = estimator.estimate_all(&lacs);
            let mut indices: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..lacs.len()).collect::<Vec<_>>(), "{metric}");
            for &(i, error) in &ranked {
                let value = all[i].value(metric).expect("decodable");
                assert_eq!(error.to_bits(), value.to_bits(), "{metric}: LAC {i}");
            }
            for pair in ranked.windows(2) {
                let ((a, ea), (b, eb)) = (pair[0], pair[1]);
                assert!(
                    ea < eb || ea == eb && lacs[a].est_gain() >= lacs[b].est_gain(),
                    "{metric}: {a} ranked before {b}"
                );
            }
        }
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
    #[should_panic(expected = "NMED needs integer-decodable outputs")]
    fn rejects_a_distance_metric_past_63_outputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        for i in 0..64 {
            aig.add_output(format!("y{i}"), a);
        }
        let patterns = PatternBuffer::exhaustive(1);
        let (outputs, sim) = simulated(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let estimator = |metric| Estimator::new(&outputs, &sim, &aig, &patterns, &fanouts, metric);
        // The error rate needs no decode, so it accepts any output count.
        estimator(ErrorMetric::ErrorRate);
        estimator(ErrorMetric::Nmed);
    }

    #[test]
    fn nan_entries_never_outrank_real_candidates() {
        // A NaN error with a huge gain must be dropped, not sorted first.
        let entries = vec![(0, f64::NAN, 1000), (1, 0.5, 0), (2, 0.1, 0)];
        assert_eq!(rank_entries(entries), vec![(2, 0.1), (1, 0.5)]);
        // All-NaN input ranks nothing.
        assert!(rank_entries(vec![(0, f64::NAN, 0)]).is_empty());
    }

    #[test]
    fn rank_breaks_error_ties_by_largest_gain() {
        let entries = vec![(0, 0.2, 1), (1, 0.2, 5), (2, 0.3, 9)];
        assert_eq!(rank_entries(entries), vec![(1, 0.2), (0, 0.2), (2, 0.3)]);
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
