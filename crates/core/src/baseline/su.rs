//! Su's method: SASIMI-style single-signal substitution with batch error
//! estimation (the DAC 2018 baseline of Tables IV and V).
//!
//! Each LAC substitutes a node `V` by another signal `s` (or `!s`, or a
//! constant) whose simulated behaviour is most similar to `V`'s. Candidate
//! errors are evaluated with the same batch estimation machinery as
//! ALSRAC; the least-error candidate is applied, the circuit re-optimized,
//! and the loop repeats until no candidate stays within the threshold.
//!
//! Compared to ALSRAC the expressive power per change is lower — a single
//! signal instead of a multi-input resubstitution function — which is
//! exactly the gap the paper quantifies.

use alsrac_aig::{Aig, NodeId};
use alsrac_metrics::ErrorMetric;
use alsrac_sim::{PatternBuffer, Simulation};
use alsrac_truthtable::{Cube, Sop};

use crate::estimate::Estimator;
use crate::flow::FlowResult;
use crate::lac::Lac;
use crate::skeleton::{Iteration, Run, Spec};
use crate::FlowError;

/// Parameters for [`run`].
#[derive(Clone, Debug)]
pub struct SuConfig {
    /// The constrained error metric.
    pub metric: ErrorMetric,
    /// The error threshold.
    pub threshold: f64,
    /// Similar signals considered per node (each in both polarities).
    pub candidates_per_node: usize,
    /// Patterns for batch error estimation (exhaustive under 14 inputs).
    pub est_rounds: usize,
    /// Patterns for the final measurement.
    pub measure_rounds: usize,
    /// RNG seed for the sampled pattern buffers.
    pub seed: u64,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Re-optimize after each accepted substitution.
    pub optimize_after_apply: bool,
    /// Re-optimize only every this many accepted substitutions (1 = after
    /// each; larger trades area for speed). The final result is always
    /// optimized.
    pub optimize_period: usize,
}

impl Default for SuConfig {
    fn default() -> SuConfig {
        SuConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.01,
            candidates_per_node: 3,
            est_rounds: 2048,
            measure_rounds: 50_000,
            seed: 1,
            max_iterations: 10_000,
            optimize_after_apply: true,
            optimize_period: 1,
        }
    }
}

/// A substitution `V := s` as a [`Lac`]: one divisor, identity or
/// complement cover.
fn substitution_lac(node: NodeId, signal: NodeId, complement: bool, saved: usize) -> Lac {
    let cover = if complement {
        Sop::new(vec![Cube::TAUTOLOGY.with_neg(0)])
    } else {
        Sop::new(vec![Cube::TAUTOLOGY.with_pos(0)])
    };
    Lac {
        node: node.lit(),
        divisors: vec![signal.lit()],
        cover,
        est_cost: 0,
        est_saved: saved,
    }
}

/// A substitution `V := const` as a [`Lac`] (no divisors).
fn constant_lac(node: NodeId, one: bool, saved: usize) -> Lac {
    Lac {
        node: node.lit(),
        divisors: Vec::new(),
        cover: if one {
            Sop::new(vec![Cube::TAUTOLOGY])
        } else {
            Sop::zero()
        },
        est_cost: 0,
        est_saved: saved,
    }
}

/// Candidate-search window: each node is compared against this many
/// popcount-neighbouring signals per polarity. Signals with similar
/// simulated behaviour have similar on-counts, so sorting by signature
/// popcount brings likely substitution partners together and replaces the
/// quadratic all-pairs scan of plain SASIMI with an `O(n*W)` one.
const SIMILARITY_WINDOW: usize = 48;

/// Generates SASIMI candidates: for each node, its most similar non-TFO
/// signals (both polarities) plus the two constants, ranked on `sim`, the
/// simulation of `aig` on `patterns`.
fn generate_candidates(
    aig: &Aig,
    sim: &Simulation,
    patterns: &PatternBuffer,
    fanouts: &alsrac_aig::FanoutMap,
    per_node: usize,
) -> Vec<Lac> {
    let masks = patterns.word_masks();
    let total_bits: u32 = masks.iter().map(|m| m.count_ones()).sum();
    let mut lacs = Vec::new();

    // Signatures sorted by popcount, once per call.
    let popcount = |id: NodeId| -> u32 {
        (0..sim.num_words())
            .map(|w| (sim.node_word(id, w) & masks[w]).count_ones())
            .sum()
    };
    let mut by_count: Vec<(u32, NodeId)> = aig
        .iter_nodes()
        .skip(1)
        .map(|id| (popcount(id), id))
        .collect();
    by_count.sort_unstable();
    let position: std::collections::HashMap<NodeId, usize> = by_count
        .iter()
        .enumerate()
        .map(|(i, &(_, id))| (id, i))
        .collect();

    let distance = |a: NodeId, b: NodeId| -> (u32, u32) {
        let mut diff = 0u32;
        for (w, &m) in masks.iter().enumerate().take(sim.num_words()) {
            diff += ((sim.node_word(a, w) ^ sim.node_word(b, w)) & m).count_ones();
        }
        (diff, total_bits - diff) // (positive polarity, complement)
    };

    for node in aig.iter_ands() {
        let tfo = aig.tfo_cone(node, fanouts);
        let saved = aig.mffc(node, fanouts).len();
        let mut ranked: Vec<(u32, NodeId, bool)> = Vec::new();
        let consider = |other: NodeId, ranked: &mut Vec<(u32, NodeId, bool)>| {
            if other == node || tfo.contains(other) {
                return;
            }
            let (diff, same) = distance(node, other);
            ranked.push((diff, other, false));
            ranked.push((same, other, true));
        };
        // Positive-polarity window around the node's own popcount, plus the
        // complement window mirrored around total - popcount.
        let center = position[&node];
        let lo = center.saturating_sub(SIMILARITY_WINDOW);
        let hi = (center + SIMILARITY_WINDOW).min(by_count.len());
        for &(_, other) in &by_count[lo..hi] {
            consider(other, &mut ranked);
        }
        let mirrored = total_bits - by_count[center].0;
        let mirror_center = by_count.partition_point(|&(c, _)| c < mirrored);
        let lo = mirror_center.saturating_sub(SIMILARITY_WINDOW);
        let hi = (mirror_center + SIMILARITY_WINDOW).min(by_count.len());
        for &(_, other) in &by_count[lo..hi] {
            consider(other, &mut ranked);
        }
        ranked.sort_unstable();
        ranked.dedup();
        for &(_d, signal, complement) in ranked.iter().take(per_node) {
            lacs.push(substitution_lac(node, signal, complement, saved));
        }
        // Constant candidates (Shin/Gupta-style, part of SASIMI's space).
        lacs.push(constant_lac(node, false, saved));
        lacs.push(constant_lac(node, true, saved));
    }
    lacs
}

/// Runs Su's method on `original`.
///
/// # Errors
///
/// Same contract as [`crate::flow::run`].
pub fn run(original: &Aig, config: &SuConfig) -> Result<FlowResult, FlowError> {
    let spec = Spec {
        flow: "su",
        metric: config.metric,
        threshold: config.threshold,
        seed: config.seed,
        est_rounds: config.est_rounds,
        est_seed: config.seed ^ 0xE57,
        measure_rounds: config.measure_rounds,
        measure_seed: config.seed ^ 0x3EA5,
        input_bias: None,
        optimize_period: config
            .optimize_after_apply
            .then_some(config.optimize_period.max(1)),
    };
    spec.check(original)?;
    let est_patterns = spec.estimation_patterns(original);
    let mut run = Run::start(original, spec);
    let original_outputs = Simulation::new(original, &est_patterns).output_words(original);
    let mut current = original.cleaned();
    let mut iterations = 0usize;

    while iterations < config.max_iterations {
        iterations += 1;
        let mut it = Iteration::new(iterations, est_patterns.num_patterns());
        let fanouts = current.fanout_map();
        // One sweep of `current` serves both the similarity ranking and
        // the error estimates.
        let sim = it.time("estimate", || Simulation::new(&current, &est_patterns));
        let lacs = it.time("lac_gen", || {
            generate_candidates(
                &current,
                &sim,
                &est_patterns,
                &fanouts,
                config.candidates_per_node,
            )
        });
        if lacs.is_empty() {
            run.reject(&it, "no_candidates", 0);
            break;
        }
        let best = it.time("estimate", || {
            Estimator::new(
                &original_outputs,
                &sim,
                &current,
                &est_patterns,
                &fanouts,
                config.metric,
            )
            .best_candidate(&lacs)
        });
        let Some((best_idx, best_m)) = best else {
            break;
        };
        let best_error = best_m.value(config.metric).expect("checked up front");
        if best_error > config.threshold {
            run.reject(&it, "over_budget", lacs.len());
            break;
        }
        let applied = it.time("apply", || {
            lacs[best_idx]
                .apply(&current)
                .expect("substitution targets are single non-TFO signals, so no cycle")
        });
        let due = run.optimize_due();
        current = it.optimize(&mut run, due, applied);
        run.accept(&it, lacs.len(), &lacs[best_idx], best_error, &current);
        if current.num_ands() == 0 {
            break;
        }
    }

    let current = run.optimize_rest(current);
    run.finish(current, iterations, None, |_| None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_error_threshold() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(4);
        let config = SuConfig {
            threshold: 0.05,
            max_iterations: 100,
            ..SuConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(result.measured.error_rate <= 0.05 + 1e-12);
        assert!(result.approx.num_ands() <= exact.num_ands());
    }

    #[test]
    fn saves_area_at_loose_threshold() {
        let exact = alsrac_circuits::arith::kogge_stone_adder(4);
        let config = SuConfig {
            threshold: 0.30,
            max_iterations: 200,
            ..SuConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(result.approx.num_ands() < exact.num_ands());
        assert!(result.applied > 0);
    }

    #[test]
    fn substitution_lacs_apply_cleanly() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b);
        let y = aig.and(x, c);
        aig.add_output("y", y);
        // y := !x.
        let lac = substitution_lac(y.node(), x.node(), true, 1);
        let approx = lac.apply(&aig).expect("no cycle");
        assert_eq!(approx.evaluate(&[true, true, false]), vec![false]);
        assert_eq!(approx.evaluate(&[false, true, false]), vec![true]);
        // x := const1.
        let lac = constant_lac(x.node(), true, 1);
        let approx = lac.apply(&aig).expect("no cycle");
        assert_eq!(approx.evaluate(&[false, false, true]), vec![true]);
    }

    #[test]
    fn candidates_avoid_tfo_cycles() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::exhaustive(6);
        let fanouts = exact.fanout_map();
        let sim = Simulation::new(&exact, &patterns);
        let lacs = generate_candidates(&exact, &sim, &patterns, &fanouts, 3);
        for lac in &lacs {
            for &d in &lac.divisors {
                let tfo = exact.tfo_cone(lac.node.node(), &fanouts);
                assert!(!tfo.contains(d.node()), "candidate uses TFO signal");
            }
            // Applying must never cycle.
            lac.apply(&exact).expect("no cycle");
        }
    }

    #[test]
    fn nmed_mode_respects_threshold() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(3);
        let config = SuConfig {
            metric: ErrorMetric::Nmed,
            threshold: 0.03,
            max_iterations: 60,
            ..SuConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(result.measured.nmed.expect("decodable") <= 0.03 + 1e-12);
    }

    #[test]
    fn rejects_bad_config() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(2);
        for (cfg, param) in [
            (
                SuConfig {
                    threshold: f64::NAN,
                    ..SuConfig::default()
                },
                "threshold",
            ),
            (
                SuConfig {
                    threshold: 0.0,
                    ..SuConfig::default()
                },
                "threshold",
            ),
            (
                SuConfig {
                    est_rounds: 0,
                    ..SuConfig::default()
                },
                "est_rounds",
            ),
            (
                SuConfig {
                    measure_rounds: 0,
                    ..SuConfig::default()
                },
                "measure_rounds",
            ),
        ] {
            let err = run(&exact, &cfg).expect_err(param);
            assert!(
                matches!(err, FlowError::InvalidConfig { parameter, .. } if parameter == param),
                "{param}: {err}"
            );
        }
    }
}
