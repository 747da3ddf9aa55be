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
use alsrac_metrics::{measure_auto, ErrorMetric};
use alsrac_rt::json::Obj;
use alsrac_rt::trace;
use alsrac_sim::PatternBuffer;
use alsrac_truthtable::{Cube, Sop};

use crate::estimate::Estimator;
use crate::flow::{
    accepted_record, check_circuit, rejected_record, run_end_record, run_start_record, FlowResult,
    IterationRecord,
};
use crate::lac::Lac;
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
/// signals (both polarities) plus the two constants.
fn generate_candidates(
    aig: &Aig,
    estimator: &Estimator<'_>,
    fanouts: &alsrac_aig::FanoutMap,
    per_node: usize,
) -> Vec<Lac> {
    let sim = estimator.simulation();
    let patterns = estimator.patterns();
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
    check_circuit(original, config.metric)?;
    let est_patterns = if original.num_inputs() <= crate::flow::EXHAUSTIVE_ESTIMATION_LIMIT {
        PatternBuffer::exhaustive(original.num_inputs())
    } else {
        PatternBuffer::random(
            original.num_inputs(),
            config.est_rounds,
            config.seed ^ 0xE57,
        )
    };

    let run_id = trace::next_run_id();
    let flow_span = trace::span("flow");
    if trace::is_enabled() {
        trace::emit(run_start_record(
            run_id,
            "su",
            original,
            config.seed,
            config.metric,
            config.threshold,
        ));
    }

    let mut current = original.cleaned();
    let mut applied = 0usize;
    let mut iterations = 0usize;
    let mut history = Vec::new();

    while iterations < config.max_iterations {
        iterations += 1;
        let rounds = est_patterns.num_patterns();
        let est_span = trace::span("estimate");
        let fanouts = current.fanout_map();
        let estimator = Estimator::new(original, &current, &est_patterns, &fanouts, config.metric);
        let mut est_ns = est_span.finish();
        let lac_span = trace::span("lac_gen");
        let lacs = generate_candidates(&current, &estimator, &fanouts, config.candidates_per_node);
        let lac_ns = lac_span.finish();
        if lacs.is_empty() {
            if trace::is_enabled() {
                trace::emit(
                    rejected_record(run_id, iterations, "no_candidates", 0, rounds).obj(
                        "phase_ns",
                        Obj::new().u64("estimate", est_ns).u64("lac_gen", lac_ns),
                    ),
                );
            }
            break;
        }
        let rank_span = trace::span("estimate");
        let best = estimator.best_candidate(&lacs);
        est_ns += rank_span.finish();
        let Some((best_idx, best_m)) = best else {
            break;
        };
        let best_error = best_m.value(config.metric).expect("checked up front");
        if best_error > config.threshold {
            if trace::is_enabled() {
                trace::emit(
                    rejected_record(run_id, iterations, "over_budget", lacs.len(), rounds).obj(
                        "phase_ns",
                        Obj::new().u64("estimate", est_ns).u64("lac_gen", lac_ns),
                    ),
                );
            }
            break;
        }
        let apply_span = trace::span("apply");
        current = lacs[best_idx]
            .apply(&current)
            .expect("substitution targets are single non-TFO signals, so no cycle");
        let apply_ns = apply_span.finish();
        applied += 1;
        let opt_span = trace::span("optimize");
        if config.optimize_after_apply && applied.is_multiple_of(config.optimize_period.max(1)) {
            current = alsrac_synth::optimize(&current);
        }
        let opt_ns = opt_span.finish();
        history.push(IterationRecord {
            estimated_error: best_error,
            ands: current.num_ands(),
            rounds: est_patterns.num_patterns(),
        });
        if trace::is_enabled() {
            trace::emit(
                accepted_record(
                    run_id,
                    iterations,
                    lacs.len(),
                    rounds,
                    &lacs[best_idx],
                    best_error,
                    &current,
                )
                .obj(
                    "phase_ns",
                    Obj::new()
                        .u64("estimate", est_ns)
                        .u64("lac_gen", lac_ns)
                        .u64("apply", apply_ns)
                        .u64("optimize", opt_ns),
                ),
            );
        }
        if current.num_ands() == 0 {
            break;
        }
    }

    // Final optimize only when accepted substitutions are still
    // unoptimized (same guard as the ALSRAC flow).
    if config.optimize_after_apply
        && applied > 0
        && !applied.is_multiple_of(config.optimize_period.max(1))
    {
        current = alsrac_synth::optimize(&current);
    }
    let measure_span = trace::span("measure");
    let measured = measure_auto(
        original,
        &current,
        config.measure_rounds,
        config.seed ^ 0x3EA5,
    )?;
    let measure_ns = measure_span.finish();
    let wall_ns = flow_span.finish();
    if trace::is_enabled() {
        trace::emit(run_end_record(
            run_id,
            iterations,
            applied,
            &current,
            wall_ns,
            measure_ns,
            &measured,
            None,
            &crate::flow::FlowOutcome::Completed,
            None,
        ));
    }
    Ok(FlowResult {
        approx: current,
        iterations,
        applied,
        measured,
        certificate: None,
        history,
        outcome: crate::flow::FlowOutcome::Completed,
        checkpoint: None,
    })
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
        let estimator = Estimator::new(&exact, &exact, &patterns, &fanouts, ErrorMetric::ErrorRate);
        let lacs = generate_candidates(&exact, &estimator, &fanouts, 3);
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
}
