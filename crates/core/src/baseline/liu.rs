//! Liu's method: stochastic approximate logic synthesis with statistical
//! certification (the ICCAD 2017 baseline of Tables VI and VII).
//!
//! The original work explores the design space with Markov-chain
//! Monte-Carlo: random local modifications are proposed, accepted with a
//! Metropolis criterion on the area objective subject to the error
//! constraint, and the final design is certified by simulation. This
//! reimplementation proposes random single-signal substitutions and random
//! approximate resubstitutions (drawn from the same LAC pool ALSRAC uses,
//! but *sampled* rather than greedily ranked), tracks the best circuit
//! seen, and certifies it at the end.

use alsrac_aig::Aig;
use alsrac_metrics::{measure_auto, ErrorMetric};
use alsrac_rt::json::Obj;
use alsrac_rt::{derive_indexed, derive_seed, trace, Rng, Stream};
use alsrac_sim::{PatternBuffer, Simulation};

use crate::estimate::Estimator;
use crate::flow::{
    accepted_record, check_circuit, rejected_record, run_end_record, run_start_record, FlowResult,
    IterationRecord,
};
use crate::lac::{generate_lacs, LacConfig};
use crate::FlowError;

/// Parameters for [`run`].
#[derive(Clone, Debug)]
pub struct LiuConfig {
    /// The constrained error metric.
    pub metric: ErrorMetric,
    /// The error threshold.
    pub threshold: f64,
    /// MCMC proposal steps.
    pub steps: usize,
    /// Initial Metropolis temperature (in AND-node units).
    pub initial_temperature: f64,
    /// Multiplicative cooling per step.
    pub cooling: f64,
    /// Care-simulation rounds used when proposing resubstitution moves.
    pub proposal_rounds: usize,
    /// Patterns for error estimation (exhaustive under 14 inputs).
    pub est_rounds: usize,
    /// Patterns for the final certification measurement.
    pub measure_rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Re-optimize with the traditional script every this many accepted
    /// moves.
    pub optimize_period: usize,
}

impl Default for LiuConfig {
    fn default() -> LiuConfig {
        LiuConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.01,
            steps: 300,
            initial_temperature: 4.0,
            cooling: 0.995,
            proposal_rounds: 16,
            est_rounds: 2048,
            measure_rounds: 50_000,
            seed: 1,
            optimize_period: 10,
        }
    }
}

/// Runs the stochastic baseline on `original`.
///
/// # Errors
///
/// Same contract as [`crate::flow::run`].
pub fn run(original: &Aig, config: &LiuConfig) -> Result<FlowResult, FlowError> {
    check_circuit(original, config.metric)?;
    let mut rng = Rng::for_stream(config.seed, Stream::Proposal);
    let est_patterns = if original.num_inputs() <= crate::flow::EXHAUSTIVE_ESTIMATION_LIMIT {
        PatternBuffer::exhaustive(original.num_inputs())
    } else {
        PatternBuffer::random(
            original.num_inputs(),
            config.est_rounds,
            derive_seed(config.seed, Stream::Estimation),
        )
    };

    let run_id = trace::next_run_id();
    let flow_span = trace::span("flow");
    if trace::is_enabled() {
        trace::emit(run_start_record(
            run_id,
            "liu",
            original,
            config.seed,
            config.metric,
            config.threshold,
        ));
    }

    let mut current = original.cleaned();
    let mut best = current.clone();
    let mut temperature = config.initial_temperature;
    let mut applied = 0usize;
    let mut history = Vec::new();

    for step in 0..config.steps {
        let iter = step + 1;
        let reject = |reason: &str, candidates: usize, phases: Obj| {
            if trace::is_enabled() {
                trace::emit(
                    rejected_record(run_id, iter, reason, candidates, config.proposal_rounds)
                        .obj("phase_ns", phases),
                );
            }
        };
        temperature *= config.cooling;
        // Propose: random LACs from a fresh small care simulation.
        let care_span = trace::span("care_sim");
        let care_patterns = PatternBuffer::random(
            current.num_inputs(),
            config.proposal_rounds.max(1),
            derive_indexed(config.seed, Stream::Care, step as u64),
        );
        let care_sim = Simulation::new(&current, &care_patterns);
        let care_ns = care_span.finish();
        let lac_span = trace::span("lac_gen");
        let fanouts = current.fanout_map();
        let pool = generate_lacs(
            &current,
            &care_sim,
            &care_patterns,
            &fanouts,
            &LacConfig::default(),
        );
        let lac_ns = lac_span.finish();
        let phases = || -> Obj { Obj::new().u64("care_sim", care_ns).u64("lac_gen", lac_ns) };
        if pool.is_empty() {
            reject("no_candidates", 0, phases());
            continue;
        }
        let proposal = &pool[rng.gen_range(0..pool.len())];

        // Constraint check by batch estimation against the original.
        let est_span = trace::span("estimate");
        let estimator = Estimator::new(original, &current, &est_patterns, &fanouts, config.metric);
        let m = estimator.estimate_all(std::slice::from_ref(proposal))[0];
        let est_ns = est_span.finish();
        let Some(error) = m.value(config.metric) else {
            break;
        };
        if error > config.threshold {
            reject("over_budget", pool.len(), phases().u64("estimate", est_ns));
            continue; // constraint violated: reject outright
        }

        // Metropolis on the (estimated) area change.
        let delta = -(proposal.est_gain() as f64);
        let accept = delta <= 0.0 || {
            let p = (-delta / temperature.max(1e-9)).exp();
            rng.gen_bool(p.clamp(0.0, 1.0))
        };
        if !accept {
            reject(
                "metropolis_reject",
                pool.len(),
                phases().u64("estimate", est_ns),
            );
            continue;
        }
        let apply_span = trace::span("apply");
        current = match proposal.apply(&current) {
            Ok(aig) => aig,
            Err(_) => {
                apply_span.finish();
                reject("cycle", pool.len(), phases().u64("estimate", est_ns));
                continue; // cover hashed onto its own fanout: skip
            }
        };
        let apply_ns = apply_span.finish();
        applied += 1;
        let opt_span = trace::span("optimize");
        if config.optimize_period > 0 && applied.is_multiple_of(config.optimize_period) {
            current = alsrac_synth::optimize(&current);
        }
        history.push(IterationRecord {
            estimated_error: error,
            ands: current.num_ands(),
            rounds: config.proposal_rounds,
        });
        if current.num_ands() < best.num_ands() {
            best = alsrac_synth::optimize(&current);
        }
        let opt_ns = opt_span.finish();
        if trace::is_enabled() {
            trace::emit(
                accepted_record(
                    run_id,
                    iter,
                    pool.len(),
                    config.proposal_rounds,
                    proposal,
                    error,
                    &current,
                )
                .obj(
                    "phase_ns",
                    phases()
                        .u64("estimate", est_ns)
                        .u64("apply", apply_ns)
                        .u64("optimize", opt_ns),
                ),
            );
        }
    }
    let final_candidate = alsrac_synth::optimize(&current);
    if final_candidate.num_ands() < best.num_ands() {
        best = final_candidate;
    }

    // Statistical certification of the returned design.
    let measure_span = trace::span("measure");
    let measured = measure_auto(
        original,
        &best,
        config.measure_rounds,
        derive_seed(config.seed, Stream::Measurement),
    )?;
    let measure_ns = measure_span.finish();
    let wall_ns = flow_span.finish();
    if trace::is_enabled() {
        trace::emit(run_end_record(
            run_id,
            config.steps,
            applied,
            &best,
            wall_ns,
            measure_ns,
            &measured,
            None,
            &crate::flow::FlowOutcome::Completed,
            None,
        ));
    }
    Ok(FlowResult {
        approx: best,
        iterations: config.steps,
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
        let config = LiuConfig {
            threshold: 0.05,
            steps: 120,
            ..LiuConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(
            result.measured.error_rate <= 0.05 + 1e-12,
            "measured {}",
            result.measured.error_rate
        );
        assert!(result.approx.num_ands() <= exact.num_ands());
    }

    #[test]
    fn different_seeds_can_differ() {
        // The defining property of a stochastic method (§I): runs vary.
        let exact = alsrac_circuits::arith::kogge_stone_adder(3);
        let sizes: Vec<usize> = (0..4)
            .map(|seed| {
                let config = LiuConfig {
                    threshold: 0.20,
                    steps: 80,
                    seed,
                    ..LiuConfig::default()
                };
                run(&exact, &config).expect("flow").approx.num_ands()
            })
            .collect();
        // Not a hard guarantee per-pair, but across four seeds at a loose
        // threshold at least two outcomes should differ.
        assert!(
            sizes.windows(2).any(|w| w[0] != w[1]),
            "all seeds identical: {sizes:?}"
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(3);
        let config = LiuConfig {
            threshold: 0.10,
            steps: 60,
            seed: 9,
            ..LiuConfig::default()
        };
        let a = run(&exact, &config).expect("flow");
        let b = run(&exact, &config).expect("flow");
        assert_eq!(a.approx.num_ands(), b.approx.num_ands());
        assert_eq!(a.measured.error_rate, b.measured.error_rate);
    }

    #[test]
    fn saves_area_at_loose_threshold() {
        let exact = alsrac_circuits::arith::kogge_stone_adder(4);
        let config = LiuConfig {
            threshold: 0.30,
            steps: 200,
            ..LiuConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(
            result.approx.num_ands() < exact.num_ands(),
            "{} -> {}",
            exact.num_ands(),
            result.approx.num_ands()
        );
    }
}
