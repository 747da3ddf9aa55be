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
use alsrac_metrics::ErrorMetric;
use alsrac_rt::{derive_indexed, derive_seed, Rng, Stream};
use alsrac_sim::Simulation;

use crate::estimate::Estimator;
use crate::flow::FlowResult;
use crate::lac::{generate_lacs, LacConfig};
use crate::skeleton::{invalid, Iteration, Run, Spec};
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
/// Same contract as [`crate::flow::run`], plus
/// [`FlowError::InvalidConfig`] for zero `proposal_rounds`.
pub fn run(original: &Aig, config: &LiuConfig) -> Result<FlowResult, FlowError> {
    if config.proposal_rounds == 0 {
        return Err(invalid("proposal_rounds", "must be positive"));
    }
    let spec = Spec {
        flow: "liu",
        metric: config.metric,
        threshold: config.threshold,
        seed: config.seed,
        est_rounds: config.est_rounds,
        est_seed: derive_seed(config.seed, Stream::Estimation),
        measure_rounds: config.measure_rounds,
        measure_seed: derive_seed(config.seed, Stream::Measurement),
        input_bias: None,
        optimize_period: (config.optimize_period > 0).then_some(config.optimize_period),
    };
    spec.check(original)?;
    let mut rng = Rng::for_stream(config.seed, Stream::Proposal);
    let est_patterns = spec.estimation_patterns(original);
    let mut run = Run::start(original, spec);
    let original_outputs = Simulation::new(original, &est_patterns).output_words(original);
    let mut current = original.cleaned();
    let mut best = current.clone();
    let mut temperature = config.initial_temperature;

    for step in 0..config.steps {
        let mut it = Iteration::new(step + 1, config.proposal_rounds);
        temperature *= config.cooling;
        // Propose: random LACs from a fresh small care simulation.
        let (care_patterns, care_sim) = it.time("care_sim", || {
            let seed = derive_indexed(config.seed, Stream::Care, step as u64);
            let patterns = spec.draw(current.num_inputs(), config.proposal_rounds, seed);
            let sim = Simulation::new(&current, &patterns);
            (patterns, sim)
        });
        let (fanouts, pool) = it.time("lac_gen", || {
            let fanouts = current.fanout_map();
            let pool = generate_lacs(
                &current,
                &care_sim,
                &care_patterns,
                &fanouts,
                &LacConfig::default(),
            );
            (fanouts, pool)
        });
        if pool.is_empty() {
            run.reject(&it, "no_candidates", 0);
            continue;
        }
        let proposal = &pool[rng.gen_range(0..pool.len())];

        // Constraint check by batch estimation against the original.
        let m = it.time("estimate", || {
            let sim = Simulation::new(&current, &est_patterns);
            Estimator::new(
                &original_outputs,
                &sim,
                &current,
                &est_patterns,
                &fanouts,
                config.metric,
            )
            .estimate_all(std::slice::from_ref(proposal))[0]
        });
        let Some(error) = m.value(config.metric) else {
            break;
        };
        if error > config.threshold {
            run.reject(&it, "over_budget", pool.len());
            continue; // constraint violated: reject outright
        }

        // Metropolis on the (estimated) area change.
        let delta = -(proposal.est_gain() as f64);
        let accept = delta <= 0.0 || {
            let p = (-delta / temperature.max(1e-9)).exp();
            rng.gen_bool(p.clamp(0.0, 1.0))
        };
        if !accept {
            run.reject(&it, "metropolis_reject", pool.len());
            continue;
        }
        let Ok(applied) = it.time("apply", || proposal.apply(&current)) else {
            run.reject(&it, "cycle", pool.len());
            continue; // cover hashed onto its own fanout: skip
        };
        current = applied;
        let optimize = run.optimize_due();
        it.time("optimize", || {
            if optimize {
                current = run.optimize(&current);
            }
            if current.num_ands() < best.num_ands() {
                best = run.optimize(&current);
            }
        });
        run.accept(&it, pool.len(), proposal, error, &current);
    }
    let final_candidate = run.optimize(&current);
    if final_candidate.num_ands() < best.num_ands() {
        best = final_candidate;
    }

    // Statistical certification of the returned design.
    run.finish(best, config.steps, None, |_| None)
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

    #[test]
    fn rejects_bad_config() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(2);
        for (cfg, param) in [
            (
                LiuConfig {
                    threshold: f64::NAN,
                    ..LiuConfig::default()
                },
                "threshold",
            ),
            (
                LiuConfig {
                    threshold: 0.0,
                    ..LiuConfig::default()
                },
                "threshold",
            ),
            (
                LiuConfig {
                    est_rounds: 0,
                    ..LiuConfig::default()
                },
                "est_rounds",
            ),
            (
                LiuConfig {
                    measure_rounds: 0,
                    ..LiuConfig::default()
                },
                "measure_rounds",
            ),
            (
                LiuConfig {
                    proposal_rounds: 0,
                    ..LiuConfig::default()
                },
                "proposal_rounds",
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
