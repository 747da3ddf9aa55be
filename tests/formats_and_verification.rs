//! Integration tests for the interchange formats and the SAT-based
//! verification layer: AIGER/BLIF/Verilog emission of flow outputs, CEC of
//! the exact transforms at sizes beyond exhaustive reach, and statistical
//! certification of measured errors.

use alsrac_suite::circuits::{aiger, arith, blif, verilog};
use alsrac_suite::core::exact::exact_resub_pass;
use alsrac_suite::core::flow::{run, FlowConfig};
use alsrac_suite::metrics::ErrorMetric;
use alsrac_suite::metrics::{error_rate_upper_bound, samples_for_certification};
use alsrac_suite::sat::cec::{equivalent, CecResult};
use alsrac_suite::synth;

#[test]
fn flow_output_round_trips_through_aiger() {
    let exact = arith::wallace_multiplier(3);
    let result = run(
        &exact,
        &FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.05,
            max_iterations: 150,
            ..FlowConfig::default()
        },
    )
    .expect("flow");
    for (label, parsed) in [
        (
            "ascii",
            aiger::parse_ascii(&aiger::write_ascii(&result.approx)).expect("aag"),
        ),
        (
            "binary",
            aiger::parse_binary(&aiger::write_binary(&result.approx)).expect("aig"),
        ),
    ] {
        for p in 0..64u64 {
            let bits: Vec<bool> = (0..6).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(
                parsed.evaluate(&bits),
                result.approx.evaluate(&bits),
                "{label} pattern {p:b}"
            );
        }
    }
}

#[test]
fn cec_certifies_optimizer_beyond_exhaustive_reach() {
    // 24 inputs: exhaustive simulation is out of the question; the miter
    // is how we know resyn2-lite is still exact at this size.
    let original = arith::ripple_carry_adder(12);
    let optimized = synth::optimize(&original);
    assert_eq!(equivalent(&original, &optimized), CecResult::Equivalent);
}

#[test]
fn cec_catches_an_injected_bug() {
    let original = arith::kogge_stone_adder(6);
    let mut broken = original.clone();
    let last = broken.num_outputs() - 1;
    broken.set_output_lit(last, alsrac_suite::aig::Lit::TRUE);
    let CecResult::Counterexample(cex) = equivalent(&original, &broken) else {
        panic!("expected a counterexample");
    };
    assert_ne!(original.evaluate(&cex), broken.evaluate(&cex));
}

#[test]
fn exact_resub_then_alsrac_composes() {
    let exact = arith::kogge_stone_adder(5);
    let (lossless, _) = exact_resub_pass(&exact);
    assert_eq!(equivalent(&exact, &lossless), CecResult::Equivalent);
    let result = run(
        &lossless,
        &FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.04,
            max_iterations: 150,
            ..FlowConfig::default()
        },
    )
    .expect("flow");
    // The budget still holds relative to the lossless stage, which is
    // function-identical to the original.
    assert!(result.measured.error_rate <= 0.04 + 1e-12);
}

#[test]
fn verilog_emission_covers_flow_output() {
    let exact = arith::ripple_carry_adder(4);
    let result = run(
        &exact,
        &FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.05,
            max_iterations: 100,
            ..FlowConfig::default()
        },
    )
    .expect("flow");
    let v = verilog::write(&result.approx);
    assert!(v.contains("module"));
    assert_eq!(
        v.matches("assign").count(),
        result.approx.num_ands() + result.approx.num_outputs()
    );
    // And BLIF for the same circuit parses back.
    let reparsed = blif::parse(&blif::write(&result.approx)).expect("blif");
    assert_eq!(reparsed.num_outputs(), result.approx.num_outputs());
}

#[test]
fn measured_errors_carry_meaningful_confidence_bounds() {
    let exact = arith::ripple_carry_adder(4);
    let result = run(
        &exact,
        &FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.05,
            max_iterations: 150,
            ..FlowConfig::default()
        },
    )
    .expect("flow");
    let upper = error_rate_upper_bound(&result.measured, 1.96);
    assert!(upper >= result.measured.error_rate);
    // Exhaustive measurement on 8 inputs: the bound is close to the point.
    assert!(upper - result.measured.error_rate < 0.05);
    // Certification planning: 10x tighter budget needs ~10x the samples.
    let a = samples_for_certification(0.01, 1.96);
    let b = samples_for_certification(0.001, 1.96);
    assert!(b > 8 * a && b < 12 * a);
}
