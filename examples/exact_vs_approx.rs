//! Exact vs approximate resubstitution — the paper's §I argument, live.
//!
//! First a zero-error SAT-based resubstitution pass (the machinery of
//! Mishchenko et al. [14]/[18]) squeezes what it can without changing the
//! function, verified by combinational equivalence checking. Then ALSRAC
//! spends an error budget on top and the circuit shrinks much further —
//! with the runtime of both stages printed for the scalability contrast.
//!
//! ```text
//! cargo run --release --example exact_vs_approx
//! ```

use std::time::Instant;

use alsrac_suite::circuits::arith;
use alsrac_suite::core::exact::exact_resub_pass;
use alsrac_suite::core::flow::{run, FlowConfig};
use alsrac_suite::metrics::{wilson_interval, ErrorMetric};
use alsrac_suite::sat::cec::{equivalent, CecResult};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Paper-scale `log2` stand-in (16 inputs): exact resubstitution finds
    // cheaper functions for some of its nodes, where on an adder it finds none.
    let exact = arith::log2(16, 8);
    println!("original: {exact:?}");

    // Stage 1: exact resubstitution (zero error, SAT-powered).
    let start = Instant::now();
    let (lossless, stats) = exact_resub_pass(&exact);
    let exact_time = start.elapsed();
    println!(
        "exact resubstitution + sweep: {} -> {} ands in {:.2?} \
         ({} nodes examined, {} SAT queries, {} applied)",
        exact.num_ands(),
        lossless.num_ands(),
        exact_time,
        stats.examined,
        stats.sat_queries,
        stats.applied,
    );
    match equivalent(&exact, &lossless) {
        CecResult::Equivalent => println!("CEC: lossless stage verified equivalent"),
        CecResult::Counterexample(cex) => panic!("exact stage changed the function: {cex:?}"),
    }

    // Stage 2: ALSRAC on top, spending a 3% error-rate budget.
    let start = Instant::now();
    let result = run(
        &lossless,
        &FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.03,
            seed: 11,
            ..FlowConfig::default()
        },
    )?;
    let approx_time = start.elapsed();
    println!(
        "ALSRAC (ER <= 3%): {} -> {} ands in {:.2?} ({} LACs)",
        lossless.num_ands(),
        result.approx.num_ands(),
        approx_time,
        result.applied,
    );

    // Statistical certification of the measured error.
    let errors = (result.measured.error_rate * result.measured.num_patterns as f64) as u64;
    let (lo, hi) = wilson_interval(errors, result.measured.num_patterns as u64, 1.96);
    println!(
        "measured ER = {:.4}% over {} patterns (95% CI: {:.4}%..{:.4}%)",
        result.measured.error_rate * 100.0,
        result.measured.num_patterns,
        lo * 100.0,
        hi * 100.0,
    );
    Ok(())
}
