//! Pins when the flow runs its cone-local simulation update: after every
//! accepted LAC whose result the next iteration reuses, and never when an
//! optimize pass is about to restructure the graph anyway.
//!
//! Trace counters are process-wide, so this file is its own test binary
//! holding a single test.

use alsrac_suite::circuits::catalog::{iscas_and_arith, Scale};
use alsrac_suite::core::flow::{run, FlowConfig, FlowResult};
use alsrac_suite::metrics::ErrorMetric;
use alsrac_suite::rt::trace;

/// Runs the flow and returns its result with the `sim_incremental_updates`
/// and `sim_words_saved` counters it added.
fn run_counted(config: &FlowConfig) -> (FlowResult, u64, u64) {
    let circuit = iscas_and_arith(Scale::Test)
        .into_iter()
        .find(|b| b.paper_name == "c1908")
        .expect("catalog has c1908")
        .aig;
    trace::reset();
    let result = run(&circuit, config).expect("flow");
    let (_, counters) = trace::snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let updates = counter("sim_incremental_updates");
    let saved = counter("sim_words_saved");
    (result, updates, saved)
}

#[test]
fn cone_local_updates_run_only_when_the_simulation_is_kept() {
    // Counters accumulate only while a sink is installed.
    trace::enable_writer(Box::new(std::io::sink()));
    let base = FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold: 0.10,
        max_iterations: 40,
        seed: 42,
        ..FlowConfig::default()
    };

    // Optimize off: every accept is followed by an update that copies the
    // rows outside the substitution's TFO.
    let (kept, updates, saved) = run_counted(&FlowConfig {
        optimize_after_apply: false,
        ..base.clone()
    });
    assert!(kept.applied > 0, "no accepted LAC, the check is vacuous");
    assert_eq!(updates, kept.applied as u64);
    assert!(saved > 0, "cone-local updates copied nothing");

    // Default config: an optimize pass follows every accept, so no update
    // is worth running.
    let (optimized, updates, saved) = run_counted(&base);
    assert!(
        optimized.applied > 0,
        "no accepted LAC, the check is vacuous"
    );
    assert_eq!(updates, 0);
    assert_eq!(saved, 0);
    trace::disable();
}
