//! Pins how many simulation sweeps each search method runs. The original
//! is simulated once per run on the fixed estimation patterns, the current
//! circuit once per care draw (ALSRAC and Liu) and once per estimate
//! phase, and the final exhaustive measurement sweeps both circuits.
//!
//! Trace counters are process-wide, so this file is its own test binary
//! holding a single test.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use alsrac_suite::circuits::catalog::{iscas_and_arith, Scale};
use alsrac_suite::core::baseline::{liu, su};
use alsrac_suite::core::flow::{self, FlowConfig, FlowResult};
use alsrac_suite::metrics::{ErrorMetric, EXHAUSTIVE_INPUT_LIMIT};
use alsrac_suite::rt::json::Json;
use alsrac_suite::rt::trace;

/// An in-memory trace sink.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("no writer panicked")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one flow under a fresh trace. Returns its result, the sweeps the
/// `simulations` counter saw, and how many of its iterations found no
/// candidate (and so had no estimate phase).
fn counted(run: impl FnOnce() -> FlowResult) -> (FlowResult, u64, u64) {
    let capture = Capture::default();
    trace::reset();
    trace::enable_writer(Box::new(capture.clone()));
    let result = run();
    trace::disable();
    let (_, counters) = trace::snapshot();
    let simulations = counters
        .iter()
        .find(|(name, _)| name == "simulations")
        .map_or(0, |&(_, value)| value);
    let text = String::from_utf8(capture.0.lock().expect("no writer panicked").clone())
        .expect("trace is UTF-8");
    let no_candidates = text
        .lines()
        .filter(|line| {
            let record = Json::parse(line).expect("trace lines are JSON");
            record.get("reason").and_then(Json::as_str) == Some("no_candidates")
        })
        .count() as u64;
    (result, simulations, no_candidates)
}

#[test]
fn each_estimate_sweeps_the_current_circuit_once_and_the_original_once_per_run() {
    let circuit = iscas_and_arith(Scale::Test)
        .into_iter()
        .find(|b| b.paper_name == "mtp8")
        .expect("catalog has mtp8")
        .aig;
    // The final measurement is exhaustive, two sweeps; with the one sweep
    // of the original on the estimation patterns, every run starts at 3.
    assert!(circuit.num_inputs() <= EXHAUSTIVE_INPUT_LIMIT);

    // ALSRAC: one care simulation per iteration, one estimate sweep per
    // iteration that found candidates, whatever the optimize schedule.
    let alsrac = FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold: 0.10,
        max_iterations: 40,
        seed: 42,
        ..FlowConfig::default()
    };
    let mut empty_iterations = 0;
    for config in [
        alsrac.clone(),
        FlowConfig {
            optimize_after_apply: false,
            ..alsrac
        },
    ] {
        let (result, sweeps, empty) = counted(|| flow::run(&circuit, &config).expect("flow"));
        assert!(result.applied > 0, "no accepted LAC, the check is vacuous");
        let iterations = result.iterations as u64;
        assert_eq!(
            sweeps,
            3 + iterations + (iterations - empty),
            "ALSRAC, optimize_after_apply {}",
            config.optimize_after_apply
        );
        empty_iterations += empty;
    }
    assert!(empty_iterations > 0, "every iteration found candidates");

    // Liu: the same per step.
    let (result, sweeps, empty) = counted(|| {
        let config = liu::LiuConfig {
            threshold: 0.10,
            steps: 60,
            seed: 42,
            ..liu::LiuConfig::default()
        };
        liu::run(&circuit, &config).expect("liu")
    });
    assert!(result.applied > 0, "no accepted move, the check is vacuous");
    let steps = result.iterations as u64;
    assert_eq!(sweeps, 3 + steps + (steps - empty), "Liu");

    // Su: one sweep per iteration serves both its similarity ranking and
    // its estimates.
    let (result, sweeps, _) = counted(|| {
        let config = su::SuConfig {
            threshold: 0.10,
            max_iterations: 40,
            seed: 42,
            ..su::SuConfig::default()
        };
        su::run(&circuit, &config).expect("su")
    });
    assert!(
        result.iterations >= 2,
        "one iteration cannot tell the budgets apart"
    );
    assert_eq!(sweeps, 3 + result.iterations as u64, "Su");
}
