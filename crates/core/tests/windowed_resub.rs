//! Property tests for the windowed resubstitution path.
//!
//! Two families, matching the windowing contract (DESIGN.md):
//!
//! 1. **Signature classes** — two nodes share a signature class (up to the
//!    tracked complement flag) exactly when their simulation words agree
//!    (up to complement) on every valid pattern bit.
//! 2. **Flow bit-identity** — the windowed flow equals the whole-circuit
//!    flow bit for bit on every bundled Test-scale circuit over 12
//!    iterations, at worker counts 1, 3, and 7, and its window counters
//!    are live (the whole-circuit flow's read 0).

use std::io;

use alsrac::flow::{run, FlowConfig, FlowResult};
use alsrac::window::WindowConfig;
use alsrac_aig::Aig;
use alsrac_circuits::catalog::{iscas_and_arith, Scale};
use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::pool::with_threads;
use alsrac_rt::trace;
use alsrac_sim::{PatternBuffer, Signatures, Simulation};

fn random_circuit(seed: u64, num_gates: usize) -> Aig {
    random_network(&RandomNetworkConfig {
        num_inputs: 8,
        num_outputs: 4,
        num_gates,
        locality: 16,
        seed,
    })
}

#[test]
fn signature_classes_match_pairwise_simulation_equality() {
    for seed in 1..=4u64 {
        let aig = random_circuit(seed, 100);
        let patterns = PatternBuffer::random(aig.num_inputs(), 100 + seed as usize, seed);
        let sim = Simulation::new(&aig, &patterns);
        let signatures = Signatures::build(&aig, &sim, &patterns);
        let masks = patterns.word_masks();
        let nodes: Vec<_> = aig.iter_nodes().collect();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let mut equal = true;
                let mut complement = true;
                for (w, &mask) in masks.iter().enumerate() {
                    let wa = sim.node_word(a, w) & mask;
                    let wb = sim.node_word(b, w) & mask;
                    equal &= wa == wb;
                    complement &= wa == !wb & mask;
                }
                let same_polarity = signatures.is_complemented(a) == signatures.is_complemented(b);
                let same_class = signatures.same_class(a, b);
                assert_eq!(
                    same_class && same_polarity,
                    equal,
                    "seed {seed}: nodes {a},{b}: class equality vs sim equality"
                );
                assert_eq!(
                    same_class && !same_polarity,
                    complement && !equal,
                    "seed {seed}: nodes {a},{b}: complement-class vs sim complement"
                );
            }
        }
    }
}

fn flow_config(window: WindowConfig) -> FlowConfig {
    FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold: 0.10,
        max_iterations: 12,
        seed: 42,
        window,
        ..FlowConfig::default()
    }
}

fn assert_flows_identical(name: &str, threads: usize, reference: &FlowResult, got: &FlowResult) {
    assert_eq!(
        reference.iterations, got.iterations,
        "{name}@{threads}: iterations"
    );
    assert_eq!(reference.applied, got.applied, "{name}@{threads}: applied");
    assert_eq!(
        reference.approx.num_ands(),
        got.approx.num_ands(),
        "{name}@{threads}: final size"
    );
    assert_eq!(
        reference.history.len(),
        got.history.len(),
        "{name}@{threads}: history length"
    );
    for (i, (a, b)) in reference.history.iter().zip(&got.history).enumerate() {
        assert_eq!(
            a.estimated_error.to_bits(),
            b.estimated_error.to_bits(),
            "{name}@{threads}: accept {i} estimated error"
        );
        assert_eq!(a.ands, b.ands, "{name}@{threads}: accept {i} size");
    }
    assert_eq!(
        reference.measured.error_rate.to_bits(),
        got.measured.error_rate.to_bits(),
        "{name}@{threads}: measured error rate"
    );
}

/// Runs the flow at `threads` workers with the trace on (into a sink that
/// drops the records) and returns its result and its `window_extracted`
/// and `window_nodes` counters. Counters are process-wide; this binary's
/// other test adds neither.
fn traced_run(aig: &Aig, window: WindowConfig, threads: usize) -> (FlowResult, u64, u64) {
    trace::reset();
    trace::enable_writer(Box::new(io::sink()));
    let result = with_threads(threads, || run(aig, &flow_config(window)).expect("flow"));
    trace::disable();
    let (_, counters) = trace::snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, value)| value)
    };
    (result, counter("window_extracted"), counter("window_nodes"))
}

#[test]
fn windowed_flow_is_bit_identical_on_all_bundled_circuits() {
    for bench in &iscas_and_arith(Scale::Test) {
        let name = bench.paper_name;
        // Whole-circuit reference at one worker; windowed runs must match
        // it at every worker count (worker count must never leak into
        // results — see the flow's determinism contract).
        let (reference, extracted, _) = traced_run(&bench.aig, WindowConfig::disabled(), 1);
        assert_eq!(
            extracted, 0,
            "{name}: the whole-circuit run extracted windows"
        );
        for threads in [1usize, 3, 7] {
            let (windowed, extracted, nodes) =
                traced_run(&bench.aig, WindowConfig::default(), threads);
            assert_flows_identical(name, threads, &reference, &windowed);
            assert!(extracted > 0, "{name}@{threads}: no window extracted");
            assert!(
                nodes >= extracted,
                "{name}@{threads}: {nodes} window nodes over {extracted} windows"
            );
        }
    }
}
