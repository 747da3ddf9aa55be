//! Property tests for the windowed resubstitution path.
//!
//! Two families, matching the windowing contract (DESIGN.md):
//!
//! 1. **Signature classes** — two nodes share a signature class (up to the
//!    tracked complement flag) exactly when their simulation words agree
//!    (up to complement) on every valid pattern bit.
//! 2. **Flow bit-identity** — the windowed flow equals the whole-circuit
//!    flow bit for bit on every bundled Test-scale circuit, at worker
//!    counts 1, 3, and 7.

use alsrac::flow::{run, FlowConfig, FlowResult};
use alsrac::window::WindowConfig;
use alsrac_aig::Aig;
use alsrac_circuits::catalog::{iscas_and_arith, Scale};
use alsrac_circuits::random_logic::{random_network, RandomNetworkConfig};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::pool::with_threads;
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
        max_iterations: 3,
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

#[test]
fn windowed_flow_is_bit_identical_on_all_bundled_circuits() {
    for bench in &iscas_and_arith(Scale::Test) {
        // Whole-circuit reference at one worker; windowed runs must match
        // it at every worker count (worker count must never leak into
        // results — see the flow's determinism contract).
        let reference = with_threads(1, || {
            run(&bench.aig, &flow_config(WindowConfig::disabled())).expect("flow")
        });
        for threads in [1usize, 3, 7] {
            let windowed = with_threads(threads, || {
                run(&bench.aig, &flow_config(WindowConfig::default())).expect("flow")
            });
            assert_flows_identical(bench.paper_name, threads, &reference, &windowed);
        }
    }
}
