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
//! 3. **Block-parallel LAC generation** — on a circuit of several pivot
//!    blocks, `generate_lacs_with` returns the same candidates in the same
//!    order, with the same window counters, at worker counts 1 to 4.

use std::io;
use std::sync::Mutex;

use alsrac::flow::{run, FlowConfig, FlowResult};
use alsrac::lac::{generate_lacs_with, LacConfig};
use alsrac::window::WindowConfig;
use alsrac_aig::Aig;
use alsrac_circuits::arith;
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

/// Serializes the tests that trace: the trace and its counters are
/// process-wide, and the tests of this binary run concurrently.
static TRACE: Mutex<()> = Mutex::new(());

/// Runs `f` at `threads` workers with the trace on (into a sink that drops
/// the records) and returns its result and the named counters.
fn traced<R, const N: usize>(
    threads: usize,
    names: [&str; N],
    f: impl FnOnce() -> R,
) -> (R, [u64; N]) {
    let _lock = TRACE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    trace::reset();
    trace::enable_writer(Box::new(io::sink()));
    let result = with_threads(threads, f);
    trace::disable();
    let (_, counters) = trace::snapshot();
    let values = names.map(|name| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, value)| value)
    });
    (result, values)
}

/// Runs the flow at `threads` workers, traced, and returns its result and
/// its `window_extracted` and `window_nodes` counters.
fn traced_run(aig: &Aig, window: WindowConfig, threads: usize) -> (FlowResult, u64, u64) {
    let (result, [extracted, nodes]) =
        traced(threads, ["window_extracted", "window_nodes"], || {
            run(aig, &flow_config(window)).expect("flow")
        });
    (result, extracted, nodes)
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

#[test]
fn block_parallel_lac_generation_is_order_and_thread_independent() {
    // 3,720 ANDs: four pivot blocks, so every worker count above one runs
    // blocks concurrently. At four workers each block has its own, and the
    // short last block finishes before the two middle ones, so a join in
    // completion order would reorder the list. Sixteen care patterns leave
    // every block with candidates, which makes any reordering visible.
    let aig = arith::array_multiplier(20);
    assert!(aig.num_ands() > 3 * 1024, "fewer than four pivot blocks");
    let patterns = PatternBuffer::random(aig.num_inputs(), 16, 9);
    let sim = Simulation::new(&aig, &patterns);
    let fanouts = aig.fanout_map();
    let generate = |threads| {
        let (lacs, counters) = traced(threads, ["window_extracted", "window_nodes"], || {
            generate_lacs_with(
                &aig,
                &sim,
                &patterns,
                &fanouts,
                &LacConfig::default(),
                &WindowConfig::default(),
            )
        });
        let lacs: Vec<_> = lacs
            .into_iter()
            .map(|lac| {
                (
                    lac.node,
                    lac.divisors,
                    lac.cover,
                    lac.est_cost,
                    lac.est_saved,
                )
            })
            .collect();
        (lacs, counters)
    };
    let (serial, serial_counters) = generate(1);
    assert!(!serial.is_empty(), "no candidates");
    assert_eq!(
        serial_counters[0],
        aig.num_ands() as u64,
        "one window per pivot"
    );
    for threads in [2, 3, 4] {
        let (parallel, counters) = generate(threads);
        assert_eq!(parallel.len(), serial.len(), "{threads} workers: count");
        for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert!(p == s, "{threads} workers: candidate {i} differs");
        }
        assert_eq!(counters, serial_counters, "{threads} workers: counters");
    }
}
