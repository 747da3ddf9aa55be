//! Determinism regression tests: the full ALSRAC flow is a pure function
//! of `(circuit, FlowConfig)` — in particular of `FlowConfig::seed` — and
//! distinct seeds actually change the random pattern streams.
//!
//! This pins the reproducibility contract stated in `flow.rs` ("every
//! random decision derives from it") end to end: if the PRNG, the seed
//! derivation, or the order of random draws inside the flow ever changes
//! between two builds, these assertions localize it immediately.

use alsrac_rt::{derive_indexed, derive_seed, Stream};
use alsrac_suite::circuits::catalog::{iscas_and_arith, Scale};
use alsrac_suite::core::flow::{run, FlowConfig, FlowResult};
use alsrac_suite::metrics::ErrorMetric;
use alsrac_suite::sim::PatternBuffer;

/// A small catalog circuit (the `c1908`-analogue ECC network, 8 inputs).
fn catalog_circuit() -> alsrac_suite::aig::Aig {
    iscas_and_arith(Scale::Test)
        .into_iter()
        .find(|b| b.paper_name == "c1908")
        .expect("catalog has c1908")
        .aig
}

fn flow_config(seed: u64) -> FlowConfig {
    FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold: 0.10,
        max_iterations: 150,
        seed,
        ..FlowConfig::default()
    }
}

/// Bit-identical comparison of two flow results: the accepted-LAC history
/// (error estimates compared as raw f64 bits) and the final measurement.
fn assert_identical(a: &FlowResult, b: &FlowResult) {
    assert_eq!(a.iterations, b.iterations, "iteration counts differ");
    assert_eq!(a.applied, b.applied, "accepted-LAC counts differ");
    assert_eq!(
        a.approx.num_ands(),
        b.approx.num_ands(),
        "final sizes differ"
    );
    assert_eq!(a.history.len(), b.history.len(), "history lengths differ");
    for (i, (ra, rb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(
            ra.estimated_error.to_bits(),
            rb.estimated_error.to_bits(),
            "accepted LAC {i}: estimated errors differ"
        );
        assert_eq!(ra.ands, rb.ands, "accepted LAC {i}: sizes differ");
        assert_eq!(ra.rounds, rb.rounds, "accepted LAC {i}: rounds differ");
    }
    assert_eq!(a.measured.num_patterns, b.measured.num_patterns);
    assert_eq!(
        a.measured.error_rate.to_bits(),
        b.measured.error_rate.to_bits(),
        "measured error rates differ"
    );
    assert_eq!(
        a.measured.nmed.map(f64::to_bits),
        b.measured.nmed.map(f64::to_bits)
    );
    assert_eq!(
        a.measured.mred.map(f64::to_bits),
        b.measured.mred.map(f64::to_bits)
    );
    assert_eq!(a.measured.max_error_distance, b.measured.max_error_distance);
}

#[test]
fn same_seed_gives_bit_identical_flow_runs() {
    let circuit = catalog_circuit();
    let config = flow_config(42);
    let first = run(&circuit, &config).expect("flow");
    let second = run(&circuit, &config).expect("flow");
    assert!(
        first.applied > 0,
        "flow accepted no LACs; the determinism check would be vacuous"
    );
    assert_identical(&first, &second);
}

#[test]
fn parallel_flow_runs_are_bit_identical_to_serial() {
    // The pool contract (`alsrac_rt::pool`): thread count is a throughput
    // knob, never an observable input. A flow run with the pool forced
    // serial must match runs at several worker counts bit for bit —
    // history, estimated errors, and the final measurement included.
    let circuit = catalog_circuit();
    let config = flow_config(42);
    let serial = alsrac_rt::pool::with_threads(1, || run(&circuit, &config).expect("flow"));
    assert!(
        serial.applied > 0,
        "flow accepted no LACs; the parallel-equivalence check would be vacuous"
    );
    for threads in [2, 3, 8] {
        let parallel =
            alsrac_rt::pool::with_threads(threads, || run(&circuit, &config).expect("flow"));
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn wce_flows_are_bit_identical_at_every_thread_count() {
    // The WCE flow adds the SAT accept gate and the final certificate,
    // each on a freshly swept miter; neither may see the worker count.
    for name in ["cla32", "rca32"] {
        let circuit = iscas_and_arith(Scale::Test)
            .into_iter()
            .find(|b| b.paper_name == name)
            .expect("catalog circuit")
            .aig;
        let config = FlowConfig {
            metric: ErrorMetric::Wce,
            threshold: 4.0,
            seed: 42,
            ..FlowConfig::default()
        };
        let serial = alsrac_rt::pool::with_threads(1, || run(&circuit, &config).expect("flow"));
        assert!(serial.applied > 0, "{name}: the WCE flow accepted nothing");
        assert!(serial.certificate.is_some(), "{name}: no certificate");
        for threads in [3, 7] {
            let parallel =
                alsrac_rt::pool::with_threads(threads, || run(&circuit, &config).expect("flow"));
            assert_identical(&serial, &parallel);
            assert_eq!(serial.certificate, parallel.certificate, "{name}");
        }
    }
}

#[test]
fn ragged_measurement_blocks_are_identical_at_odd_thread_counts() {
    // `measure_sampled` splits the pattern budget into fixed-size blocks;
    // a rounds count that is not a multiple of the block size leaves a
    // ragged tail, and an odd worker count makes the block-to-thread
    // assignment non-uniform. Neither may leak into the fold: partial
    // counts are combined in block order regardless of which worker
    // produced them.
    use alsrac_suite::metrics::{measure_sampled, MEASURE_BLOCK_PATTERNS};

    let exact = catalog_circuit();
    let approx = {
        let config = flow_config(42);
        run(&exact, &config).expect("flow").approx
    };
    let rounds = MEASURE_BLOCK_PATTERNS * 4 + 513; // 5 blocks, ragged tail
    let serial = alsrac_rt::pool::with_threads(1, || {
        measure_sampled(&exact, &approx, rounds, 42).expect("measure")
    });
    assert_eq!(serial.num_patterns, rounds);
    assert!(
        serial.error_rate > 0.0,
        "approximation must actually disagree with the exact circuit"
    );
    for threads in [3, 7] {
        let parallel = alsrac_rt::pool::with_threads(threads, || {
            measure_sampled(&exact, &approx, rounds, 42).expect("measure")
        });
        assert_eq!(serial.num_patterns, parallel.num_patterns);
        assert_eq!(
            serial.error_rate.to_bits(),
            parallel.error_rate.to_bits(),
            "{threads} threads: measured error rate differs from serial"
        );
        assert_eq!(
            serial.nmed.map(f64::to_bits),
            parallel.nmed.map(f64::to_bits),
            "{threads} threads: NMED differs from serial"
        );
        assert_eq!(
            serial.mred.map(f64::to_bits),
            parallel.mred.map(f64::to_bits),
            "{threads} threads: MRED differs from serial"
        );
        assert_eq!(
            serial.max_error_distance, parallel.max_error_distance,
            "{threads} threads: max error distance differs from serial"
        );
    }
}

#[test]
fn different_seeds_give_different_pattern_streams() {
    // The flow's per-iteration care-pattern stream is keyed by the seed:
    // two seeds must disagree somewhere in the first few iterations' draws.
    let num_inputs = 8;
    let rounds = 32;
    let streams_differ = (1..4u64).any(|iteration| {
        let a = PatternBuffer::random(
            num_inputs,
            rounds,
            derive_indexed(42, Stream::Care, iteration),
        );
        let b = PatternBuffer::random(
            num_inputs,
            rounds,
            derive_indexed(43, Stream::Care, iteration),
        );
        (0..num_inputs).any(|i| a.input_words(i) != b.input_words(i))
    });
    assert!(
        streams_differ,
        "seeds 42 and 43 yield identical care streams"
    );

    // Same for the estimation and measurement sub-streams.
    for stream in [Stream::Estimation, Stream::Measurement] {
        assert_ne!(
            derive_seed(42, stream),
            derive_seed(43, stream),
            "{stream:?} sub-seed collides across root seeds"
        );
    }
}

#[test]
fn different_seeds_can_change_the_flow_trace() {
    // Not every seed pair diverges on a small circuit, but across a few
    // seeds the accepted-LAC traces must not all be bit-identical (that
    // would mean the seed is ignored).
    let circuit = catalog_circuit();
    let traces: Vec<Vec<u64>> = (1..5u64)
        .map(|seed| {
            run(&circuit, &flow_config(seed))
                .expect("flow")
                .history
                .iter()
                .map(|r| r.estimated_error.to_bits() ^ r.ands as u64)
                .collect()
        })
        .collect();
    assert!(
        traces.windows(2).any(|w| w[0] != w[1]),
        "four different seeds produced identical traces"
    );
}

#[test]
fn flow_estimates_match_exhaustive_measurement_at_every_thread_count() {
    // At <= 14 inputs estimation is exhaustive, so the estimate the flow
    // recorded for its last accepted LAC is the exact error of the circuit
    // it returns (optimize preserves function) and must equal the final
    // exhaustive measurement bit for bit. That checks the carried
    // simulation, its cone-local updates, the influence engine and both
    // compare paths (ER's sparse compare, NMED's decode) against an
    // independent resimulation, under every optimize schedule and at every
    // thread count.
    use alsrac_suite::core::flow::EXHAUSTIVE_ESTIMATION_LIMIT;

    for (name, metric, threshold) in [
        ("ksa32", ErrorMetric::ErrorRate, 0.05),
        ("rca32", ErrorMetric::Nmed, 0.03),
    ] {
        let circuit = iscas_and_arith(Scale::Test)
            .into_iter()
            .find(|b| b.paper_name == name)
            .expect("catalog circuit")
            .aig;
        assert!(circuit.num_inputs() <= EXHAUSTIVE_ESTIMATION_LIMIT);
        // After every accept, every third accept, and never.
        for (optimize_after_apply, optimize_period) in [(true, 1), (true, 3), (false, 1)] {
            let config = FlowConfig {
                metric,
                threshold,
                max_iterations: 12,
                optimize_after_apply,
                optimize_period,
                ..flow_config(42)
            };
            let what = format!("{name} {metric} optimize {optimize_after_apply}/{optimize_period}");
            let reference =
                alsrac_rt::pool::with_threads(1, || run(&circuit, &config).expect("flow"));
            // A second accept means the last estimate was taken on a
            // circuit the flow itself changed (through the carried
            // simulation when no optimize pass intervened).
            assert!(
                reference.applied >= 2,
                "{what}: {} accepted LACs, the check would be vacuous",
                reference.applied
            );
            let last = reference.history.last().expect("applied > 0");
            let measured = reference.measured.value(metric).expect("decodable");
            assert_eq!(reference.measured.num_patterns, 1 << circuit.num_inputs());
            assert_eq!(
                last.estimated_error.to_bits(),
                measured.to_bits(),
                "{what}: estimated {} vs measured {measured}",
                last.estimated_error
            );
            for threads in [3, 7] {
                let parallel = alsrac_rt::pool::with_threads(threads, || {
                    run(&circuit, &config).expect("flow")
                });
                assert_identical(&reference, &parallel);
            }
        }
    }
}
