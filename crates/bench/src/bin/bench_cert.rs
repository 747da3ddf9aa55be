//! Certified-error benchmark: SAT certificates for every bundled circuit.
//!
//! For each Test-scale circuit of the ISCAS + arithmetic suite this binary
//! runs the ALSRAC flow with `certify` on and records the exact
//! (model-counted) error rate of the optimized output next to an
//! independent Monte-Carlo estimate; the two must agree within the Wilson
//! interval at [`alsrac_bench::CERT_WILSON_Z`] (recomputed — not trusted —
//! by `report --cert`). The arithmetic subset additionally runs the
//! WCE-constrained flow, whose result carries an exact SAT certificate of
//! the maximum error distance that must sit at or below the configured
//! bound.
//!
//! The output (`BENCH_cert.json` by default, or the path given as the
//! first non-flag argument) is committed at the repo root and validated in
//! CI by `report --cert`. `--smoke` shrinks the Monte-Carlo sample for
//! the CI gate; everything else — flows, certificates, agreement checks —
//! is identical, and the whole artifact is deterministic in the thread
//! count except for the recorded `"threads"` field itself (`scripts/ci.sh
//! cert-smoke` diffs two runs modulo that line). The last stdout line
//! totals the SAT queries and the nodes the miter sweeps merged
//! (`cert_sweep_merges`), which `cert-smoke` requires to be positive.

use alsrac::flow::{certified_record, run, FlowConfig, FlowResult};
use alsrac_bench::CERT_WILSON_Z;
use alsrac_circuits::catalog::{arithmetic_subset, iscas_and_arith, Benchmark, Scale};
use alsrac_metrics::{measure_sampled, wilson_interval, CertifiedMeasurement, ErrorMetric};
use alsrac_rt::json::{Arr, Obj};
use alsrac_rt::{pool, trace};

/// Shared RNG seed of every flow and sampling run in the artifact.
const SEED: u64 = 42;
/// Monte-Carlo rounds for the independent sampled estimate.
const SAMPLE_ROUNDS: usize = 200_000;
/// `--smoke` Monte-Carlo rounds (CI wall-clock budget).
const SMOKE_ROUNDS: usize = 20_000;

fn flow_config(metric: ErrorMetric, threshold: f64) -> FlowConfig {
    FlowConfig {
        metric,
        threshold,
        max_iterations: 12,
        seed: SEED,
        certify: true,
        ..FlowConfig::default()
    }
}

/// Absolute worst-case-error-distance budget for a WCE-constrained run:
/// roughly 3% of the circuit's output range, at least 2.
fn wce_bound(bench: &Benchmark) -> u64 {
    let range = 1u64 << bench.aig.num_outputs().min(63);
    (range / 32).max(2)
}

fn certificate(result: &FlowResult, circuit: &str) -> CertifiedMeasurement {
    result
        .certificate
        .clone()
        .unwrap_or_else(|| panic!("{circuit}: flow returned no certificate"))
}

/// One ER entry: certified exact error rate vs. an independent sample.
fn er_entry(bench: &Benchmark, rounds: usize) -> Obj {
    let name = bench.paper_name;
    let result = run(&bench.aig, &flow_config(ErrorMetric::ErrorRate, 0.05)).expect("flow");
    let cert = certificate(&result, name);
    assert_eq!(cert.metric, ErrorMetric::ErrorRate, "{name}: wrong metric");

    let sampled = measure_sampled(&bench.aig, &result.approx, rounds, SEED).expect("measure");
    let patterns = sampled.num_patterns as u64;
    let errors = (sampled.error_rate * sampled.num_patterns as f64).round() as u64;
    let (low, high) = wilson_interval(errors, patterns, CERT_WILSON_Z);
    let (value_low, value_high) = if cert.exact {
        (cert.value, cert.value)
    } else {
        (
            cert.value / (1.0 + cert.epsilon),
            cert.value * (1.0 + cert.epsilon),
        )
    };
    let agreement = value_high >= low && value_low <= high;
    assert!(
        agreement,
        "{name}: certified rate {} outside Wilson interval [{low}, {high}] of \
         {errors}/{patterns} sampled",
        cert.value
    );
    eprintln!(
        "ER  {name}: {} -> {} ANDs ({} applied), certified {} ({}, {} SAT queries), \
         sampled {errors}/{patterns}",
        bench.aig.num_ands(),
        result.approx.num_ands(),
        result.applied,
        cert.value,
        if cert.exact { "exact" } else { "hash-count" },
        cert.sat_queries,
    );

    Obj::new()
        .str("circuit", name)
        .u64("inputs", bench.aig.num_inputs() as u64)
        .u64("outputs", bench.aig.num_outputs() as u64)
        .u64("ands_before", bench.aig.num_ands() as u64)
        .u64("ands_after", result.approx.num_ands() as u64)
        .u64("applied", result.applied as u64)
        .u64("sampled_errors", errors)
        .u64("sampled_patterns", patterns)
        .bool("agreement", agreement)
        .obj("certified", certified_record(&cert))
}

/// One WCE entry: SAT-gated flow plus an exact certificate of the final
/// maximum error distance.
fn wce_entry(bench: &Benchmark) -> Obj {
    let name = bench.paper_name;
    let bound = wce_bound(bench);
    let result = run(&bench.aig, &flow_config(ErrorMetric::Wce, bound as f64)).expect("flow");
    let cert = certificate(&result, name);
    assert_eq!(cert.metric, ErrorMetric::Wce, "{name}: wrong metric");
    assert!(cert.exact, "{name}: WCE certificate must be exact");
    assert!(
        cert.value <= bound as f64,
        "{name}: certified WCE {} exceeds the bound {bound}",
        cert.value
    );
    let sampled_max = result.measured.max_error_distance.unwrap_or(0);
    assert!(
        (sampled_max as f64) <= cert.value,
        "{name}: simulation observed distance {sampled_max} above the certified \
         maximum {}",
        cert.value
    );
    eprintln!(
        "WCE {name}: {} -> {} ANDs ({} applied), certified max distance {} <= {bound} \
         ({} SAT queries), simulated max {sampled_max}",
        bench.aig.num_ands(),
        result.approx.num_ands(),
        result.applied,
        cert.value,
        cert.sat_queries,
    );

    Obj::new()
        .str("circuit", name)
        .u64("bound", bound)
        .u64("ands_before", bench.aig.num_ands() as u64)
        .u64("ands_after", result.approx.num_ands() as u64)
        .u64("applied", result.applied as u64)
        .u64("sampled_max_distance", sampled_max)
        .bool("within_bound", true)
        .obj("certified", certified_record(&cert))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_cert.json".to_string());
    let rounds = if smoke { SMOKE_ROUNDS } else { SAMPLE_ROUNDS };

    // Counters are always collected; set ALSRAC_TRACE to also keep the
    // full JSONL record stream for `report` to break down.
    match trace::init_from_env() {
        Ok(Some(_)) => {}
        Ok(None) => trace::enable_writer(Box::new(std::io::sink())),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    trace::reset();

    let mut er = Arr::new();
    for bench in &iscas_and_arith(Scale::Test) {
        er = er.obj(er_entry(bench, rounds));
    }
    let mut wce = Arr::new();
    for bench in &arithmetic_subset(Scale::Test) {
        wce = wce.obj(wce_entry(bench));
    }

    let json = Obj::new()
        .str("benchmark", "cert")
        .bool("smoke", smoke)
        .u64("threads", pool::current_threads() as u64)
        .u64("seed", SEED)
        .arr("er", er)
        .arr("wce", wce)
        .finish();
    std::fs::write(&path, json + "\n").expect("write benchmark JSON");
    let (_, counters) = trace::snapshot();
    let total = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    println!(
        "wrote {path} ({} SAT queries, {} sweep merges total)",
        total("cert_sat_queries"),
        total("cert_sweep_merges")
    );
}
