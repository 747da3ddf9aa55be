//! Serial-vs-parallel wall-clock microbenchmark for the hermetic pool
//! (`alsrac_rt::pool`), focused on `Estimator::estimate_all` — the flow's
//! hottest kernel (DESIGN.md, "Parallel execution").
//!
//! For each circuit the same LAC batch is estimated under
//! `pool::with_threads(1)` and under each probed thread count; results are
//! asserted equal before timings are recorded, so the file doubles as a
//! determinism check. Timings land in `BENCH_parallel.json` (hand-rolled
//! JSON; the workspace has no serializer by design).
//!
//! Speedups depend on the machine: on a single-hardware-thread host the
//! pool degrades to roughly serial throughput (scheduling overhead only)
//! and the recorded ratios hover around 1.0x. The `host_threads` field
//! captures what the run actually had available.

use std::time::Instant;

use alsrac::estimate::Estimator;
use alsrac::lac::{generate_lacs, Lac, LacConfig};
use alsrac_aig::Aig;
use alsrac_circuits::arith;
use alsrac_metrics::ErrorMetric;
use alsrac_rt::pool;
use alsrac_sim::{PatternBuffer, Simulation};

const EST_ROUNDS: usize = 2048;
const REPS: usize = 5;

struct Case {
    name: &'static str,
    aig: Aig,
}

struct Timing {
    threads: usize,
    secs: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "ksa16",
            aig: arith::kogge_stone_adder(16),
        },
        Case {
            name: "cla16",
            aig: arith::carry_lookahead_adder(16),
        },
        Case {
            name: "wal8",
            aig: arith::wallace_multiplier(8),
        },
    ]
}

fn prepare(aig: &Aig) -> (PatternBuffer, alsrac_aig::FanoutMap, Vec<Lac>) {
    let care_patterns = PatternBuffer::random(aig.num_inputs(), 64, 11);
    let care_sim = Simulation::new(aig, &care_patterns);
    let fanouts = aig.fanout_map();
    let lacs = generate_lacs(
        aig,
        &care_sim,
        &care_patterns,
        &fanouts,
        &LacConfig::default(),
    );
    let est_patterns = PatternBuffer::random(aig.num_inputs(), EST_ROUNDS, 13);
    (est_patterns, fanouts, lacs)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn time_at(threads: usize, mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            pool::with_threads(threads, &mut run);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

fn main() {
    let host_threads = pool::configured_threads();
    let probe: Vec<usize> = [2usize, 4, host_threads]
        .into_iter()
        .filter(|&t| t > 1)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut entries = Vec::new();
    for case in cases() {
        let (est_patterns, fanouts, lacs) = prepare(&case.aig);
        let estimator = Estimator::new(
            &case.aig,
            &case.aig,
            &est_patterns,
            &fanouts,
            ErrorMetric::ErrorRate,
        );

        let reference = pool::with_threads(1, || estimator.estimate_all(&lacs));
        let serial_secs = time_at(1, || {
            std::hint::black_box(estimator.estimate_all(&lacs));
        });

        let mut timings = Vec::new();
        for &threads in &probe {
            let parallel = pool::with_threads(threads, || estimator.estimate_all(&lacs));
            assert_eq!(
                reference, parallel,
                "estimate_all diverged between 1 and {threads} threads on {}",
                case.name
            );
            let secs = time_at(threads, || {
                std::hint::black_box(estimator.estimate_all(&lacs));
            });
            timings.push(Timing { threads, secs });
        }

        eprintln!(
            "{}: {} LACs, serial {:.4}s{}",
            case.name,
            lacs.len(),
            serial_secs,
            timings
                .iter()
                .map(|t| format!(
                    ", {}t {:.4}s ({:.2}x)",
                    t.threads,
                    t.secs,
                    serial_secs / t.secs
                ))
                .collect::<String>()
        );
        entries.push((case.name, lacs.len(), serial_secs, timings));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("  \"est_rounds\": {EST_ROUNDS},\n"));
    json.push_str(&format!("  \"reps_per_sample\": {REPS},\n"));
    json.push_str("  \"kernel\": \"Estimator::estimate_all\",\n");
    json.push_str("  \"cases\": [\n");
    for (i, (name, num_lacs, serial_secs, timings)) in entries.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"circuit\": \"{name}\",\n"));
        json.push_str(&format!("      \"lacs\": {num_lacs},\n"));
        json.push_str(&format!("      \"serial_secs\": {serial_secs:.6},\n"));
        json.push_str("      \"parallel\": [\n");
        for (j, t) in timings.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"threads\": {}, \"secs\": {:.6}, \"speedup\": {:.3}}}{}\n",
                t.threads,
                t.secs,
                serial_secs / t.secs,
                if j + 1 < timings.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    std::fs::write(&path, &json).expect("write benchmark JSON");
    println!("wrote {path}");
}
