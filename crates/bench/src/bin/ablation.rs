//! Ablations of ALSRAC's design choices (not a paper table; DESIGN.md
//! experiments ABL1/ABL2).
//!
//! 1. **Divisor distance** — fanin-edit divisor sets drawn from the whole
//!    TFI cone (the paper's Algorithm 1) vs. restricted to a shallow pool
//!    (max_sets small, emulating "too local" LACs, §I's critique).
//! 2. **Dynamic N control** — the paper's adaptive simulation-round
//!    shrinking (t = 5, r = 0.9) vs. a fixed N, and a sweep of the initial
//!    N (§III-C's discussion that small N widens the approximation space).
//! 3. **Divisor-set arity** — 2-divisor fanin edits vs. 3-divisor sets.
//!
//! Every ablation compares against the default flow, so each circuit runs
//! six distinct configurations and the four tables are read from them.

use alsrac::divisors::DivisorConfig;
use alsrac::flow::{self, FlowConfig};
use alsrac::lac::LacConfig;
use alsrac_bench::{asic_cost, average_outcome, percent, print_table, Options};
use alsrac_circuits::catalog;
use alsrac_metrics::ErrorMetric;
use alsrac_rt::pool;

fn config_with(lac: LacConfig, threshold: f64, rounds: usize, patience: usize) -> FlowConfig {
    FlowConfig {
        metric: ErrorMetric::ErrorRate,
        threshold,
        initial_rounds: rounds,
        patience,
        lac,
        max_iterations: 300,
        ..FlowConfig::default()
    }
}

/// The six distinct configurations the ablations compare, by column of
/// the per-circuit results: the default flow serves as the baseline of
/// every ablation, so it runs once.
const DEFAULT: usize = 0;
const FANIN_LOCAL: usize = 1;
const N8: usize = 2;
const N128: usize = 3;
const FIXED_N: usize = 4;
const THREE_DIVISOR: usize = 5;

fn main() {
    let options = Options::parse(std::env::args().skip(1));
    options.init_trace("ablation");
    let threshold = 0.03;
    let circuits = ["cla32", "ksa32", "wal8"];
    let configs = [
        config_with(LacConfig::default(), threshold, 32, 5),
        config_with(
            LacConfig {
                divisors: DivisorConfig {
                    max_sets: 3, // barely beyond the fanin removals
                    ..DivisorConfig::default()
                },
                ..LacConfig::default()
            },
            threshold,
            32,
            5,
        ),
        config_with(LacConfig::default(), threshold, 8, 5),
        config_with(LacConfig::default(), threshold, 128, 5),
        // Effectively fixed N: a patience the run never exhausts.
        FlowConfig {
            max_iterations: 120,
            ..config_with(LacConfig::default(), threshold, 32, usize::MAX / 8)
        },
        // The paper's 2-divisor fanin edits extended with 3-divisor sets
        // (fanins + one TFI signal): beyond Algorithm 1, but it quantifies
        // how much expressive power the 2-divisor restriction leaves.
        config_with(
            LacConfig {
                lac_limit: 3,
                divisors: DivisorConfig {
                    include_extensions: true,
                    ..DivisorConfig::default()
                },
            },
            threshold,
            32,
            5,
        ),
    ];

    // Each circuit's area ratio under every configuration. Every run is a
    // seeded flow, so the parallel rows match the serial ones exactly.
    let ratios = pool::par_map(&circuits, |name| {
        let exact = catalog::by_name(name, options.scale).expect("known benchmark");
        configs
            .iter()
            .map(|config| {
                let run = |seed| {
                    let config = FlowConfig {
                        seed,
                        ..config.clone()
                    };
                    flow::run(&exact, &config).expect("flow")
                };
                average_outcome(&exact, options.seeds, asic_cost, run, |_| true).area_ratio
            })
            .collect::<Vec<f64>>()
    });
    let table = |title: &str, header: &[&str], columns: &[usize]| {
        let rows: Vec<Vec<String>> = circuits
            .iter()
            .zip(&ratios)
            .map(|(name, ratio)| {
                let cells = columns.iter().map(|&c| percent(ratio[c]));
                std::iter::once(name.to_string()).chain(cells).collect()
            })
            .collect();
        let mean_over: Vec<usize> = (1..=columns.len()).collect();
        print_table(title, header, &rows, &mean_over);
    };
    table(
        "Ablation 1: TFI-wide divisors vs fanin-local divisors (ER = 3%, area ratio)",
        &["Circuit", "TFI-wide", "Fanin-local"],
        &[DEFAULT, FANIN_LOCAL],
    );
    table(
        "Ablation 2: initial simulation rounds N (ER = 3%, area ratio)",
        &["Circuit", "N=8", "N=32", "N=128"],
        &[N8, DEFAULT, N128],
    );
    table(
        "Ablation 2b: adaptive N (t=5, r=0.9) vs fixed N = 32 (ER = 3%, area ratio)",
        &["Circuit", "Adaptive", "Fixed"],
        &[DEFAULT, FIXED_N],
    );
    table(
        "Ablation 3: 2-divisor (paper) vs extended 3-divisor LACs (ER = 3%, area ratio)",
        &["Circuit", "2-divisor", "3-divisor"],
        &[DEFAULT, THREE_DIVISOR],
    );
    options.finish_trace();
}
