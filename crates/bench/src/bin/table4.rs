//! Regenerates Table IV: ALSRAC vs Su's method on ASIC designs under
//! error-rate constraints.
//!
//! For each ISCAS/arithmetic benchmark, both methods are run at each ER
//! threshold (the paper's seven thresholds with `--full`, a three-point
//! subset with the default `--quick`), and the per-circuit averages of
//! area ratio, delay ratio, and runtime are printed — the same rows as the
//! paper's Table IV.

use alsrac::baseline::su::{self, SuConfig};
use alsrac_bench::{asic_cost, Comparison, Options};
use alsrac_circuits::catalog;
use alsrac_metrics::ErrorMetric;

fn main() {
    let options = Options::parse(std::env::args().skip(1));
    let metric = ErrorMetric::ErrorRate;
    Comparison {
        binary: "table4",
        title: "Table IV: ALSRAC vs Su under ER constraint (ASIC)",
        baseline: "Su",
        baseline_seconds: true,
        metric,
        thresholds: if options.full {
            &[0.001, 0.003, 0.005, 0.008, 0.01, 0.03, 0.05]
        } else {
            &[0.01, 0.03, 0.05]
        },
        benches: catalog::iscas_and_arith(options.scale),
        cost: asic_cost,
    }
    .run(&options, |exact, threshold, seed, period| {
        let config = SuConfig {
            metric,
            threshold,
            seed,
            max_iterations: if period > 1 { 150 } else { 400 },
            est_rounds: 1024,
            optimize_period: period,
            ..SuConfig::default()
        };
        su::run(exact, &config).expect("Su flow")
    });
}
