//! Regenerates Table V: ALSRAC vs Su's method on ASIC arithmetic circuits
//! under NMED constraints.
//!
//! Uses the arithmetic subset (cla32, ksa32, mtp8, rca32, wal8 analogues)
//! and the paper's eight NMED thresholds (`--full`) or a three-point
//! subset (default).

use alsrac::baseline::su::{self, SuConfig};
use alsrac_bench::{asic_cost, Comparison, Options};
use alsrac_circuits::catalog;
use alsrac_metrics::ErrorMetric;

fn main() {
    let options = Options::parse(std::env::args().skip(1));
    let metric = ErrorMetric::Nmed;
    Comparison {
        binary: "table5",
        title: "Table V: ALSRAC vs Su under NMED constraint (ASIC)",
        baseline: "Su",
        baseline_seconds: true,
        metric,
        thresholds: if options.full {
            &[
                0.0000153, 0.0000305, 0.0000610, 0.0001221, 0.0002441, 0.0004883, 0.0009766,
                0.0019531,
            ]
        } else {
            &[0.0001221, 0.0004883, 0.0019531]
        },
        benches: catalog::arithmetic_subset(options.scale),
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
