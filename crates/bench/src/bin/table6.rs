//! Regenerates Table VI: ALSRAC vs Liu's method on FPGA designs under a
//! 1% error-rate constraint.
//!
//! EPFL random/control benchmarks, mapped to 6-LUTs; area = LUT count,
//! delay = LUT depth. The paper runs one threshold (ER = 1%).

use alsrac::baseline::liu::{self, LiuConfig};
use alsrac_bench::{fpga_cost, Comparison, Options};
use alsrac_circuits::catalog;
use alsrac_metrics::ErrorMetric;

fn main() {
    let options = Options::parse(std::env::args().skip(1));
    let metric = ErrorMetric::ErrorRate;
    Comparison {
        binary: "table6",
        title: "Table VI: ALSRAC vs Liu under ER = 1% (FPGA, 6-LUT)",
        baseline: "Liu",
        baseline_seconds: false,
        metric,
        thresholds: &[0.01],
        benches: catalog::epfl_control(options.scale),
        cost: fpga_cost,
    }
    .run(&options, |exact, threshold, seed, _period| {
        let config = LiuConfig {
            metric,
            threshold,
            seed,
            steps: if options.full { 600 } else { 200 },
            ..LiuConfig::default()
        };
        liu::run(exact, &config).expect("Liu flow")
    });
}
