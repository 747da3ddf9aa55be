//! Regenerates Table VII: ALSRAC vs Liu's method on EPFL arithmetic
//! circuits under an MRED constraint of 0.19531%.
//!
//! Mapped to 6-LUTs; `hyp` is omitted as in the paper. The arithmetic
//! means with and without `max` are both reported (the paper calls out
//! `max` as ALSRAC's one loss).

use alsrac::baseline::liu::{self, LiuConfig};
use alsrac_bench::{fpga_cost, percent, Comparison, Options};
use alsrac_circuits::catalog;
use alsrac_metrics::ErrorMetric;

fn main() {
    let options = Options::parse(std::env::args().skip(1));
    let metric = ErrorMetric::Mred;
    let outcomes = Comparison {
        binary: "table7",
        title: "Table VII: ALSRAC vs Liu under MRED = 0.19531% (FPGA, 6-LUT)",
        baseline: "Liu",
        baseline_seconds: false,
        metric,
        thresholds: &[0.0019531],
        benches: catalog::epfl_arith(options.scale),
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
    let without_max: Vec<(f64, f64)> = outcomes
        .iter()
        .filter(|(name, ..)| *name != "max")
        .map(|(_, a, l)| (a.area_ratio, l.area_ratio))
        .collect();
    if !without_max.is_empty() {
        let n = without_max.len() as f64;
        let a: f64 = without_max.iter().map(|(a, _)| a).sum::<f64>() / n;
        let l: f64 = without_max.iter().map(|(_, l)| l).sum::<f64>() / n;
        println!(
            "Arithmean w/o max: ALSRAC area {}  Liu area {}",
            percent(a),
            percent(l)
        );
    }
}
