//! The paper's scalability argument, measured: simulation-only feasibility
//! checking (ALSRAC, §III-B2) vs the exact SAT-based check it replaces
//! (Mishchenko et al. \[18\], our `alsrac-sat` implementation).
//!
//! For every AND node of each benchmark, both methods decide whether the
//! node's first divisor set can form a resubstitution. We report total
//! runtime and the agreement structure: the simulation check with few
//! patterns accepts a superset of the SAT check (that is the point — the
//! difference is the approximation head-room).

use std::time::Instant;

use alsrac::care::ApproximateCareSet;
use alsrac::divisors::{select_divisor_sets, DivisorConfig};
use alsrac_aig::Lit;
use alsrac_bench::{print_table, Options};
use alsrac_circuits::catalog;
use alsrac_sat::cec::exact_resub_feasible;
use alsrac_sim::{PatternBuffer, Simulation};

fn main() {
    let options = Options::parse(std::env::args().skip(1));
    options.init_trace("sat_vs_sim");
    let mut rows = Vec::new();
    for bench in catalog::iscas_and_arith(options.scale)
        .into_iter()
        .take(if options.full { usize::MAX } else { 6 })
    {
        let aig = &bench.aig;
        let divisor_config = DivisorConfig::default();
        // Collect one candidate divisor set per node.
        let queries: Vec<(Lit, Vec<Lit>)> = aig
            .iter_ands()
            .filter_map(|node| {
                select_divisor_sets(aig, node, &divisor_config)
                    .into_iter()
                    .find(|set| set.len() >= 2)
                    .map(|set| (node.lit(), set.iter().map(|&d| d.lit()).collect::<Vec<_>>()))
            })
            .collect();

        // Simulation-only check (N = 32 patterns).
        let patterns = PatternBuffer::random(aig.num_inputs(), 32, 7);
        let start = Instant::now();
        let sim = Simulation::new(aig, &patterns);
        let sim_feasible: Vec<bool> = queries
            .iter()
            .map(|(node, divisors)| {
                ApproximateCareSet::harvest(&sim, &patterns, *node, divisors).is_some()
            })
            .collect();
        let sim_time = start.elapsed().as_secs_f64();

        // Exact SAT check.
        let start = Instant::now();
        let sat_feasible: Vec<bool> = queries
            .iter()
            .map(|(node, divisors)| exact_resub_feasible(aig, *node, divisors))
            .collect();
        let sat_time = start.elapsed().as_secs_f64();

        // The simulation check must accept everything SAT accepts
        // (simulated patterns are a subset of all patterns).
        let mut superset_violations = 0usize;
        let mut extra_accepts = 0usize;
        for (s, e) in sim_feasible.iter().zip(&sat_feasible) {
            if *e && !*s {
                superset_violations += 1;
            }
            if *s && !*e {
                extra_accepts += 1;
            }
        }
        assert_eq!(
            superset_violations, 0,
            "simulation rejected a SAT-feasible divisor set"
        );

        rows.push(vec![
            bench.paper_name.to_string(),
            queries.len().to_string(),
            format!("{:.4}", sim_time),
            format!("{:.4}", sat_time),
            format!("{:.0}x", sat_time / sim_time.max(1e-9)),
            extra_accepts.to_string(),
        ]);
        eprintln!("done: {}", bench.paper_name);
    }
    print_table(
        "Feasibility checking: simulation (N=32) vs exact SAT (Theorem 1)",
        &[
            "Circuit",
            "Queries",
            "Sim t(s)",
            "SAT t(s)",
            "Speedup",
            "Approx-only accepts",
        ],
        &rows,
        &[],
    );
    println!(
        "\n'Approx-only accepts' counts divisor sets usable only under the\n\
         approximate care set — the approximation head-room ALSRAC exploits."
    );
    options.finish_trace();
}
