//! The three workloads: which circuits run, under which flow
//! configuration, and the set-up (generation plus mapping of the
//! originals) every run pays before its first job.
//!
//! Each workload is a fixed list of circuits. The workload seed only
//! derives the flow seeds, so two seeds run the same circuits with
//! different care, estimation and measurement patterns. A seeded draw over
//! *circuits* would move `and_ratio` by up to 2x between seeds (the
//! control circuits shrink to 3%–98% of their size), which no bound on
//! the metric could absorb.

use alsrac::flow::FlowConfig;
use alsrac::window::WindowConfig;
use alsrac_aig::Aig;
use alsrac_bench::{asic_cost, fpga_cost};
use alsrac_circuits::arith;
use alsrac_circuits::catalog::{self, Benchmark, Scale};
use alsrac_metrics::ErrorMetric;
use alsrac_metrics::ErrorMetric::{ErrorRate as Er, Nmed, Wce};
use alsrac_rt::{derive_indexed, Stream};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ER ≤ 3% on Table IV/VI circuits under the default flow: the main
    /// user case, `optimize`-bound, with two circuits that churn.
    ErSuite,
    /// NMED-constrained EPFL arithmetic plus SAT-gated WCE adders: the
    /// only workload where the distance decode and `alsrac_sat` work.
    Distance,
    /// The 22k-AND `mtp48` under the scale configuration: estimation and
    /// LAC generation on a simulation arena that does not fit in cache.
    ScaleEngine,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::ErSuite, Workload::Distance, Workload::ScaleEngine];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ErSuite => "er_suite",
            Workload::Distance => "distance",
            Workload::ScaleEngine => "scale_engine",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One flow job: a circuit and the configuration it runs under.
pub struct Job {
    /// The circuit's paper name, plus the metric for distance jobs.
    pub name: String,
    /// The exact circuit the flow starts from.
    pub original: Aig,
    /// The flow configuration, seed included.
    pub config: FlowConfig,
}

/// Mapped cost of a circuit: the AND count and the §IV cost models.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// AND nodes.
    pub ands: f64,
    /// MCNC cell area.
    pub area: f64,
    /// MCNC critical-path delay.
    pub delay: f64,
    /// 6-LUT count.
    pub luts: f64,
}

impl Cost {
    /// Maps `aig` with both cost models.
    pub fn of(aig: &Aig) -> Cost {
        let (area, delay) = asic_cost(aig);
        let (luts, _) = fpga_cost(aig);
        Cost {
            ands: aig.num_ands() as f64,
            area,
            delay,
            luts,
        }
    }
}

/// Which circuit, metric, threshold and iteration cap a job runs.
struct Spec {
    circuit: &'static str,
    metric: ErrorMetric,
    threshold: f64,
    max_iterations: usize,
}

const fn spec(
    circuit: &'static str,
    metric: ErrorMetric,
    threshold: f64,
    max_iterations: usize,
) -> Spec {
    Spec {
        circuit,
        metric,
        threshold,
        max_iterations,
    }
}

/// `er_suite`: `alu4` and `c880` churn zero-gain accepts to the cap;
/// `rca32` is all `lac_gen` (no candidate fits the budget);
/// `int2float` and `decoder` estimate exhaustively. `cla32`, `wal8`,
/// `arbiter`, `c1908`, `c2670` and `ksa32` are left out: at this
/// threshold their sampled estimate lets the final error land over 3%
/// on some seeds, and a workload must not fail.
const ER_SUITE: [Spec; 5] = [
    spec("alu4", Er, 0.03, 100),
    spec("c880", Er, 0.03, 100),
    spec("rca32", Er, 0.03, 100),
    spec("int2float", Er, 0.03, 100),
    spec("decoder", Er, 0.03, 100),
];

/// `distance`: NMED on EPFL arithmetic (fused distance decode) and WCE
/// on adders (one SAT query per accept candidate). Multipliers are left
/// out: a paper-scale WCE run on one takes minutes.
const DISTANCE: [Spec; 5] = [
    spec("log2", Nmed, 0.005, 60),
    spec("shifter", Nmed, 0.005, 60),
    spec("max", Nmed, 0.005, 60),
    spec("cla32", Wce, 64.0, 60),
    spec("rca32", Wce, 64.0, 60),
];

/// Smoke-size caps: seconds-long runs of the same code paths.
const SMOKE_ITERATIONS: usize = 8;
/// Smoke-size WCE bound: Test-scale adders have 7-bit sums.
const SMOKE_WCE: f64 = 4.0;
/// Smoke-size stand-in for `mtp48` (a 12x12 array multiplier).
const SMOKE_SCALE_WIDTH: usize = 12;

/// Generates the workload's circuits and flow configurations. The flow
/// seed of job `i` is derived from `seed` and `i`.
pub fn jobs(workload: Workload, seed: u64, smoke: bool) -> Vec<Job> {
    let scale = if smoke { Scale::Test } else { Scale::Paper };
    let flow_seed = |i: usize| derive_indexed(seed, Stream::Generation, i as u64);
    match workload {
        Workload::ScaleEngine => {
            let (name, original) = if smoke {
                let aig = arith::array_multiplier(SMOKE_SCALE_WIDTH);
                (format!("mtp{SMOKE_SCALE_WIDTH}"), aig)
            } else {
                let bench = catalog::scale_benchmarks()
                    .into_iter()
                    .find(|b| b.paper_name == "mtp48")
                    .expect("mtp48 is in the scale suite");
                ("mtp48".to_string(), bench.aig)
            };
            let mut config = scale_config(flow_seed(0));
            if smoke {
                config.max_iterations = 2;
            }
            vec![Job {
                name,
                original,
                config,
            }]
        }
        Workload::ErSuite | Workload::Distance => {
            let specs: &[Spec] = if workload == Workload::ErSuite {
                &ER_SUITE
            } else {
                &DISTANCE
            };
            let suite: Vec<Benchmark> = catalog::iscas_and_arith(scale)
                .into_iter()
                .chain(catalog::epfl_control(scale))
                .chain(catalog::epfl_arith(scale))
                .collect();
            specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let original = suite
                        .iter()
                        .find(|b| b.paper_name == s.circuit)
                        .expect("workload circuits are in the catalog")
                        .aig
                        .clone();
                    let threshold = match s.metric {
                        Wce if smoke => SMOKE_WCE,
                        _ => s.threshold,
                    };
                    let config = FlowConfig {
                        metric: s.metric,
                        threshold,
                        max_iterations: if smoke {
                            SMOKE_ITERATIONS
                        } else {
                            s.max_iterations
                        },
                        seed: flow_seed(i),
                        ..FlowConfig::default()
                    };
                    let name = match workload {
                        Workload::Distance => format!("{}/{}", s.circuit, s.metric),
                        _ => s.circuit.to_string(),
                    };
                    Job {
                        name,
                        original,
                        config,
                    }
                })
                .collect()
        }
    }
}

/// `bench_sim`'s scale configuration: optimize off, 8192 sampled
/// estimation patterns, window `max_tfi` 150, 4 iterations.
fn scale_config(seed: u64) -> FlowConfig {
    FlowConfig {
        metric: Er,
        threshold: 0.05,
        max_iterations: 4,
        est_rounds: 8192,
        measure_rounds: 1024,
        optimize_after_apply: false,
        seed,
        window: WindowConfig {
            max_tfi: 150,
            ..WindowConfig::default()
        },
        ..FlowConfig::default()
    }
}
