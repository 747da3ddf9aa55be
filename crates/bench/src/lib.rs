//! Shared experiment harness for regenerating the ALSRAC paper's tables.
//!
//! Each table of §IV has a binary in `src/bin` (`table3` … `table7`,
//! `ablation`); this library holds the common machinery: cost evaluation
//! through the two technology mappers, multi-seed averaging (the paper runs
//! everything three times), fixed-width table printing, and the
//! ALSRAC-versus-baseline [`Comparison`] that Tables IV–VII share.
//!
//! All binaries accept:
//!
//! * `--scale test|paper` — circuit sizes (default `test`, CI-friendly;
//!   `paper` approaches Table III sizes),
//! * `--seeds N` — averaging runs, at least 1 (default 1; the paper uses 3),
//! * `--quick` / `--full` — threshold sweep density,
//! * `--trace PATH` — write a JSONL run report (also honoured via the
//!   `ALSRAC_TRACE` environment variable; the flag wins). See DESIGN.md
//!   ("Telemetry") for the record schema and `report` for the reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use alsrac::flow::{self, FlowConfig, FlowResult};
use alsrac_aig::Aig;
use alsrac_circuits::catalog::{Benchmark, Scale};
use alsrac_map::cell::{map_cells, Library};
use alsrac_map::lut::map_luts;
use alsrac_metrics::ErrorMetric;

/// Confidence width (in standard normal z-units) of the Wilson interval
/// used by the certification gates: `bench_cert` records agreement
/// between the sampled and SAT-certified error rates at this z, and
/// `report --cert` recomputes the same interval when validating
/// `BENCH_cert.json`. z = 3.89 keeps the false-failure probability of the
/// CI gate around 1e-4 per circuit.
pub const CERT_WILSON_Z: f64 = 3.89;

/// Parsed command-line options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Benchmark generation scale.
    pub scale: Scale,
    /// Number of seeds to average over.
    pub seeds: u64,
    /// Dense threshold sweep (the paper's full list) vs. a quick subset.
    pub full: bool,
    /// JSONL trace sink path (`--trace`); `None` falls back to the
    /// `ALSRAC_TRACE` environment variable.
    pub trace: Option<String>,
}

impl Options {
    /// Parses `std::env::args`-style arguments; an unknown flag or a bad
    /// value aborts with a usage message (exit status 2).
    pub fn parse(args: impl Iterator<Item = String>) -> Options {
        Options::parse_args(args).unwrap_or_else(|problem| usage(&problem))
    }

    fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut options = Options {
            scale: Scale::Test,
            seeds: 1,
            full: false,
            trace: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let value = args.next().unwrap_or_default();
                    options.scale = match value.as_str() {
                        "test" => Scale::Test,
                        "paper" => Scale::Paper,
                        other => return Err(format!("unknown scale {other:?}")),
                    };
                }
                "--seeds" => {
                    // Zero seeds would average nothing and print ratios of 0.
                    let value = args.next().unwrap_or_default();
                    options.seeds = match value.parse() {
                        Ok(seeds) if seeds > 0 => seeds,
                        _ => return Err(format!("bad --seeds {value:?} (need a count >= 1)")),
                    };
                }
                "--quick" => options.full = false,
                "--full" => options.full = true,
                "--trace" => {
                    let value = args.next().unwrap_or_default();
                    if value.is_empty() {
                        return Err("--trace needs a path".to_string());
                    }
                    options.trace = Some(value);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(options)
    }

    /// Installs the trace sink requested by `--trace` (or, failing that,
    /// `ALSRAC_TRACE`) and emits the opening `process` record. Call once at
    /// the top of an experiment binary, paired with [`Options::finish_trace`]
    /// before exit. Returns whether tracing is on.
    pub fn init_trace(&self, binary: &'static str) -> bool {
        let enabled = match &self.trace {
            Some(path) => {
                alsrac_rt::trace::enable_file(path)
                    .unwrap_or_else(|e| usage(&format!("--trace {path}: cannot create: {e}")));
                true
            }
            None => alsrac_rt::trace::init_from_env()
                .unwrap_or_else(|e| usage(&e.to_string()))
                .is_some(),
        };
        if enabled {
            alsrac_rt::trace::emit(
                alsrac_rt::json::Obj::new()
                    .str("type", "process")
                    .str("binary", binary)
                    .str(
                        "scale",
                        match self.scale {
                            Scale::Test => "test",
                            Scale::Paper => "paper",
                        },
                    )
                    .u64("seeds", self.seeds)
                    .bool("full", self.full)
                    .u64("threads", alsrac_rt::pool::current_threads() as u64),
            );
        }
        enabled
    }

    /// Emits the closing `totals` record and flushes the sink. No-op when
    /// tracing is off.
    pub fn finish_trace(&self) {
        alsrac_rt::trace::emit_totals();
        alsrac_rt::trace::flush();
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: <binary> [--scale test|paper] [--seeds N] [--quick|--full] [--trace PATH]");
    std::process::exit(2)
}

/// ASIC cost of a circuit: (cell area, critical-path delay) under the
/// MCNC-like library — the §IV-B cost model.
pub fn asic_cost(aig: &Aig) -> (f64, f64) {
    let mapping = map_cells(aig, &Library::mcnc());
    (mapping.area, mapping.delay)
}

/// FPGA cost of a circuit: (6-LUT count, LUT depth) — the §IV-C cost model.
pub fn fpga_cost(aig: &Aig) -> (f64, f64) {
    let mapping = map_luts(aig, 6);
    (mapping.num_luts() as f64, f64::from(mapping.depth()))
}

/// One averaged experiment outcome for a (circuit, method, threshold) cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    /// Mapped area of the approximate circuit over the cleaned exact one.
    pub area_ratio: f64,
    /// Mapped delay of the approximate circuit over the cleaned exact one.
    pub delay_ratio: f64,
    /// Wall-clock seconds of the synthesis run.
    pub seconds: f64,
    /// Runs whose independently *measured* error exceeded the threshold by
    /// more than 10% — statistical-estimation escapes the paper's setup
    /// shares but does not report. Non-zero values flag untrustworthy
    /// area numbers.
    pub violations: usize,
}

/// Runs `method` `seeds` times and averages mapped cost ratios, using
/// `cost` as the technology cost model. `check` receives each run's
/// measurement and says whether it honours the error budget (used for the
/// violation count).
///
/// Ratios divide by the cost of `exact.cleaned()`, the circuit every flow
/// starts from: the mappers' results depend on node numbering, so the
/// uncleaned original can map to another cost at the same function and
/// AND count (`router` maps to 40 6-LUTs, its cleaned copy to 48), and a
/// run that changes nothing must read a ratio of 1.
///
/// # Panics
///
/// Panics if `seeds` is 0: there would be nothing to average.
pub fn average_outcome(
    exact: &Aig,
    seeds: u64,
    cost: impl Fn(&Aig) -> (f64, f64),
    mut method: impl FnMut(u64) -> FlowResult,
    check: impl Fn(&FlowResult) -> bool,
) -> Outcome {
    assert!(seeds > 0, "averaging needs at least one seed");
    let (base_area, base_delay) = cost(&exact.cleaned());
    let mut total = Outcome::default();
    for seed in 1..=seeds {
        let start = Instant::now();
        let result = method(seed);
        let seconds = start.elapsed().as_secs_f64();
        let (area, delay) = cost(&result.approx);
        total.area_ratio += safe_ratio(area, base_area);
        total.delay_ratio += safe_ratio(delay, base_delay);
        total.seconds += seconds;
        if !check(&result) {
            total.violations += 1;
        }
    }
    let n = seeds as f64;
    Outcome {
        area_ratio: total.area_ratio / n,
        delay_ratio: total.delay_ratio / n,
        seconds: total.seconds / n,
        violations: total.violations,
    }
}

/// One method comparison of §IV (Tables IV–VII): ALSRAC against a
/// baseline on one circuit suite. Each row averages a circuit's outcomes
/// over the seeds, then over the thresholds; the table's last row is the
/// arithmetic mean of the rows.
pub struct Comparison<'a> {
    /// Experiment binary, named in the trace's `process` record.
    pub binary: &'static str,
    /// Table title.
    pub title: &'a str,
    /// Column label of the baseline method (`Su` or `Liu`).
    pub baseline: &'a str,
    /// Whether the table also reports the baseline's runtime.
    pub baseline_seconds: bool,
    /// The constrained error metric.
    pub metric: ErrorMetric,
    /// The thresholds each row averages over.
    pub thresholds: &'a [f64],
    /// The circuits, one row each.
    pub benches: Vec<Benchmark>,
    /// Technology cost model: [`asic_cost`] or [`fpga_cost`].
    pub cost: fn(&Aig) -> (f64, f64),
}

impl Comparison<'_> {
    /// Runs the comparison, one worker per circuit, and prints its table
    /// between the trace's `process` and `totals` records. `baseline`
    /// runs the baseline as `baseline(exact, threshold, seed,
    /// optimize_period)`. Returns each circuit's name and its ALSRAC and
    /// baseline outcomes, averaged over the thresholds.
    ///
    /// Each (circuit, threshold, seed) run is an independent seeded flow,
    /// so rows come out identical to the serial loop at any
    /// `ALSRAC_THREADS`.
    pub fn run(
        &self,
        options: &Options,
        baseline: impl Fn(&Aig, f64, u64, usize) -> FlowResult + Sync,
    ) -> Vec<(&'static str, Outcome, Outcome)> {
        options.init_trace(self.binary);
        // Paper-scale circuits re-optimize in batches to keep runtimes sane.
        let period = if options.scale == Scale::Paper { 8 } else { 1 };
        let n = self.thresholds.len() as f64;
        let rows = alsrac_rt::pool::par_map(&self.benches, |bench| {
            let exact = &bench.aig;
            let mut ours = Outcome::default();
            let mut theirs = Outcome::default();
            for &threshold in self.thresholds {
                let a = average_outcome(
                    exact,
                    options.seeds,
                    self.cost,
                    |seed| {
                        let config = FlowConfig {
                            metric: self.metric,
                            threshold,
                            seed,
                            max_iterations: 600,
                            est_rounds: 1024,
                            optimize_period: period,
                            ..FlowConfig::default()
                        };
                        flow::run(exact, &config).expect("ALSRAC flow")
                    },
                    within_budget(self.metric, threshold),
                );
                let b = average_outcome(
                    exact,
                    options.seeds,
                    self.cost,
                    |seed| baseline(exact, threshold, seed, period),
                    within_budget(self.metric, threshold),
                );
                for (sum, outcome) in [(&mut ours, a), (&mut theirs, b)] {
                    sum.area_ratio += outcome.area_ratio;
                    sum.delay_ratio += outcome.delay_ratio;
                    sum.seconds += outcome.seconds;
                    sum.violations += outcome.violations;
                }
            }
            let [ours, theirs] = [ours, theirs].map(|sum| Outcome {
                area_ratio: sum.area_ratio / n,
                delay_ratio: sum.delay_ratio / n,
                seconds: sum.seconds / n,
                violations: sum.violations,
            });
            let mut row = vec![
                bench.paper_name.to_string(),
                percent(ours.area_ratio),
                percent(theirs.area_ratio),
                percent(ours.delay_ratio),
                percent(theirs.delay_ratio),
                format!("{:.1}", ours.seconds),
            ];
            if self.baseline_seconds {
                row.push(format!("{:.1}", theirs.seconds));
            }
            row.push(format!("{}/{}", ours.violations, theirs.violations));
            eprintln!("done: {} {:?}", bench.paper_name, row);
            (row, (bench.paper_name, ours, theirs))
        });
        let b = self.baseline;
        let mut header = vec![
            "Circuit".to_string(),
            "ALSRAC area".to_string(),
            format!("{b} area"),
            "ALSRAC delay".to_string(),
            format!("{b} delay"),
            "ALSRAC t(s)".to_string(),
        ];
        if self.baseline_seconds {
            header.push(format!("{b} t(s)"));
        }
        header.push(format!("viol A/{}", &b[..1]));
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let (rows, outcomes): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let mean_over: Vec<usize> = (1..header.len() - 1).collect();
        print_table(self.title, &header, &rows, &mean_over);
        options.finish_trace();
        outcomes
    }
}

/// Standard budget check: measured error within 110% of the threshold
/// (tolerating Monte-Carlo noise).
pub fn within_budget(
    metric: alsrac_metrics::ErrorMetric,
    threshold: f64,
) -> impl Fn(&FlowResult) -> bool {
    move |result| {
        result
            .measured
            .value(metric)
            .is_none_or(|v| v <= threshold * 1.10 + 1e-12)
    }
}

fn safe_ratio(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        value / base
    } else {
        1.0
    }
}

/// Prints a fixed-width table: a header row and then `rows`, with the
/// arithmetic-mean row appended (as in the paper's tables).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>], mean_over: &[usize]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    };
    print_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        print_row(row);
    }
    if !rows.is_empty() && !mean_over.is_empty() {
        let mut mean_row: Vec<String> = vec![String::new(); header.len()];
        mean_row[0] = "Arithmean".to_string();
        for &col in mean_over {
            let sum: f64 = rows.iter().filter_map(|r| parse_cell(&r[col])).sum();
            let count = rows
                .iter()
                .filter(|r| parse_cell(&r[col]).is_some())
                .count();
            if count > 0 {
                let mean = sum / count as f64;
                mean_row[col] = if rows.iter().any(|r| r[col].ends_with('%')) {
                    format!("{mean:.2}%")
                } else {
                    format!("{mean:.2}")
                };
            }
        }
        print_row(&mean_row);
    }
}

fn parse_cell(cell: &str) -> Option<f64> {
    cell.trim_end_matches('%').parse().ok()
}

/// Formats a ratio as the paper does (percent, two decimals).
pub fn percent(ratio: f64) -> String {
    format!("{:.2}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let o = Options::parse(std::iter::empty());
        assert_eq!(o.scale, Scale::Test);
        assert_eq!(o.seeds, 1);
        assert!(!o.full);
    }

    #[test]
    fn parse_flags() {
        let args = ["--scale", "paper", "--seeds", "3", "--full"]
            .iter()
            .map(|s| s.to_string());
        let o = Options::parse(args);
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seeds, 3);
        assert!(o.full);
    }

    #[test]
    fn parse_rejects_zero_seeds_and_bad_values() {
        let parse = |args: &[&str]| Options::parse_args(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--seeds", "2"]).map(|o| o.seeds), Ok(2));
        for bad in [
            &["--seeds", "0"][..],
            &["--seeds", "-1"],
            &["--seeds"],
            &["--scale", "huge"],
            &["--trace"],
            &["--fast"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn costs_are_positive_for_real_circuits() {
        let aig = alsrac_circuits::arith::ripple_carry_adder(4);
        let (a, d) = asic_cost(&aig);
        assert!(a > 0.0 && d > 0.0);
        let (l, dep) = fpga_cost(&aig);
        assert!(l > 0.0 && dep > 0.0);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.8011), "80.11%");
    }

    #[test]
    fn an_unchanged_circuit_reads_a_ratio_of_one() {
        // `router` maps to more LUTs once cleaned, with no change applied.
        let router = alsrac_circuits::catalog::by_name("router", Scale::Paper).expect("known");
        let unchanged = |_| FlowResult {
            approx: router.cleaned(),
            iterations: 0,
            applied: 0,
            measured: alsrac_metrics::Measurement {
                num_patterns: 1,
                error_rate: 0.0,
                nmed: None,
                mred: None,
                max_error_distance: None,
            },
            certificate: None,
            history: Vec::new(),
            outcome: flow::FlowOutcome::Completed,
            checkpoint: None,
        };
        for cost in [asic_cost, fpga_cost] {
            let outcome = average_outcome(&router, 1, cost, unchanged, |_| true);
            assert_eq!(outcome.area_ratio, 1.0);
            assert_eq!(outcome.delay_ratio, 1.0);
        }
    }

    #[test]
    fn safe_ratio_handles_zero_base() {
        assert_eq!(safe_ratio(5.0, 0.0), 1.0);
        assert_eq!(safe_ratio(5.0, 10.0), 0.5);
    }
}
