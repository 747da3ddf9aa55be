//! `alsrac-cli` — run the ALSRAC flow on a circuit file from the command
//! line.
//!
//! ```text
//! alsrac-cli --input adder.blif --metric er --threshold 0.01 --output approx.blif
//! alsrac-cli --bench rca32 --metric nmed --threshold 0.0005 --map lut6
//! alsrac-cli --bench ksa32 --metric wce --threshold 4 --deadline 30 --sat-conflicts 100000
//! ```
//!
//! Input formats: BLIF (`.blif`), ASCII AIGER (`.aag`), binary AIGER
//! (`.aig`), or a named generated benchmark via `--bench`. The output
//! format follows the output file extension: the three input formats or
//! structural Verilog (`.v`). Flag values are checked before the circuit
//! is loaded, so a bad one never costs a flow run.
//!
//! # Budgets and interruption
//!
//! `--deadline SECS` bounds the wall clock and `--sat-conflicts` /
//! `--sat-propagations` cap each SAT certification query (capped queries
//! degrade the certificate instead of hanging the run). Ctrl-C (SIGINT)
//! trips the flow's cancel token cooperatively: the run stops at the next
//! iteration boundary, writes its loop state to the `--checkpoint` path,
//! flushes the trace, prints the best circuit found so far, and exits
//! with status 130. A later invocation with `--resume PATH` (same
//! circuit, seed, metric, and threshold) continues from that state and
//! produces a result bit-identical to a never-interrupted run.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Duration;

use alsrac_suite::aig::Aig;
use alsrac_suite::circuits::{aiger, blif, catalog, verilog};
use alsrac_suite::core::baseline::{liu, su};
use alsrac_suite::core::checkpoint::Checkpoint;
use alsrac_suite::core::flow::{self, run, FlowConfig, FlowOutcome};
use alsrac_suite::map::cell::{map_cells, Library};
use alsrac_suite::map::lut::map_luts;
use alsrac_suite::metrics::{CertStatus, ErrorMetric};
use alsrac_suite::rt::budget::{Budget, CancelToken};

/// The synthesis method `--method` selects.
#[derive(Clone, Copy, PartialEq)]
enum Method {
    Alsrac,
    Su,
    Liu,
}

/// The technology mapper `--map` selects.
#[derive(Clone, Copy)]
enum Mapper {
    Lut6,
    Cells,
}

/// A circuit file format, named by the file's extension. Verilog is
/// written only.
#[derive(Clone, Copy)]
enum Format {
    Blif,
    Aag,
    Aig,
    Verilog,
}

impl Format {
    fn of(path: &str) -> Result<Format, String> {
        let ext = Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or("");
        match ext {
            "blif" => Ok(Format::Blif),
            "aag" => Ok(Format::Aag),
            "aig" => Ok(Format::Aig),
            "v" => Ok(Format::Verilog),
            other => Err(format!("unsupported extension {other:?} in {path:?}")),
        }
    }
}

struct Args {
    input: Option<(String, Format)>,
    bench: Option<String>,
    output: Option<(String, Format)>,
    metric: ErrorMetric,
    threshold: f64,
    seed: u64,
    method: Method,
    map: Option<Mapper>,
    measure_rounds: usize,
    deadline: Option<Duration>,
    sat_conflicts: Option<u64>,
    sat_propagations: Option<u64>,
    checkpoint: String,
    resume: Option<String>,
}

const USAGE: &str = "\
usage: alsrac-cli [options]
  --input FILE        input circuit (.blif, .aag, .aig)
  --bench NAME        use a generated benchmark (e.g. rca32, voter) instead
  --output FILE       write the approximate circuit (.blif, .aag, .aig, .v)
  --metric er|nmed|mred|wce   error metric (default er)
  --threshold X       error budget (default 0.01; an absolute maximum
                      error distance when --metric wce)
  --method alsrac|su|liu  synthesis method (default alsrac)
  --map lut6|cells    also report mapped cost
  --seed N            RNG seed (default 1)
  --rounds N          Monte-Carlo measurement rounds (default 100000)
  --deadline SECS     stop after this much wall time, checkpointing
  --sat-conflicts N   cap each SAT certification query at N conflicts
  --sat-propagations N  cap each SAT query at N literal propagations
  --checkpoint FILE   where an interrupted run saves its state
                      (default alsrac_checkpoint.json)
  --resume FILE       continue a previously interrupted run from FILE
                      (requires the same circuit, seed, metric, threshold)

Ctrl-C checkpoints the run to the --checkpoint path and exits 130.
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        bench: None,
        output: None,
        metric: ErrorMetric::ErrorRate,
        threshold: 0.01,
        seed: 1,
        method: Method::Alsrac,
        map: None,
        measure_rounds: 100_000,
        deadline: None,
        sat_conflicts: None,
        sat_propagations: None,
        checkpoint: "alsrac_checkpoint.json".to_string(),
        resume: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--input" => {
                let path = value()?;
                match Format::of(&path)? {
                    Format::Verilog => return Err(format!("cannot read Verilog input {path:?}")),
                    format => args.input = Some((path, format)),
                }
            }
            "--bench" => args.bench = Some(value()?),
            "--output" => {
                let path = value()?;
                let format = Format::of(&path)?;
                args.output = Some((path, format));
            }
            "--metric" => {
                args.metric = match value()?.as_str() {
                    "er" => ErrorMetric::ErrorRate,
                    "nmed" => ErrorMetric::Nmed,
                    "mred" => ErrorMetric::Mred,
                    "wce" => ErrorMetric::Wce,
                    other => return Err(format!("unknown metric {other}")),
                }
            }
            "--threshold" => {
                args.threshold = value()?.parse().map_err(|e| format!("threshold: {e}"))?
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("seed: {e}"))?,
            "--rounds" => {
                args.measure_rounds = value()?.parse().map_err(|e| format!("rounds: {e}"))?
            }
            "--method" => {
                args.method = match value()?.as_str() {
                    "alsrac" => Method::Alsrac,
                    "su" => Method::Su,
                    "liu" => Method::Liu,
                    other => return Err(format!("unknown method {other:?}")),
                }
            }
            "--map" => {
                args.map = Some(match value()?.as_str() {
                    "lut6" => Mapper::Lut6,
                    "cells" => Mapper::Cells,
                    other => return Err(format!("unknown mapper {other:?}")),
                })
            }
            "--deadline" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("deadline must be a positive number, got {secs}"));
                }
                // Too long to represent: a deadline that never expires.
                args.deadline = Some(Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX));
            }
            "--sat-conflicts" => {
                args.sat_conflicts = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("sat-conflicts: {e}"))?,
                )
            }
            "--sat-propagations" => {
                args.sat_propagations = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("sat-propagations: {e}"))?,
                )
            }
            "--checkpoint" => args.checkpoint = value()?,
            "--resume" => args.resume = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.input.is_none() == args.bench.is_none() {
        return Err("exactly one of --input or --bench is required".to_string());
    }
    if args.method != Method::Alsrac {
        let budgeted = args.deadline.is_some()
            || args.sat_conflicts.is_some()
            || args.sat_propagations.is_some()
            || args.resume.is_some();
        if budgeted {
            return Err(
                "--deadline/--sat-conflicts/--sat-propagations/--resume require \
                 --method alsrac"
                    .to_string(),
            );
        }
    }
    Ok(args)
}

fn load(args: &Args) -> Result<Aig, Box<dyn Error>> {
    let Some((path, format)) = &args.input else {
        let name = args.bench.as_deref().expect("validated");
        return catalog::by_name(name, catalog::Scale::Paper)
            .ok_or_else(|| format!("unknown benchmark {name:?}").into());
    };
    match format {
        Format::Blif => Ok(blif::parse(&std::fs::read_to_string(path)?)?),
        Format::Aag => Ok(aiger::parse_ascii(&std::fs::read_to_string(path)?)?),
        Format::Aig => Ok(aiger::parse_binary(&std::fs::read(path)?)?),
        Format::Verilog => unreachable!("parse_args rejects Verilog input"),
    }
}

fn save(path: &str, format: Format, aig: &Aig) -> std::io::Result<()> {
    match format {
        Format::Blif => std::fs::write(path, blif::write(aig)),
        Format::Aag => std::fs::write(path, aiger::write_ascii(aig)),
        Format::Aig => std::fs::write(path, aiger::write_binary(aig)),
        Format::Verilog => std::fs::write(path, verilog::write(aig)),
    }
}

/// The token the SIGINT handler trips. Installed once before the flow
/// starts; the handler only does an atomic store, which is
/// async-signal-safe.
static SIGINT_CANCEL: OnceLock<CancelToken> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    if let Some(token) = SIGINT_CANCEL.get() {
        token.trip();
    }
}

/// Installs `on_sigint` as the SIGINT disposition via libc `signal(2)`
/// (no signal-handling crate in this dependency-free workspace). Returns
/// the token the handler trips.
fn install_sigint_handler() -> CancelToken {
    const SIGINT: i32 = 2;
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let token = SIGINT_CANCEL.get_or_init(CancelToken::new).clone();
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
    token
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(args: &Args) -> Result<ExitCode, Box<dyn Error>> {
    if let Some(path) = alsrac_suite::rt::trace::init_from_env()? {
        eprintln!("tracing to {path} (ALSRAC_TRACE)");
    }
    let exact = load(args)?;
    eprintln!("loaded: {exact:?}");

    let result = match args.method {
        Method::Alsrac => {
            let mut budget = Budget::unlimited().with_cancel(install_sigint_handler());
            if let Some(timeout) = args.deadline {
                budget = budget.with_deadline_after(timeout);
            }
            if let Some(n) = args.sat_conflicts {
                budget = budget.with_sat_conflicts(n);
            }
            if let Some(n) = args.sat_propagations {
                budget = budget.with_sat_propagations(n);
            }
            let config = FlowConfig {
                metric: args.metric,
                threshold: args.threshold,
                seed: args.seed,
                measure_rounds: args.measure_rounds,
                budget,
                ..FlowConfig::default()
            };
            match &args.resume {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
                    let checkpoint = Checkpoint::parse(&text)?;
                    eprintln!(
                        "resuming from {path}: {} iterations done, {} applied",
                        checkpoint.iterations, checkpoint.applied
                    );
                    flow::resume(&exact, &config, checkpoint)?
                }
                None => run(&exact, &config)?,
            }
        }
        Method::Su => su::run(
            &exact,
            &su::SuConfig {
                metric: args.metric,
                threshold: args.threshold,
                seed: args.seed,
                measure_rounds: args.measure_rounds,
                ..su::SuConfig::default()
            },
        )?,
        Method::Liu => liu::run(
            &exact,
            &liu::LiuConfig {
                metric: args.metric,
                threshold: args.threshold,
                seed: args.seed,
                measure_rounds: args.measure_rounds,
                ..liu::LiuConfig::default()
            },
        )?,
    };

    if let FlowOutcome::Interrupted { reason } = &result.outcome {
        eprintln!("interrupted: {reason}");
    }
    // Every flow starts from the cleaned input, so costs compare against it.
    let cleaned = exact.cleaned();
    println!(
        "{} -> {} AND nodes ({:.2}%), {} changes applied{}",
        cleaned.num_ands(),
        result.approx.num_ands(),
        result.approx.num_ands() as f64 / cleaned.num_ands().max(1) as f64 * 100.0,
        result.applied,
        if result.outcome.is_completed() {
            ""
        } else {
            " (best so far)"
        },
    );
    println!(
        "measured: ER = {:.6}  NMED = {}  MRED = {}",
        result.measured.error_rate,
        result
            .measured
            .nmed
            .map_or("n/a".to_string(), |v| format!("{v:.8}")),
        result
            .measured
            .mred
            .map_or("n/a".to_string(), |v| format!("{v:.8}")),
    );

    if let Some(cert) = &result.certificate {
        let qualifier = match &cert.status {
            CertStatus::Degraded { reason } => format!("DEGRADED: {reason}; sampled value"),
            CertStatus::Certified if cert.exact => "exact".to_string(),
            CertStatus::Certified => format!(
                "within {:.0}% w.p. {:.0}%",
                cert.epsilon * 100.0,
                (1.0 - cert.delta) * 100.0
            ),
        };
        println!(
            "certified: {} = {} ({qualifier}, {} SAT queries)",
            cert.metric, cert.value, cert.sat_queries,
        );
    }

    match args.map {
        Some(Mapper::Lut6) => {
            let base = map_luts(&cleaned, 6);
            let approx = map_luts(&result.approx, 6);
            println!(
                "6-LUT: {} -> {} LUTs, depth {} -> {}",
                base.num_luts(),
                approx.num_luts(),
                base.depth(),
                approx.depth()
            );
        }
        Some(Mapper::Cells) => {
            let lib = Library::mcnc();
            let base = map_cells(&cleaned, &lib);
            let approx = map_cells(&result.approx, &lib);
            println!(
                "cells: area {:.1} -> {:.1}, delay {:.1} -> {:.1}",
                base.area, approx.area, base.delay, approx.delay
            );
        }
        None => {}
    }

    if let Some((path, format)) = &args.output {
        save(path, *format, &result.approx)?;
        eprintln!("wrote {path}");
    }
    // No-ops unless ALSRAC_TRACE installed a sink above.
    alsrac_suite::rt::trace::emit_totals();
    alsrac_suite::rt::trace::flush();

    if let Some(checkpoint) = &result.checkpoint {
        std::fs::write(&args.checkpoint, checkpoint.to_json() + "\n")
            .map_err(|e| format!("cannot write checkpoint {}: {e}", args.checkpoint))?;
        eprintln!(
            "checkpoint written to {}; continue with --resume {}",
            args.checkpoint, args.checkpoint
        );
        // Conventional exit status for SIGINT-terminated processes; also
        // used for deadline expiry so wrappers treat both as "stopped
        // early, partial result saved".
        return Ok(ExitCode::from(130));
    }
    Ok(ExitCode::SUCCESS)
}
