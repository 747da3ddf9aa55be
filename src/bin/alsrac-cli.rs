//! `alsrac-cli` — run the ALSRAC flow on a circuit file from the command
//! line.
//!
//! ```text
//! alsrac-cli --input adder.blif --metric er --threshold 0.01 --output approx.blif
//! alsrac-cli --bench rca32 --metric nmed --threshold 0.0005 --map lut6
//! alsrac-cli --bench ks32 --metric wce --threshold 4 --deadline 30 --sat-conflicts 100000
//! ```
//!
//! Input formats: BLIF (`.blif`), ASCII AIGER (`.aag`), binary AIGER
//! (`.aig`), or a named generated benchmark via `--bench`. The output
//! format follows the output file extension.
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
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use alsrac_suite::aig::Aig;
use alsrac_suite::circuits::{aiger, blif, catalog};
use alsrac_suite::core::baseline::{liu, su};
use alsrac_suite::core::checkpoint::Checkpoint;
use alsrac_suite::core::flow::{self, run, FlowConfig, FlowOutcome};
use alsrac_suite::core::serve::{self, CircuitSource, ExitReason};
use alsrac_suite::map::cell::{map_cells, Library};
use alsrac_suite::map::lut::map_luts;
use alsrac_suite::metrics::{CertStatus, ErrorMetric};
use alsrac_suite::rt::budget::{Budget, CancelToken};
use alsrac_suite::rt::pool;

struct Args {
    input: Option<String>,
    bench: Option<String>,
    output: Option<String>,
    metric: ErrorMetric,
    threshold: f64,
    seed: u64,
    method: String,
    map: Option<String>,
    measure_rounds: usize,
    deadline: Option<f64>,
    sat_conflicts: Option<u64>,
    sat_propagations: Option<u64>,
    checkpoint: String,
    resume: Option<String>,
    serve: bool,
    socket: Option<String>,
    workers: Option<usize>,
}

const USAGE: &str = "\
usage: alsrac-cli [options]
  --input FILE        input circuit (.blif, .aag, .aig)
  --bench NAME        use a generated benchmark (e.g. rca32, voter) instead
  --output FILE       write the approximate circuit (.blif, .aag, .aig)
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
  --serve             run as a JSONL job daemon on stdin/stdout instead of
                      a single flow (requests in, responses and streamed
                      trace records out, one JSON object per line)
  --socket PATH       with --serve: listen on a Unix socket at PATH and
                      serve one connection at a time instead of stdio
  --workers N         with --serve: concurrent job workers (default: the
                      pool thread count, i.e. ALSRAC_THREADS or the CPU count)

Ctrl-C checkpoints the run to the --checkpoint path and exits 130.
In --serve mode, Ctrl-C checkpoints running jobs, cancels queued ones,
emits the final shutdown record, and exits 130.
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        bench: None,
        output: None,
        metric: ErrorMetric::ErrorRate,
        threshold: 0.01,
        seed: 1,
        method: "alsrac".to_string(),
        map: None,
        measure_rounds: 100_000,
        deadline: None,
        sat_conflicts: None,
        sat_propagations: None,
        checkpoint: "alsrac_checkpoint.json".to_string(),
        resume: None,
        serve: false,
        socket: None,
        workers: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--input" => args.input = Some(value()?),
            "--bench" => args.bench = Some(value()?),
            "--output" => args.output = Some(value()?),
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
            "--method" => args.method = value()?,
            "--map" => args.map = Some(value()?),
            "--deadline" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("deadline must be a positive number, got {secs}"));
                }
                args.deadline = Some(secs);
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
            "--serve" => args.serve = true,
            "--socket" => args.socket = Some(value()?),
            "--workers" => {
                let n: usize = value()?.parse().map_err(|e| format!("workers: {e}"))?;
                if n == 0 {
                    return Err("workers must be at least 1".to_string());
                }
                args.workers = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.serve {
        if args.input.is_some() || args.bench.is_some() {
            return Err("--serve takes circuits via submit requests, not --input/--bench".into());
        }
        if args.output.is_some() || args.resume.is_some() {
            return Err("--output/--resume do not apply in --serve mode".to_string());
        }
        return Ok(args);
    }
    if args.socket.is_some() || args.workers.is_some() {
        return Err("--socket/--workers require --serve".to_string());
    }
    if args.input.is_none() == args.bench.is_none() {
        return Err("exactly one of --input or --bench is required".to_string());
    }
    if args.method != "alsrac" {
        let budgeted = args.deadline.is_some()
            || args.sat_conflicts.is_some()
            || args.sat_propagations.is_some()
            || args.resume.is_some();
        if budgeted {
            return Err(format!(
                "--deadline/--sat-conflicts/--sat-propagations/--resume require \
                 --method alsrac, not {:?}",
                args.method
            ));
        }
    }
    Ok(args)
}

fn load(args: &Args) -> Result<Aig, Box<dyn Error>> {
    if let Some(name) = &args.bench {
        return catalog::by_name(name, catalog::Scale::Paper)
            .ok_or_else(|| format!("unknown benchmark {name:?}").into());
    }
    let path = args.input.as_deref().expect("validated");
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "blif" => Ok(blif::parse(&std::fs::read_to_string(path)?)?),
        "aag" => Ok(aiger::parse_ascii(&std::fs::read_to_string(path)?)?),
        "aig" => Ok(aiger::parse_binary(&std::fs::read(path)?)?),
        other => Err(format!("unsupported input extension {other:?}").into()),
    }
}

fn save(path: &str, aig: &Aig) -> Result<(), Box<dyn Error>> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "blif" => std::fs::write(path, blif::write(aig))?,
        "aag" => std::fs::write(path, aiger::write_ascii(aig))?,
        "aig" => std::fs::write(path, aiger::write_binary(aig))?,
        other => return Err(format!("unsupported output extension {other:?}").into()),
    }
    Ok(())
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

/// Builds the circuit resolver the daemon's shared catalog uses: named
/// circuits come from the bundled generators (at either scale, with the
/// large scale-study multipliers also reachable by name), inline text
/// goes through the BLIF/AIGER parsers.
fn serve_resolver() -> Box<serve::Resolver> {
    Box::new(|source: &CircuitSource| match source {
        CircuitSource::Named { name, scale } => {
            let scale = match scale.as_str() {
                "paper" => catalog::Scale::Paper,
                _ => catalog::Scale::Test,
            };
            catalog::by_name(name, scale)
                .or_else(|| {
                    catalog::scale_benchmarks()
                        .into_iter()
                        .find(|b| b.paper_name == *name)
                        .map(|b| b.aig)
                })
                .ok_or_else(|| format!("unknown benchmark {name:?}"))
        }
        CircuitSource::Blif(text) => blif::parse(text).map_err(|e| e.to_string()),
        CircuitSource::Aag(text) => aiger::parse_ascii(text).map_err(|e| e.to_string()),
    })
}

/// Runs the daemon over stdio or a Unix socket until shutdown. Returns
/// exit code 130 when SIGINT stopped the session (mirroring the
/// single-flow checkpoint path).
fn run_serve(args: &Args) -> Result<ExitCode, Box<dyn Error>> {
    let stop = install_sigint_handler();
    let catalog = Arc::new(serve::Catalog::new(serve_resolver()));
    let workers = args.workers.unwrap_or_else(pool::current_threads);
    let reason = match &args.socket {
        Some(path) => serve_socket(path, &catalog, workers, &stop)?,
        None => {
            eprintln!("alsrac-cli: serving JSONL on stdin/stdout ({workers} workers)");
            let reader = std::io::BufReader::new(std::io::stdin());
            serve::serve(reader, std::io::stdout(), catalog, workers, Some(stop)).reason
        }
    };
    Ok(match reason {
        ExitReason::StopRequested => ExitCode::from(130),
        _ => ExitCode::SUCCESS,
    })
}

/// Accepts connections on a Unix socket one at a time, running a serve
/// session per connection, until a client sends `shutdown` or SIGINT
/// arrives. A client hanging up (EOF) just ends its session; the daemon
/// keeps listening.
fn serve_socket(
    path: &str,
    catalog: &Arc<serve::Catalog>,
    workers: usize,
    stop: &CancelToken,
) -> Result<ExitReason, Box<dyn Error>> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a crashed daemon would make bind fail.
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path).map_err(|e| format!("cannot replace socket {path}: {e}"))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("cannot bind socket {path}: {e}"))?;
    // Non-blocking accept so SIGINT is noticed between connections too.
    listener.set_nonblocking(true)?;
    eprintln!("alsrac-cli: serving JSONL on {path} ({workers} workers)");
    let reason = loop {
        if stop.is_tripped() {
            break ExitReason::StopRequested;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false)?;
                let writer = stream.try_clone()?;
                let reader = std::io::BufReader::new(stream);
                let summary = serve::serve(
                    reader,
                    writer,
                    Arc::clone(catalog),
                    workers,
                    Some(stop.clone()),
                );
                match summary.reason {
                    // EOF just means this client hung up; wait for the next.
                    ExitReason::InputClosed => continue,
                    other => break other,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("accept on {path} failed: {e}").into()),
        }
    };
    let _ = std::fs::remove_file(path);
    Ok(reason)
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
    if args.serve {
        // The daemon owns the trace sink (streamed records ARE the
        // protocol), so ALSRAC_TRACE does not apply here.
        return run_serve(args);
    }
    if let Some(path) = alsrac_suite::rt::trace::init_from_env()? {
        eprintln!("tracing to {path} (ALSRAC_TRACE)");
    }
    let exact = load(args)?;
    eprintln!("loaded: {exact:?}");

    let result = match args.method.as_str() {
        "alsrac" => {
            let mut budget = Budget::unlimited().with_cancel(install_sigint_handler());
            if let Some(secs) = args.deadline {
                budget = budget.with_deadline_after(Duration::from_secs_f64(secs));
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
        "su" => su::run(
            &exact,
            &su::SuConfig {
                metric: args.metric,
                threshold: args.threshold,
                seed: args.seed,
                measure_rounds: args.measure_rounds,
                ..su::SuConfig::default()
            },
        )?,
        "liu" => liu::run(
            &exact,
            &liu::LiuConfig {
                metric: args.metric,
                threshold: args.threshold,
                seed: args.seed,
                measure_rounds: args.measure_rounds,
                ..liu::LiuConfig::default()
            },
        )?,
        other => return Err(format!("unknown method {other:?}").into()),
    };

    if let FlowOutcome::Interrupted { reason } = &result.outcome {
        eprintln!("interrupted: {reason}");
    }
    println!(
        "{} -> {} AND nodes ({:.2}%), {} changes applied{}",
        exact.num_ands(),
        result.approx.num_ands(),
        result.approx.num_ands() as f64 / exact.num_ands().max(1) as f64 * 100.0,
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

    match args.map.as_deref() {
        Some("lut6") => {
            let base = map_luts(&exact, 6);
            let approx = map_luts(&result.approx, 6);
            println!(
                "6-LUT: {} -> {} LUTs, depth {} -> {}",
                base.num_luts(),
                approx.num_luts(),
                base.depth(),
                approx.depth()
            );
        }
        Some("cells") => {
            let lib = Library::mcnc();
            let base = map_cells(&exact, &lib);
            let approx = map_cells(&result.approx, &lib);
            println!(
                "cells: area {:.1} -> {:.1}, delay {:.1} -> {:.1}",
                base.area, approx.area, base.delay, approx.delay
            );
        }
        Some(other) => return Err(format!("unknown mapper {other:?}").into()),
        None => {}
    }

    if let Some(path) = &args.output {
        save(path, &result.approx)?;
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
