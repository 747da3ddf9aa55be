//! Trace-report reader: turns a JSONL run trace (`--trace` /
//! `ALSRAC_TRACE`, schema in DESIGN.md "Telemetry") into a human-readable
//! per-phase time breakdown and error-trajectory summary, plus a compact
//! `RUN_SUMMARY.json` for downstream tooling.
//!
//! Four modes:
//!
//! * `report <trace.jsonl> [--summary PATH]` — validate every record
//!   against the schema, print the breakdown, write the summary JSON
//!   (default `RUN_SUMMARY.json` next to the trace).
//! * `report --smoke [PATH]` — run one tiny seeded ALSRAC, Su and Liu run
//!   each with tracing into `PATH` (or `ALSRAC_TRACE`, or a tempfile under
//!   `target/`), then validate each run's records *against its in-process
//!   `FlowResult`*: every accepted iteration's `est_error`, `ands` and
//!   `rounds` and the final `run_end` block must round-trip bit-for-bit,
//!   and the ALSRAC run's `synth_recipes_computed` counter must be
//!   positive. The CI smoke gate runs exactly this.
//! * `report --overhead` — micro-benchmark the disabled-trace path (an
//!   inert span + counter per work item against the bare kernel) and fail
//!   if the overhead exceeds 2%. The CI gate that keeps tracing free for
//!   untraced runs.
//! * `report --cert PATH` — validate a `BENCH_cert.json` certification
//!   artifact (schema, certified-vs-sampled agreement, WCE bounds).
//!
//! Every validation failure is a diagnostic naming the offending record's
//! line number (or JSON path), never a panic backtrace. Exits 0 on
//! success, 1 on any validation or gate failure, 2 on usage errors.

use std::collections::BTreeMap;
use std::process::ExitCode;

use alsrac::baseline::liu::{self, LiuConfig};
use alsrac::baseline::su::{self, SuConfig};
use alsrac::flow::{self, FlowConfig};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::bench::{format_ns, Options as BenchOptions, Runner};
use alsrac_rt::json::{Arr, Json, Obj};
use alsrac_rt::{trace, Rng};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(args.get(1).map(String::as_str)),
        Some("--overhead") => overhead(),
        Some("--cert") => match args.get(1) {
            Some(path) => cert_check(path),
            None => usage("--cert needs a path"),
        },
        Some(path) if !path.starts_with("--") => {
            let summary = match args.get(1).map(String::as_str) {
                Some("--summary") => match args.get(2) {
                    Some(p) => p.clone(),
                    None => return usage("--summary needs a path"),
                },
                Some(other) => return usage(&format!("unknown flag {other:?}")),
                None => sibling_summary_path(path),
            };
            analyze(path, &summary)
        }
        _ => usage("missing trace path"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: report <trace.jsonl> [--summary PATH] | report --smoke [PATH] | \
         report --overhead | report --cert PATH"
    );
    ExitCode::from(2)
}

/// `RUN_SUMMARY.json` in the same directory as the trace file.
fn sibling_summary_path(trace_path: &str) -> String {
    match trace_path.rfind('/') {
        Some(i) => format!("{}/RUN_SUMMARY.json", &trace_path[..i]),
        None => "RUN_SUMMARY.json".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Every counter name the flow may emit into a `totals` record. Schema
/// validation rejects unknown names so a typo in a `trace::add` call site
/// (or a stale reader) fails the smoke gate instead of silently dropping
/// the counter from reports.
const KNOWN_COUNTERS: &[&str] = &[
    "simulations",
    "sim_node_words",
    "influence_words_computed",
    "influence_early_exits",
    "influence_quenched_nodes",
    "influences_computed",
    "influence_cache_hits",
    "lacs_scored",
    "nan_filtered",
    "patterns_simulated",
    "window_extracted",
    "window_nodes",
    "divisors_filtered_by_signature",
    "overhead_probe",
    "cert_miters_built",
    "cert_sat_queries",
    "cert_sweep_merges",
    "cert_sweep_refuted",
    "cert_wce_searches",
    "cert_candidate_rejects",
    "cert_degraded",
    "flow_interrupts",
    "checkpoints_written",
    "faults_injected",
    "synth_recipes_computed",
];

/// The metric names of `run_start` records and certificates.
const METRICS: &[&str] = &["ER", "NMED", "MRED", "WCE"];

/// The `scale` values of `process` records.
const SCALES: &[&str] = &["test", "paper"];

/// The `flow` values of `run_start` records.
const FLOWS: &[&str] = &["alsrac", "su", "liu"];

/// The `reason` values of rejected `iteration` records.
const REJECT_REASONS: &[&str] = &["no_candidates", "over_budget", "metropolis_reject", "cycle"];

/// The record types a trace may contain, with their required fields (see
/// DESIGN.md "Telemetry" for the authoritative description).
fn validate_record(rec: &Json) -> Result<(), String> {
    let typ = rec
        .get("type")
        .and_then(Json::as_str)
        .ok_or("record has no string \"type\"")?;
    let need_u64 = |key: &str| -> Result<u64, String> {
        rec.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("{typ}: missing or non-integer {key:?}"))
    };
    let need_str = |key: &str| -> Result<&str, String> {
        rec.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("{typ}: missing or non-string {key:?}"))
    };
    let need_f64 = |key: &str| -> Result<f64, String> {
        rec.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("{typ}: missing or non-number {key:?}"))
    };
    let need_one_of = |key: &str, allowed: &[&str]| -> Result<&str, String> {
        let value = need_str(key)?;
        match allowed.contains(&value) {
            true => Ok(value),
            false => Err(format!("{typ}: unknown {key} {value:?}")),
        }
    };
    let need_phase_ns = || -> Result<(), String> {
        let phases = rec
            .get("phase_ns")
            .and_then(Json::as_obj)
            .ok_or(format!("{typ}: missing \"phase_ns\" object"))?;
        for (name, v) in phases {
            v.as_u64()
                .ok_or(format!("{typ}: phase_ns.{name} is not an integer"))?;
        }
        Ok(())
    };
    match typ {
        "process" => {
            need_str("binary")?;
            need_one_of("scale", SCALES)?;
            need_u64("seeds")?;
            need_u64("threads")?;
            rec.get("full")
                .and_then(Json::as_bool)
                .ok_or("process: missing bool \"full\"")?;
        }
        "run_start" => {
            need_u64("run")?;
            need_one_of("flow", FLOWS)?;
            need_str("circuit")?;
            need_u64("seed")?;
            need_one_of("metric", METRICS)?;
            need_f64("threshold")?;
            for key in ["inputs", "outputs", "ands", "depth"] {
                need_u64(key)?;
            }
        }
        "iteration" => {
            need_u64("run")?;
            need_u64("iter")?;
            need_u64("candidates")?;
            need_u64("rounds")?;
            need_phase_ns()?;
            let accepted = rec
                .get("accepted")
                .and_then(Json::as_bool)
                .ok_or("iteration: missing bool \"accepted\"")?;
            if accepted {
                need_str("lac")?;
                need_f64("est_error")?;
                need_u64("ands")?;
                need_u64("depth")?;
                rec.get("gain")
                    .and_then(Json::as_f64)
                    .ok_or("iteration: missing number \"gain\"")?;
            } else {
                need_one_of("reason", REJECT_REASONS)?;
            }
        }
        "run_end" => {
            for key in ["run", "iterations", "applied", "ands", "depth", "wall_ns"] {
                need_u64(key)?;
            }
            need_phase_ns()?;
            let measured = rec
                .get("measured")
                .and_then(Json::as_obj)
                .ok_or("run_end: missing \"measured\" object")?;
            measured
                .get("num_patterns")
                .and_then(Json::as_u64)
                .ok_or("run_end: measured.num_patterns missing")?;
            measured
                .get("error_rate")
                .and_then(Json::as_f64)
                .ok_or("run_end: measured.error_rate missing")?;
            for key in ["nmed", "mred", "max_error_distance"] {
                let v = measured
                    .get(key)
                    .ok_or(format!("run_end: measured.{key} missing"))?;
                if !v.is_null() && v.as_f64().is_none() {
                    return Err(format!(
                        "run_end: measured.{key} is neither number nor null"
                    ));
                }
            }
            // Optional SAT certificate (present for WCE / certify flows).
            if let Some(cert) = rec.get("certified") {
                let cert = cert
                    .as_obj()
                    .ok_or("run_end: \"certified\" is not an object")?;
                validate_certified(cert).map_err(|e| format!("run_end: certified.{e}"))?;
            }
            // Optional outcome (absent in pre-budget traces = completed).
            if let Some(outcome) = rec.get("outcome") {
                match outcome.as_str() {
                    Some("completed") => {}
                    Some("interrupted") => {
                        need_str("interrupt_reason")?;
                    }
                    Some(other) => {
                        return Err(format!("run_end: unknown outcome {other:?}"));
                    }
                    None => return Err("run_end: \"outcome\" is not a string".to_string()),
                }
            }
            if let Some(v) = rec.get("resumed_from") {
                v.as_u64()
                    .ok_or("run_end: \"resumed_from\" is not an integer")?;
            }
        }
        "totals" => {
            let spans = rec
                .get("spans")
                .and_then(Json::as_obj)
                .ok_or("totals: missing \"spans\" object")?;
            for (name, span) in spans {
                for key in ["ns", "count", "threads"] {
                    span.get(key)
                        .and_then(Json::as_u64)
                        .ok_or(format!("totals: spans.{name}.{key} missing"))?;
                }
            }
            let counters = rec
                .get("counters")
                .and_then(Json::as_obj)
                .ok_or("totals: missing \"counters\" object")?;
            for (name, v) in counters {
                if !KNOWN_COUNTERS.contains(&name.as_str()) {
                    return Err(format!("totals: unknown counter {name:?}"));
                }
                v.as_u64()
                    .ok_or(format!("totals: counter {name} is not an integer"))?;
            }
        }
        other => return Err(format!("unknown record type {other:?}")),
    }
    Ok(())
}

/// Validates the fields of a `certified` object (a serialized
/// `CertifiedMeasurement`), shared between `run_end` records and
/// `BENCH_cert.json` entries. Error messages are field-relative; callers
/// prefix the location.
fn validate_certified(cert: &BTreeMap<String, Json>) -> Result<(), String> {
    let get = |key: &str| cert.get(key);
    let metric = get("metric")
        .and_then(Json::as_str)
        .ok_or("metric missing or not a string")?;
    if !METRICS.contains(&metric) {
        return Err(format!("metric {metric:?} unknown"));
    }
    let value = get("value")
        .and_then(Json::as_f64)
        .ok_or("value missing or not a number")?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("value {value} out of range"));
    }
    if metric == "ER" && value > 1.0 {
        return Err(format!("ER value {value} > 1"));
    }
    let exact = get("exact")
        .and_then(Json::as_bool)
        .ok_or("exact missing or not a bool")?;
    let epsilon = get("epsilon")
        .and_then(Json::as_f64)
        .ok_or("epsilon missing or not a number")?;
    let delta = get("delta")
        .and_then(Json::as_f64)
        .ok_or("delta missing or not a number")?;
    // Optional status (absent in pre-budget artifacts = certified). A
    // degraded certificate carries no (ε, δ) guarantee at all — its value
    // is the sampled measurement — so the exactness cross-checks below
    // only apply to certified ones.
    let degraded = match get("status").and_then(Json::as_str) {
        None | Some("certified") => false,
        Some("degraded") => {
            get("status_reason")
                .and_then(Json::as_str)
                .ok_or("degraded certificate has no status_reason")?;
            if exact {
                return Err("degraded certificate cannot claim exactness".to_string());
            }
            true
        }
        Some(other) => return Err(format!("unknown status {other:?}")),
    };
    if exact && (epsilon != 0.0 || delta != 0.0) {
        return Err("exact certificate must have epsilon = delta = 0".to_string());
    }
    if !exact && !degraded && (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) {
        return Err(format!(
            "approximate certificate needs epsilon > 0, delta in (0,1); got ({epsilon}, {delta})"
        ));
    }
    get("sat_queries")
        .and_then(Json::as_u64)
        .ok_or("sat_queries missing or not an integer")?;
    Ok(())
}

/// Whether a `certified` object is a degraded (budget-starved) one.
fn is_degraded(cert: &BTreeMap<String, Json>) -> bool {
    cert.get("status").and_then(Json::as_str) == Some("degraded")
}

/// Reads a trace file, parsing and schema-validating every line. Each
/// returned record carries its 1-based line number so downstream readers
/// can name the offending record in diagnostics.
fn load(path: &str) -> Result<Vec<(usize, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        validate_record(&rec).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        records.push((i + 1, rec));
    }
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

/// Field accessors that *report* instead of panicking: a malformed or
/// truncated record that slipped past (or post-dates) `validate_record`
/// becomes a schema-validation error naming the record's line number.
fn req_u64(rec: &Json, path: &str, line: usize, key: &str) -> Result<u64, String> {
    rec.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}:{line}: missing or non-integer {key:?}"))
}

fn req_f64(rec: &Json, path: &str, line: usize, key: &str) -> Result<f64, String> {
    rec.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}:{line}: missing or non-number {key:?}"))
}

fn req_str<'a>(rec: &'a Json, path: &str, line: usize, key: &str) -> Result<&'a str, String> {
    rec.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}:{line}: missing or non-string {key:?}"))
}

// ---------------------------------------------------------------------------
// Default mode: breakdown + RUN_SUMMARY.json
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RunDigest {
    flow: String,
    circuit: String,
    start_ands: u64,
    end_ands: u64,
    iterations: u64,
    applied: u64,
    wall_ns: u64,
    error_rate: Option<f64>,
    /// Accepted-iteration estimated errors, in order.
    trajectory: Vec<f64>,
    /// `run_end.outcome` (absent in pre-budget traces = completed).
    outcome: Option<String>,
    /// Why the run was interrupted, when it was.
    interrupt_reason: Option<String>,
    /// Checkpoint iteration this run resumed from, when it did.
    resumed_from: Option<u64>,
    /// Whether the run's certificate was degraded by budget exhaustion.
    degraded_cert: bool,
}

fn analyze(path: &str, summary_path: &str) -> ExitCode {
    match try_analyze(path, summary_path) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_analyze(path: &str, summary_path: &str) -> Result<ExitCode, String> {
    let records = load(path)?;

    let mut runs: BTreeMap<u64, RunDigest> = BTreeMap::new();
    let mut phase_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for &(line, ref rec) in &records {
        let typ = req_str(rec, path, line, "type")?;
        match typ {
            "run_start" => {
                let run = req_u64(rec, path, line, "run")?;
                let digest = runs.entry(run).or_default();
                digest.flow = req_str(rec, path, line, "flow")?.to_string();
                digest.circuit = req_str(rec, path, line, "circuit")?.to_string();
                digest.start_ands = req_u64(rec, path, line, "ands")?;
            }
            "iteration" => {
                let run = req_u64(rec, path, line, "run")?;
                let digest = runs.entry(run).or_default();
                if rec.get("accepted").and_then(Json::as_bool) == Some(true) {
                    digest
                        .trajectory
                        .push(req_f64(rec, path, line, "est_error")?);
                }
                if let Some(phases) = rec.get("phase_ns").and_then(Json::as_obj) {
                    for (name, v) in phases {
                        let ns = v.as_u64().ok_or_else(|| {
                            format!("{path}:{line}: phase_ns.{name} is not an integer")
                        })?;
                        let sum = phase_ns.entry(name.clone()).or_insert(0);
                        *sum = sum.checked_add(ns).ok_or_else(|| {
                            format!("{path}:{line}: phase_ns.{name} total overflows u64")
                        })?;
                    }
                }
            }
            "run_end" => {
                let run = req_u64(rec, path, line, "run")?;
                let digest = runs.entry(run).or_default();
                digest.iterations = req_u64(rec, path, line, "iterations")?;
                digest.applied = req_u64(rec, path, line, "applied")?;
                digest.end_ands = req_u64(rec, path, line, "ands")?;
                digest.wall_ns = req_u64(rec, path, line, "wall_ns")?;
                digest.error_rate = rec
                    .get("measured")
                    .and_then(|m| m.get("error_rate"))
                    .and_then(Json::as_f64);
                digest.outcome = rec
                    .get("outcome")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                digest.interrupt_reason = rec
                    .get("interrupt_reason")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                digest.resumed_from = rec.get("resumed_from").and_then(Json::as_u64);
                digest.degraded_cert = rec
                    .get("certified")
                    .and_then(Json::as_obj)
                    .is_some_and(is_degraded);
            }
            "totals" => {
                if let Some(cs) = rec.get("counters").and_then(Json::as_obj) {
                    for (name, v) in cs {
                        let count = v.as_u64().ok_or_else(|| {
                            format!("{path}:{line}: counter {name} is not an integer")
                        })?;
                        let sum = counters.entry(name.clone()).or_insert(0);
                        *sum = sum.checked_add(count).ok_or_else(|| {
                            format!("{path}:{line}: counter {name} total overflows u64")
                        })?;
                    }
                }
            }
            _ => {}
        }
    }

    println!("{}: {} records, {} runs", path, records.len(), runs.len());
    println!("\nper-phase time (summed over per-iteration phase_ns):");
    // Shares only: an f64 total cannot overflow where a u64 one could.
    let total: f64 = phase_ns.values().map(|&ns| ns as f64).sum();
    for (name, &ns) in &phase_ns {
        let share = if total > 0.0 {
            100.0 * ns as f64 / total
        } else {
            0.0
        };
        println!("  {name:<12} {:>12}  {share:5.1}%", format_ns(ns as f64));
    }
    if !counters.is_empty() {
        println!("\ncounters:");
        for (name, v) in &counters {
            println!("  {name:<24} {v}");
        }
    }
    println!("\nruns:");
    for (id, d) in &runs {
        let traj = match (d.trajectory.first(), d.trajectory.last()) {
            (Some(first), Some(last)) => {
                format!(
                    "est err {first:.5} -> {last:.5} over {} accepts",
                    d.trajectory.len()
                )
            }
            _ => "no accepted iterations".to_string(),
        };
        let mut notes = String::new();
        if let Some(from) = d.resumed_from {
            notes.push_str(&format!("; resumed from iteration {from}"));
        }
        if d.outcome.as_deref() == Some("interrupted") {
            notes.push_str(&format!(
                "; INTERRUPTED ({})",
                d.interrupt_reason.as_deref().unwrap_or("unknown reason")
            ));
        }
        if d.degraded_cert {
            notes.push_str("; degraded certificate");
        }
        println!(
            "  run {id}: {} {} ands {} -> {} ({} iters, {} applied, {}), {}; measured ER {}{notes}",
            d.flow,
            d.circuit,
            d.start_ands,
            d.end_ands,
            d.iterations,
            d.applied,
            format_ns(d.wall_ns as f64),
            traj,
            d.error_rate
                .map_or("n/a".to_string(), |e| format!("{e:.6}")),
        );
    }
    let interrupted = runs
        .values()
        .filter(|d| d.outcome.as_deref() == Some("interrupted"))
        .count();
    let resumed = runs.values().filter(|d| d.resumed_from.is_some()).count();
    let degraded = runs.values().filter(|d| d.degraded_cert).count();
    if interrupted + resumed + degraded > 0 {
        println!(
            "\nbudgets: {interrupted} interrupted run(s), {resumed} resumed run(s), \
             {degraded} degraded certificate(s)"
        );
    }

    let mut run_arr = Arr::new();
    for (id, d) in &runs {
        let mut traj = Arr::new();
        for &e in &d.trajectory {
            traj = traj.f64(e);
        }
        let mut run_obj = Obj::new()
            .u64("run", *id)
            .str("flow", &d.flow)
            .str("circuit", &d.circuit)
            .u64("start_ands", d.start_ands)
            .u64("end_ands", d.end_ands)
            .u64("iterations", d.iterations)
            .u64("applied", d.applied)
            .u64("wall_ns", d.wall_ns)
            .opt_f64("error_rate", d.error_rate)
            .arr("est_error_trajectory", traj);
        if let Some(outcome) = &d.outcome {
            run_obj = run_obj.str("outcome", outcome);
        }
        if let Some(reason) = &d.interrupt_reason {
            run_obj = run_obj.str("interrupt_reason", reason);
        }
        if let Some(from) = d.resumed_from {
            run_obj = run_obj.u64("resumed_from", from);
        }
        if d.degraded_cert {
            run_obj = run_obj.bool("degraded_certificate", true);
        }
        run_arr = run_arr.obj(run_obj);
    }
    let mut phases_obj = Obj::new();
    for (name, &ns) in &phase_ns {
        phases_obj = phases_obj.u64(name, ns);
    }
    let mut counters_obj = Obj::new();
    for (name, &v) in &counters {
        counters_obj = counters_obj.u64(name, v);
    }
    let summary = Obj::new()
        .str("trace", path)
        .u64("records", records.len() as u64)
        .u64("interrupted_runs", interrupted as u64)
        .u64("resumed_runs", resumed as u64)
        .u64("degraded_certificates", degraded as u64)
        .obj("phase_ns", phases_obj)
        .obj("counters", counters_obj)
        .arr("runs", run_arr)
        .finish();
    std::fs::write(summary_path, summary + "\n")
        .map_err(|e| format!("cannot write {summary_path}: {e}"))?;
    println!("\nwrote {summary_path}");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// --smoke: seeded flow, schema + bit-exactness gate
// ---------------------------------------------------------------------------

fn smoke(path_arg: Option<&str>) -> ExitCode {
    let path = path_arg
        .map(str::to_string)
        .or_else(|| std::env::var("ALSRAC_TRACE").ok().filter(|p| !p.is_empty()))
        .unwrap_or_else(|| "target/alsrac_smoke_trace.jsonl".to_string());
    if let Err(e) = trace::enable_file(&path) {
        eprintln!("error: cannot create {path}: {e}");
        return ExitCode::FAILURE;
    }

    // One seeded run per method, in one trace. Each configuration reliably
    // accepts changes (the shape of each method's own
    // `saves_area_at_loose_threshold` test) — a run with zero accepted
    // iterations would make its bit-exactness check vacuous.
    let exact = alsrac_circuits::arith::kogge_stone_adder(4);
    let alsrac = flow::run(
        &exact,
        &FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.30,
            seed: 7,
            max_iterations: 120,
            ..FlowConfig::default()
        },
    );
    // The ALSRAC run optimizes after every accepted change, so its
    // optimizer must have derived recipes: zero means the run's optimize
    // calls bypass it (the liveness check `window-smoke` makes for
    // `window_extracted`).
    let recipes = trace::snapshot()
        .1
        .into_iter()
        .find(|(name, _)| name == "synth_recipes_computed")
        .map_or(0, |(_, value)| value);
    let runs = [
        ("alsrac", alsrac),
        (
            "su",
            su::run(
                &exact,
                &SuConfig {
                    threshold: 0.30,
                    seed: 7,
                    max_iterations: 200,
                    ..SuConfig::default()
                },
            ),
        ),
        (
            "liu",
            liu::run(
                &exact,
                &LiuConfig {
                    threshold: 0.30,
                    seed: 7,
                    steps: 200,
                    ..LiuConfig::default()
                },
            ),
        ),
    ];
    trace::emit_totals();
    trace::disable();
    trace::reset();

    let records = match load(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut summary = Vec::new();
    for (method, result) in &runs {
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: smoke {method} run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_smoke_run(&records, &path, method, result) {
            Ok(accepted) => summary.push(format!("{method} {accepted}")),
            Err(msg) => {
                eprintln!("error: smoke mismatch: {method}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if recipes == 0 {
        eprintln!("error: smoke alsrac run: synth_recipes_computed is 0");
        return ExitCode::FAILURE;
    }
    println!(
        "smoke OK: {path}: {} records, accepted iterations {} — \
         all bit-exact against their FlowResults; alsrac computed {recipes} \
         optimizer recipes",
        records.len(),
        summary.join(", "),
    );
    ExitCode::SUCCESS
}

/// Cross-checks the records of the `method` run in a smoke trace against
/// the in-process result, bit for bit: every accepted iteration against
/// its history entry, and `run_end` against the result. Returns the
/// number of accepted iterations, which must be positive.
fn check_smoke_run(
    records: &[(usize, Json)],
    path: &str,
    method: &str,
    result: &flow::FlowResult,
) -> Result<usize, String> {
    let field = |rec: &Json, key: &str| rec.get(key).and_then(Json::as_str).map(str::to_string);
    let run = records
        .iter()
        .find(|(_, r)| {
            field(r, "type").as_deref() == Some("run_start")
                && field(r, "flow").as_deref() == Some(method)
        })
        .and_then(|(_, r)| r.get("run").and_then(Json::as_u64))
        .ok_or_else(|| format!("no run_start record with flow {method:?}"))?;
    let of_run = |typ: &'static str| {
        records
            .iter()
            .filter(move |(_, r)| {
                field(r, "type").as_deref() == Some(typ)
                    && r.get("run").and_then(Json::as_u64) == Some(run)
            })
            .map(|(line, r)| (*line, r))
    };
    let accepted: Vec<(usize, &Json)> = of_run("iteration")
        .filter(|(_, r)| r.get("accepted").and_then(Json::as_bool) == Some(true))
        .collect();
    if accepted.is_empty() {
        return Err("no accepted iterations — the bit-exactness check would be vacuous".into());
    }
    if accepted.len() != result.history.len() {
        return Err(format!(
            "{} accepted iteration records vs history of {}",
            accepted.len(),
            result.history.len()
        ));
    }
    for (&(line, rec), hist) in accepted.iter().zip(&result.history) {
        let est = req_f64(rec, path, line, "est_error")?;
        if est.to_bits() != hist.estimated_error.to_bits() {
            return Err(format!(
                "{path}:{line}: est_error {est:?} != history {:?} (bit-exact check)",
                hist.estimated_error
            ));
        }
        if rec.get("ands").and_then(Json::as_u64) != Some(hist.ands as u64) {
            return Err(format!(
                "{path}:{line}: iteration ands != history ands {}",
                hist.ands
            ));
        }
        if rec.get("rounds").and_then(Json::as_u64) != Some(hist.rounds as u64) {
            return Err(format!(
                "{path}:{line}: iteration rounds != history rounds {}",
                hist.rounds
            ));
        }
    }
    let (line, run_end) = of_run("run_end")
        .next()
        .ok_or_else(|| "no run_end record".to_string())?;
    let measured = run_end
        .get("measured")
        .ok_or_else(|| format!("{path}:{line}: run_end has no \"measured\""))?;
    let er = measured
        .get("error_rate")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}:{line}: measured.error_rate missing"))?;
    if er.to_bits() != result.measured.error_rate.to_bits() {
        return Err(format!(
            "{path}:{line}: measured.error_rate {er:?} != {:?} (bit-exact check)",
            result.measured.error_rate
        ));
    }
    let checks = [
        ("iterations", result.iterations as u64),
        ("applied", result.applied as u64),
        ("ands", result.approx.num_ands() as u64),
    ];
    for (key, want) in checks {
        if run_end.get(key).and_then(Json::as_u64) != Some(want) {
            return Err(format!("{path}:{line}: run_end.{key} != {want}"));
        }
    }
    if measured.get("num_patterns").and_then(Json::as_u64)
        != Some(result.measured.num_patterns as u64)
    {
        return Err(format!("{path}:{line}: measured.num_patterns mismatch"));
    }
    for (key, want) in [
        ("nmed", result.measured.nmed),
        ("mred", result.measured.mred),
    ] {
        let got = measured
            .get(key)
            .ok_or_else(|| format!("{path}:{line}: measured.{key} missing"))?;
        let same = match want {
            Some(w) => got.as_f64().map(f64::to_bits) == Some(w.to_bits()),
            None => got.is_null(),
        };
        if !same {
            return Err(format!("{path}:{line}: measured.{key} mismatch"));
        }
    }
    Ok(accepted.len())
}

// ---------------------------------------------------------------------------
// --cert: BENCH_cert.json validation
// ---------------------------------------------------------------------------

fn cert_check(path: &str) -> ExitCode {
    match try_cert_check(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `BENCH_cert.json` artifact: schema, certificate internal
/// consistency, Wilson-bound agreement between sampled and certified
/// error rates (recomputed, not trusted), and WCE-within-bound claims.
fn try_cert_check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let name = root
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or("missing string \"benchmark\"")?;
    if name != "cert" {
        return Err(format!("benchmark is {name:?}, expected \"cert\""));
    }
    for key in ["threads", "seed"] {
        root.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing integer {key:?}"))?;
    }

    let er_entries = root
        .get("er")
        .and_then(Json::as_arr)
        .ok_or("missing \"er\" array")?;
    if er_entries.is_empty() {
        return Err("\"er\" array is empty".to_string());
    }
    for (i, entry) in er_entries.iter().enumerate() {
        let at = |e: String| format!("er[{i}]: {e}");
        let circuit = entry
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string \"circuit\"".into()))?;
        let within = |e: String| format!("er[{i}] ({circuit}): {e}");
        for key in ["inputs", "outputs", "ands_before", "ands_after", "applied"] {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| within(format!("missing integer {key:?}")))?;
        }
        let cert = entry
            .get("certified")
            .and_then(Json::as_obj)
            .ok_or_else(|| within("missing \"certified\" object".into()))?;
        validate_certified(cert).map_err(|e| within(format!("certified.{e}")))?;
        let value = cert.get("value").and_then(Json::as_f64).expect("validated");
        if cert.get("metric").and_then(Json::as_str) != Some("ER") {
            return Err(within("certified.metric must be \"ER\"".into()));
        }
        let errors = entry
            .get("sampled_errors")
            .and_then(Json::as_u64)
            .ok_or_else(|| within("missing integer \"sampled_errors\"".into()))?;
        let patterns = entry
            .get("sampled_patterns")
            .and_then(Json::as_u64)
            .filter(|&n| n > 0)
            .ok_or_else(|| within("missing positive \"sampled_patterns\"".into()))?;
        if errors > patterns {
            return Err(within(format!(
                "sampled_errors {errors} > patterns {patterns}"
            )));
        }
        // Recompute the agreement gate instead of trusting the flag: the
        // certified rate must sit inside the Wilson interval around the
        // sampled estimate (widened by ε for approximate certificates).
        let (low, high) =
            alsrac_metrics::wilson_interval(errors, patterns, alsrac_bench::CERT_WILSON_Z);
        let epsilon = cert
            .get("epsilon")
            .and_then(Json::as_f64)
            .expect("validated");
        let (value_low, value_high) = if epsilon > 0.0 {
            (value / (1.0 + epsilon), value * (1.0 + epsilon))
        } else {
            (value, value)
        };
        let agrees = value_high >= low && value_low <= high;
        if !agrees {
            return Err(within(format!(
                "certified rate {value} outside Wilson interval [{low}, {high}] \
                 of {errors}/{patterns} sampled"
            )));
        }
        if entry.get("agreement").and_then(Json::as_bool) != Some(true) {
            return Err(within("\"agreement\" must be true".into()));
        }
    }

    let wce_entries = root
        .get("wce")
        .and_then(Json::as_arr)
        .ok_or("missing \"wce\" array")?;
    if wce_entries.is_empty() {
        return Err("\"wce\" array is empty".to_string());
    }
    for (i, entry) in wce_entries.iter().enumerate() {
        let at = |e: String| format!("wce[{i}]: {e}");
        let circuit = entry
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string \"circuit\"".into()))?;
        let within = |e: String| format!("wce[{i}] ({circuit}): {e}");
        let bound = entry
            .get("bound")
            .and_then(Json::as_u64)
            .ok_or_else(|| within("missing integer \"bound\"".into()))?;
        for key in [
            "ands_before",
            "ands_after",
            "applied",
            "sampled_max_distance",
        ] {
            entry
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| within(format!("missing integer {key:?}")))?;
        }
        let cert = entry
            .get("certified")
            .and_then(Json::as_obj)
            .ok_or_else(|| within("missing \"certified\" object".into()))?;
        validate_certified(cert).map_err(|e| within(format!("certified.{e}")))?;
        if cert.get("metric").and_then(Json::as_str) != Some("WCE") {
            return Err(within("certified.metric must be \"WCE\"".into()));
        }
        if is_degraded(cert) {
            // A budget-starved certificate's value is the sampled
            // measurement, not a proven maximum — none of the exactness
            // cross-checks below apply.
            continue;
        }
        if cert.get("exact").and_then(Json::as_bool) != Some(true) {
            return Err(within("non-degraded WCE certificates must be exact".into()));
        }
        let value = cert.get("value").and_then(Json::as_f64).expect("validated");
        if value > bound as f64 {
            return Err(within(format!(
                "certified WCE {value} exceeds the configured bound {bound}"
            )));
        }
        let sampled = entry
            .get("sampled_max_distance")
            .and_then(Json::as_u64)
            .expect("checked above");
        if (sampled as f64) > value {
            return Err(within(format!(
                "sampled max distance {sampled} exceeds the certified maximum {value} \
                 — the certificate cannot be exact"
            )));
        }
        if entry.get("within_bound").and_then(Json::as_bool) != Some(true) {
            return Err(within("\"within_bound\" must be true".into()));
        }
    }

    println!(
        "cert OK: {path}: {} ER certificates (all inside the Wilson interval), \
         {} WCE certificates (all within their bounds)",
        er_entries.len(),
        wce_entries.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// --overhead: disabled-path cost gate
// ---------------------------------------------------------------------------

/// Maximum tolerated disabled-trace overhead: 2%.
const MAX_OVERHEAD_RATIO: f64 = 1.02;
/// Measurement retries before declaring a regression (single-run medians on
/// shared CI machines are noisy; a genuine regression fails every time).
const OVERHEAD_ATTEMPTS: usize = 5;

/// The work item both kernels share: enough PRNG steps that one inert span
/// and counter per item is a realistic instrumentation density (one span
/// per flow phase, not one per AND gate).
fn kernel(rng: &mut Rng) -> u64 {
    let mut acc = 0u64;
    for _ in 0..512 {
        acc ^= rng.next_u64();
    }
    acc
}

fn overhead() -> ExitCode {
    assert!(
        !trace::is_enabled(),
        "--overhead measures the DISABLED path; unset ALSRAC_TRACE"
    );
    let options = BenchOptions {
        samples: 11,
        warmup_samples: 2,
        target_sample: std::time::Duration::from_millis(10),
    };
    let mut best_ratio = f64::INFINITY;
    for attempt in 1..=OVERHEAD_ATTEMPTS {
        let mut runner = Runner::new(options.clone(), false);
        let mut rng = Rng::from_seed(1);
        let bare = runner
            .bench("kernel (bare)", || {
                std::hint::black_box(kernel(&mut rng));
            })
            .median_ns;
        let mut rng = Rng::from_seed(1);
        let traced = runner
            .bench("kernel + disabled span/counter", || {
                let span = trace::span("overhead_probe");
                std::hint::black_box(kernel(&mut rng));
                trace::add("overhead_probe", 1);
                span.finish();
            })
            .median_ns;
        let ratio = traced / bare.max(1.0);
        best_ratio = best_ratio.min(ratio);
        println!(
            "attempt {attempt}: bare {} traced {} ratio {ratio:.4}",
            format_ns(bare),
            format_ns(traced)
        );
        if ratio <= MAX_OVERHEAD_RATIO {
            println!("overhead OK: disabled-trace ratio {ratio:.4} <= {MAX_OVERHEAD_RATIO:.2}");
            return ExitCode::SUCCESS;
        }
    }
    eprintln!(
        "error: disabled-trace overhead {best_ratio:.4} exceeds {MAX_OVERHEAD_RATIO:.2} \
         after {OVERHEAD_ATTEMPTS} attempts"
    );
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique tempfile under the target directory, cleaned up on drop.
    struct TempTrace(String);

    impl TempTrace {
        fn write(name: &str, content: &str) -> TempTrace {
            let path = std::env::temp_dir()
                .join(format!("report_test_{}_{name}", std::process::id()))
                .to_string_lossy()
                .into_owned();
            std::fs::write(&path, content).expect("write temp trace");
            TempTrace(path)
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    const TOTALS: &str = r#"{"type":"totals","spans":{},"counters":{}}"#;

    #[test]
    fn design_doc_lists_exactly_the_known_counters() {
        let design = include_str!("../../../../DESIGN.md");
        let start = design
            .find("Counter names currently emitted:")
            .expect("DESIGN.md has the counter list");
        let end = start
            + design[start..]
                .find("The list is closed")
                .expect("the counter list ends with \"The list is closed\"");
        let mut documented: Vec<&str> = design[start..end].split('`').skip(1).step_by(2).collect();
        let mut known = KNOWN_COUNTERS.to_vec();
        documented.sort_unstable();
        known.sort_unstable();
        assert_eq!(documented, known, "DESIGN.md and KNOWN_COUNTERS disagree");
    }

    /// The double-quoted values in the DESIGN.md "Telemetry" bullet that
    /// starts with `start`, deduplicated and sorted.
    fn design_bullet_values(start: &str) -> Vec<&'static str> {
        let design = include_str!("../../../../DESIGN.md");
        let telemetry = &design[design.find("## Telemetry").expect("a Telemetry section")..];
        let bullet = &telemetry[telemetry
            .find(start)
            .unwrap_or_else(|| panic!("DESIGN.md has the {start} bullet"))..];
        let bullet = &bullet[..bullet[2..].find("\n* ").map_or(bullet.len(), |i| i + 2)];
        let mut values: Vec<&str> = bullet.split('"').skip(1).step_by(2).collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    fn sorted(lists: &[&[&'static str]]) -> Vec<&'static str> {
        let mut values = lists.concat();
        values.sort_unstable();
        values
    }

    #[test]
    fn design_doc_quotes_exactly_the_validated_enumerations() {
        assert_eq!(design_bullet_values("* `process`"), sorted(&[SCALES]));
        assert_eq!(
            design_bullet_values("* `run_start`"),
            sorted(&[FLOWS, METRICS])
        );
        assert_eq!(
            design_bullet_values("* `iteration`, rejected"),
            sorted(&[REJECT_REASONS])
        );
    }

    #[test]
    fn truncated_json_is_reported_with_its_line_number() {
        let t = TempTrace::write(
            "truncated",
            &format!("{TOTALS}\n{{\"type\":\"run_end\",\"run\":1\n"),
        );
        let err = load(&t.0).expect_err("truncated line must fail");
        assert!(err.contains(":2:"), "no line number: {err}");
        assert!(err.contains("invalid JSON"), "wrong diagnostic: {err}");
    }

    #[test]
    fn schema_violations_name_the_line_and_field() {
        let t = TempTrace::write(
            "schema",
            &format!("{TOTALS}\n{{\"type\":\"iteration\",\"run\":1}}\n"),
        );
        let err = load(&t.0).expect_err("incomplete record must fail");
        assert!(err.contains(":2:"), "no line number: {err}");
        assert!(err.contains("iteration"), "wrong diagnostic: {err}");
    }

    #[test]
    fn unknown_counters_are_rejected() {
        let t = TempTrace::write(
            "counter",
            r#"{"type":"totals","spans":{},"counters":{"cert_sat_quries":1}}"#,
        );
        let err = load(&t.0).expect_err("typoed counter must fail");
        assert!(err.contains("cert_sat_quries"), "wrong diagnostic: {err}");
    }

    #[test]
    fn empty_traces_are_an_error_not_a_panic() {
        let t = TempTrace::write("empty", "\n\n");
        assert!(load(&t.0).is_err());
    }

    #[test]
    fn overflowing_phase_totals_name_the_line() {
        let rec = r#"{"type":"iteration","run":1,"iter":1,"accepted":false,
"reason":"no_candidates","candidates":0,"rounds":64,"phase_ns":{"care_sim":18000000000000000000}}"#
            .replace('\n', "");
        let t = TempTrace::write("overflow", &format!("{rec}\n{rec}\n"));
        let summary = TempTrace::write("overflow_summary", "");
        let err = try_analyze(&t.0, &summary.0).expect_err("a wrapped total must fail");
        assert!(err.contains(":2:"), "no line number: {err}");
        assert!(err.contains("care_sim"), "wrong diagnostic: {err}");
    }

    #[test]
    fn flow_record_enumerations_are_checked() {
        let process = r#"{"type":"process","binary":"table4","scale":"test","seeds":1,
"full":false,"threads":1}"#;
        let start = r#"{"type":"run_start","run":1,"flow":"alsrac","circuit":"c","seed":1,
"metric":"ER","threshold":0.1,"inputs":2,"outputs":1,"ands":3,"depth":2}"#;
        let reject = r#"{"type":"iteration","run":1,"iter":1,"accepted":false,
"reason":"cycle","candidates":2,"rounds":64,"phase_ns":{}}"#;
        for rec in [process, start, reject] {
            validate_record(&Json::parse(rec).unwrap()).expect("valid record");
        }
        for (rec, expect) in [
            (process.replace("\"test\"", "\"huge\""), "huge"),
            (start.replace("\"alsrac\"", "\"exact\""), "exact"),
            (start.replace("\"ER\"", "\"er\""), "\"er\""),
            (reject.replace("\"cycle\"", "\"bored\""), "bored"),
        ] {
            let err = validate_record(&Json::parse(&rec).unwrap()).expect_err("unknown value");
            assert!(err.contains(expect), "wrong diagnostic for {rec}: {err}");
        }
    }

    fn cert_artifact(certified_value: f64) -> String {
        format!(
            r#"{{"benchmark":"cert","threads":1,"seed":1,
"er":[{{"circuit":"rca32","inputs":12,"outputs":7,"ands_before":49,"ands_after":40,
"applied":2,"sampled_errors":100,"sampled_patterns":1000,"agreement":true,
"certified":{{"metric":"ER","value":{certified_value},"exact":true,"epsilon":0,"delta":0,"sat_queries":3}}}}],
"wce":[{{"circuit":"rca32","bound":4,"ands_before":49,"ands_after":40,"applied":2,
"sampled_max_distance":3,"within_bound":true,
"certified":{{"metric":"WCE","value":3,"exact":true,"epsilon":0,"delta":0,"sat_queries":7}}}}]}}"#
        )
    }

    /// A minimal schema-complete run_end record with extra fields spliced
    /// in before the closing brace.
    fn run_end_with(extra: &str) -> String {
        format!(
            r#"{{"type":"run_end","run":1,"iterations":5,"applied":2,"ands":30,"depth":9,
"wall_ns":1000,"phase_ns":{{}},
"measured":{{"num_patterns":4096,"error_rate":0.01,"nmed":null,"mred":null,"max_error_distance":null}}{extra}}}"#
        )
    }

    #[test]
    fn interrupted_run_end_records_validate() {
        let rec = run_end_with(r#","outcome":"interrupted","interrupt_reason":"cancelled""#);
        validate_record(&Json::parse(&rec).unwrap()).expect("interrupted run_end must validate");
        let rec = run_end_with(r#","outcome":"completed","resumed_from":3"#);
        validate_record(&Json::parse(&rec).unwrap()).expect("resumed run_end must validate");
    }

    #[test]
    fn interrupted_run_end_needs_a_reason() {
        let rec = run_end_with(r#","outcome":"interrupted""#);
        let err = validate_record(&Json::parse(&rec).unwrap()).expect_err("reason required");
        assert!(err.contains("interrupt_reason"), "wrong diagnostic: {err}");
        let rec = run_end_with(r#","outcome":"gave_up""#);
        let err = validate_record(&Json::parse(&rec).unwrap()).expect_err("unknown outcome");
        assert!(err.contains("gave_up"), "wrong diagnostic: {err}");
    }

    #[test]
    fn degraded_certificates_validate_without_epsilon_delta() {
        let cert = r#"{"metric":"WCE","value":3,"exact":false,"epsilon":0,"delta":0,
"sat_queries":7,"status":"degraded","status_reason":"SAT budget exhausted"}"#;
        let cert = Json::parse(cert).unwrap();
        validate_certified(cert.as_obj().unwrap()).expect("degraded cert must validate");
        assert!(is_degraded(cert.as_obj().unwrap()));
    }

    #[test]
    fn degraded_certificates_need_a_reason_and_cannot_be_exact() {
        let no_reason = r#"{"metric":"ER","value":0.1,"exact":false,"epsilon":0,"delta":0,
"sat_queries":1,"status":"degraded"}"#;
        let err = validate_certified(Json::parse(no_reason).unwrap().as_obj().unwrap())
            .expect_err("reason required");
        assert!(err.contains("status_reason"), "wrong diagnostic: {err}");
        let exact = r#"{"metric":"ER","value":0.1,"exact":true,"epsilon":0,"delta":0,
"sat_queries":1,"status":"degraded","status_reason":"budget"}"#;
        let err = validate_certified(Json::parse(exact).unwrap().as_obj().unwrap())
            .expect_err("exact degraded must fail");
        assert!(err.contains("exactness"), "wrong diagnostic: {err}");
    }

    #[test]
    fn degraded_wce_cert_entries_skip_the_exactness_gate() {
        // Same artifact as cert_artifact but the WCE certificate is
        // degraded and its value exceeds the bound — allowed, because a
        // degraded value is a sampled measurement, not a proven maximum.
        let artifact = r#"{"benchmark":"cert","threads":1,"seed":1,
"er":[{"circuit":"rca32","inputs":12,"outputs":7,"ands_before":49,"ands_after":40,
"applied":2,"sampled_errors":100,"sampled_patterns":1000,"agreement":true,
"certified":{"metric":"ER","value":0.1,"exact":true,"epsilon":0,"delta":0,"sat_queries":3}}],
"wce":[{"circuit":"rca32","bound":4,"ands_before":49,"ands_after":40,"applied":2,
"sampled_max_distance":6,"within_bound":false,
"certified":{"metric":"WCE","value":6,"exact":false,"epsilon":0,"delta":0,"sat_queries":7,
"status":"degraded","status_reason":"SAT budget exhausted during WCE binary search"}}]}"#;
        let t = TempTrace::write("cert_degraded", artifact);
        try_cert_check(&t.0).expect("degraded WCE entry must validate");
    }

    #[test]
    fn cert_artifacts_inside_the_wilson_interval_pass() {
        let t = TempTrace::write("cert_ok", &cert_artifact(0.1));
        try_cert_check(&t.0).expect("agreeing artifact must validate");
    }

    #[test]
    fn cert_artifacts_outside_the_wilson_interval_fail() {
        let t = TempTrace::write("cert_bad", &cert_artifact(0.9));
        let err = try_cert_check(&t.0).expect_err("disagreement must fail");
        assert!(err.contains("Wilson"), "wrong diagnostic: {err}");
        assert!(err.contains("rca32"), "must name the circuit: {err}");
    }
}
