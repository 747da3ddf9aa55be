//! Service mode: a multi-tenant JSONL job protocol driving many
//! concurrent ALSRAC flows over a shared immutable catalog.
//!
//! The daemon reads one JSON request per line (`submit`, `cancel`,
//! `status`, `shutdown`) and writes one JSON record per line: protocol
//! responses plus the per-iteration streaming records every flow already
//! emits through [`alsrac_rt::trace`] — the trace JSONL schema *is* the
//! wire format, with each job's records tagged `job_id` via
//! [`trace::set_job_tag`]. A priority queue feeds `workers` long-lived
//! threads; each worker runs one flow at a time under
//! [`pool::become_worker`], so a job's inner loops stay inline and the
//! machine is never oversubscribed by nested fan-out.
//!
//! # Determinism contract
//!
//! A job's result is bit-identical to a direct [`flow::run`] of the same
//! `(circuit, config)`, because a job *is* that call: job randomness is a
//! pure function of `(seed, stream, iteration)` and each flow runs
//! single-threaded inside its worker. Worker count and submission
//! interleaving affect only scheduling order, never any job's payload.
//!
//! # Job lifecycle
//!
//! `queued → running → done(completed | interrupted | failed)`, with a
//! shortcut `queued → done(cancelled)` when a job is cancelled before a
//! worker picks it up. Cancelling a *running* job trips its
//! [`CancelToken`]; the flow stops at the next iteration boundary and the
//! terminal `job_done` record carries a serialized [`Checkpoint`] that
//! [`flow::resume`] continues bit-identically.
//!
//! # Shutdown
//!
//! `{"op":"shutdown"}` (or EOF on the request stream) drains the queue;
//! `{"op":"shutdown","mode":"cancel"}` (or the external stop token — the
//! CLI wires SIGINT to it) checkpoints running jobs and cancels queued
//! ones. Either way every in-flight stream ends with its `run_end` and
//! `job_done` records before the final `shutdown` record — lines are
//! written whole under one lock, never dropped mid-line.
//!
//! [`Checkpoint`]: crate::checkpoint::Checkpoint

use std::collections::{BTreeMap, BinaryHeap};
use std::io::{BufRead, Write};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use alsrac_aig::Aig;
use alsrac_metrics::ErrorMetric;
use alsrac_rt::budget::{Budget, CancelToken};
use alsrac_rt::json::{Json, Obj};
use alsrac_rt::{faults, pool, trace};

use crate::flow::{self, FlowConfig, FlowOutcome};

/// Where a job's circuit comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSource {
    /// A bundled benchmark, resolved by name at the configured scale
    /// (`"test"` or `"paper"`).
    Named {
        /// Benchmark name (e.g. `rca32`).
        name: String,
        /// Catalog scale: `"test"` or `"paper"`.
        scale: String,
    },
    /// Inline BLIF text.
    Blif(String),
    /// Inline ASCII AIGER text.
    Aag(String),
}

impl CircuitSource {
    /// A short human-readable label (benchmark name or a placeholder).
    pub fn label(&self) -> &str {
        match self {
            CircuitSource::Named { name, .. } => name,
            CircuitSource::Blif(_) => "<inline blif>",
            CircuitSource::Aag(_) => "<inline aag>",
        }
    }
}

/// Resolves a [`CircuitSource`] to a circuit. The core crate has no
/// circuit catalog or format parsers of its own, so the embedding binary
/// injects this (CLI and bench both resolve names via
/// `alsrac_circuits::catalog` and inline text via the BLIF/AIGER
/// parsers).
pub type Resolver = dyn Fn(&CircuitSource) -> Result<Aig, String> + Send + Sync;

/// Resolved circuits reused across jobs, keyed by name and scale, behind
/// `Arc` so concurrent jobs share one copy.
pub struct Catalog {
    resolver: Box<Resolver>,
    circuits: Mutex<BTreeMap<(String, String), Arc<Aig>>>,
}

impl Catalog {
    /// Wraps a resolver in a caching catalog.
    pub fn new(resolver: Box<Resolver>) -> Catalog {
        Catalog {
            resolver,
            circuits: Mutex::new(BTreeMap::new()),
        }
    }

    /// The circuit for `source`. Named circuits are resolved once and
    /// cached; inline sources are parsed per call (they are job-specific).
    ///
    /// # Errors
    ///
    /// Propagates the resolver's message (unknown name, parse error).
    pub fn circuit(&self, source: &CircuitSource) -> Result<Arc<Aig>, String> {
        let key = match source {
            CircuitSource::Named { name, scale } => (name.clone(), scale.clone()),
            _ => return (self.resolver)(source).map(Arc::new),
        };
        if let Some(hit) = self.circuits.lock().expect("catalog").get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Resolve outside the lock; concurrent misses duplicate work but
        // never block each other on a slow generator.
        let aig = Arc::new((self.resolver)(source)?);
        let mut cache = self.circuits.lock().expect("catalog");
        Ok(Arc::clone(cache.entry(key).or_insert(aig)))
    }
}

/// A `submit` request: the circuit, the error budget, and optional flow
/// overrides. Fields not carried here keep their [`FlowConfig`] defaults,
/// so a daemon job is comparable 1:1 with a direct [`flow::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitRequest {
    /// The circuit to approximate.
    pub source: CircuitSource,
    /// Constrained error metric (default `er`).
    pub metric: ErrorMetric,
    /// Error threshold `E_t` (default 0.01).
    pub threshold: f64,
    /// RNG seed (default 1).
    pub seed: u64,
    /// Scheduling priority; higher runs first, FIFO within a priority
    /// (default 0).
    pub priority: u64,
    /// Override for [`FlowConfig::max_iterations`].
    pub max_iterations: Option<usize>,
    /// Override for [`FlowConfig::measure_rounds`].
    pub measure_rounds: Option<usize>,
    /// SAT-certify the final error (default false).
    pub certify: bool,
    /// Override for [`crate::window::WindowConfig::enabled`].
    pub window: Option<bool>,
    /// Override for [`crate::window::WindowConfig::max_tfi`].
    pub window_max_tfi: Option<usize>,
    /// Wall-clock deadline for the job, in seconds.
    pub deadline_secs: Option<f64>,
    /// Per-SAT-query conflict cap.
    pub sat_conflicts: Option<u64>,
    /// Per-SAT-query propagation cap.
    pub sat_propagations: Option<u64>,
}

impl SubmitRequest {
    /// A request for a named circuit with every option at its default.
    pub fn named(name: &str, scale: &str) -> SubmitRequest {
        SubmitRequest {
            source: CircuitSource::Named {
                name: name.to_string(),
                scale: scale.to_string(),
            },
            metric: ErrorMetric::ErrorRate,
            threshold: 0.01,
            seed: 1,
            priority: 0,
            max_iterations: None,
            measure_rounds: None,
            certify: false,
            window: None,
            window_max_tfi: None,
            deadline_secs: None,
            sat_conflicts: None,
            sat_propagations: None,
        }
    }

    /// The [`FlowConfig`] this job runs with, *without* the execution
    /// budget (the daemon attaches the per-job cancel token and the
    /// deadline/SAT caps at dispatch). Comparing a daemon job against
    /// `flow::run(circuit, &request.flow_config())` is therefore exact.
    pub fn flow_config(&self) -> FlowConfig {
        let mut config = FlowConfig {
            metric: self.metric,
            threshold: self.threshold,
            seed: self.seed,
            certify: self.certify,
            ..FlowConfig::default()
        };
        if let Some(n) = self.max_iterations {
            config.max_iterations = n;
        }
        if let Some(n) = self.measure_rounds {
            config.measure_rounds = n;
        }
        if let Some(enabled) = self.window {
            config.window.enabled = enabled;
        }
        if let Some(max_tfi) = self.window_max_tfi {
            config.window.max_tfi = max_tfi;
        }
        config
    }

    /// The job's execution budget around `token` (deadline and SAT caps
    /// from the request).
    fn budget(&self, token: CancelToken) -> Budget {
        let mut budget = Budget::unlimited().with_cancel(token);
        if let Some(secs) = self.deadline_secs {
            budget = budget.with_deadline_after(Duration::from_secs_f64(secs));
        }
        if let Some(cap) = self.sat_conflicts {
            budget = budget.with_sat_conflicts(cap);
        }
        if let Some(cap) = self.sat_propagations {
            budget = budget.with_sat_propagations(cap);
        }
        budget
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Enqueue a job.
    Submit(SubmitRequest),
    /// Cancel a queued or running job.
    Cancel {
        /// The id returned by the submit response.
        job_id: u64,
    },
    /// Report queue/running/done counts.
    Status,
    /// End the session: drain the queue (default) or cancel it.
    Shutdown {
        /// `true` for `"mode":"cancel"`: checkpoint running jobs and
        /// cancel queued ones instead of draining.
        cancel: bool,
    },
}

fn metric_from_wire(name: &str) -> Result<ErrorMetric, String> {
    match name {
        "er" => Ok(ErrorMetric::ErrorRate),
        "nmed" => Ok(ErrorMetric::Nmed),
        "mred" => Ok(ErrorMetric::Mred),
        "wce" => Ok(ErrorMetric::Wce),
        other => Err(format!("unknown metric {other:?} (er|nmed|mred|wce)")),
    }
}

fn metric_to_wire(metric: ErrorMetric) -> &'static str {
    match metric {
        ErrorMetric::ErrorRate => "er",
        ErrorMetric::Nmed => "nmed",
        ErrorMetric::Mred => "mred",
        ErrorMetric::Wce => "wce",
    }
}

type Fields<'a> = &'a BTreeMap<String, Json>;

fn reject_unknown_keys(map: Fields, allowed: &[&str]) -> Result<(), String> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?}"));
        }
    }
    Ok(())
}

fn field_str<'a>(map: Fields<'a>, key: &str) -> Result<Option<&'a str>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a string")),
    }
}

fn field_u64(map: Fields, key: &str) -> Result<Option<u64>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn field_f64(map: Fields, key: &str) -> Result<Option<f64>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a number")),
    }
}

fn field_bool(map: Fields, key: &str) -> Result<Option<bool>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a boolean")),
    }
}

impl Request {
    /// Parses one request line. Unknown ops, unknown keys, and
    /// wrongly-typed fields are rejected with a message suitable for the
    /// structured `error` response (the daemon pairs it with the 1-based
    /// line number).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line)?;
        let map = json
            .as_obj()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        let op = field_str(map, "op")?.ok_or_else(|| "missing \"op\"".to_string())?;
        match op {
            "submit" => Request::parse_submit(map),
            "cancel" => {
                reject_unknown_keys(map, &["op", "job_id"])?;
                let job_id =
                    field_u64(map, "job_id")?.ok_or_else(|| "missing \"job_id\"".to_string())?;
                Ok(Request::Cancel { job_id })
            }
            "status" => {
                reject_unknown_keys(map, &["op"])?;
                Ok(Request::Status)
            }
            "shutdown" => {
                reject_unknown_keys(map, &["op", "mode"])?;
                let cancel = match field_str(map, "mode")? {
                    None | Some("drain") => false,
                    Some("cancel") => true,
                    Some(other) => {
                        return Err(format!("unknown shutdown mode {other:?} (drain|cancel)"))
                    }
                };
                Ok(Request::Shutdown { cancel })
            }
            other => Err(format!(
                "unknown op {other:?} (submit|cancel|status|shutdown)"
            )),
        }
    }

    fn parse_submit(map: Fields) -> Result<Request, String> {
        reject_unknown_keys(
            map,
            &[
                "op",
                "circuit",
                "scale",
                "blif",
                "aag",
                "metric",
                "threshold",
                "seed",
                "priority",
                "max_iterations",
                "measure_rounds",
                "certify",
                "window",
                "window_max_tfi",
                "deadline_secs",
                "sat_conflicts",
                "sat_propagations",
            ],
        )?;
        let circuit = field_str(map, "circuit")?;
        let blif = field_str(map, "blif")?;
        let aag = field_str(map, "aag")?;
        let scale = field_str(map, "scale")?;
        let source = match (circuit, blif, aag) {
            (Some(name), None, None) => CircuitSource::Named {
                name: name.to_string(),
                scale: match scale {
                    None | Some("test") => "test".to_string(),
                    Some("paper") => "paper".to_string(),
                    Some(other) => return Err(format!("unknown scale {other:?} (test|paper)")),
                },
            },
            (None, Some(text), None) => CircuitSource::Blif(text.to_string()),
            (None, None, Some(text)) => CircuitSource::Aag(text.to_string()),
            (None, None, None) => {
                return Err(
                    "missing circuit source (one of \"circuit\", \"blif\", \"aag\")".to_string(),
                )
            }
            _ => {
                return Err(
                    "conflicting circuit sources (give exactly one of \"circuit\", \"blif\", \
                     \"aag\")"
                        .to_string(),
                )
            }
        };
        if scale.is_some() && !matches!(source, CircuitSource::Named { .. }) {
            return Err("\"scale\" only applies to named circuits".to_string());
        }
        let defaults = SubmitRequest::named("", "test");
        Ok(Request::Submit(SubmitRequest {
            source,
            metric: match field_str(map, "metric")? {
                Some(name) => metric_from_wire(name)?,
                None => ErrorMetric::ErrorRate,
            },
            threshold: field_f64(map, "threshold")?.unwrap_or(defaults.threshold),
            seed: field_u64(map, "seed")?.unwrap_or(defaults.seed),
            priority: field_u64(map, "priority")?.unwrap_or(0),
            max_iterations: field_u64(map, "max_iterations")?.map(|n| n as usize),
            measure_rounds: field_u64(map, "measure_rounds")?.map(|n| n as usize),
            certify: field_bool(map, "certify")?.unwrap_or(false),
            window: field_bool(map, "window")?,
            window_max_tfi: field_u64(map, "window_max_tfi")?.map(|n| n as usize),
            deadline_secs: field_f64(map, "deadline_secs")?,
            sat_conflicts: field_u64(map, "sat_conflicts")?,
            sat_propagations: field_u64(map, "sat_propagations")?,
        }))
    }

    /// Serializes the request to one wire line (no trailing newline).
    /// `Request::parse(&request.to_json())` round-trips exactly.
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit(spec) => {
                let mut obj = Obj::new().str("op", "submit");
                obj = match &spec.source {
                    CircuitSource::Named { name, scale } => {
                        obj.str("circuit", name).str("scale", scale)
                    }
                    CircuitSource::Blif(text) => obj.str("blif", text),
                    CircuitSource::Aag(text) => obj.str("aag", text),
                };
                obj = obj
                    .str("metric", metric_to_wire(spec.metric))
                    .f64("threshold", spec.threshold)
                    .u64("seed", spec.seed)
                    .u64("priority", spec.priority)
                    .bool("certify", spec.certify);
                obj = obj.opt_u64("max_iterations", spec.max_iterations.map(|n| n as u64));
                obj = obj.opt_u64("measure_rounds", spec.measure_rounds.map(|n| n as u64));
                if let Some(enabled) = spec.window {
                    obj = obj.bool("window", enabled);
                }
                obj = obj.opt_u64("window_max_tfi", spec.window_max_tfi.map(|n| n as u64));
                obj = obj.opt_f64("deadline_secs", spec.deadline_secs);
                obj = obj.opt_u64("sat_conflicts", spec.sat_conflicts);
                obj = obj.opt_u64("sat_propagations", spec.sat_propagations);
                obj.finish()
            }
            Request::Cancel { job_id } => Obj::new()
                .str("op", "cancel")
                .u64("job_id", *job_id)
                .finish(),
            Request::Status => Obj::new().str("op", "status").finish(),
            Request::Shutdown { cancel } => Obj::new()
                .str("op", "shutdown")
                .str("mode", if *cancel { "cancel" } else { "drain" })
                .finish(),
        }
    }
}

/// What happened to a cancel request's target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelState {
    /// The job was still queued; it is terminally cancelled (its
    /// `job_done` record follows).
    Cancelled,
    /// The job was running; its token is tripped and it will end with an
    /// interrupted `run_end` + `job_done` carrying a checkpoint.
    Cancelling,
    /// The job had already finished; the cancel was a no-op.
    AlreadyDone,
}

impl CancelState {
    fn to_wire(self) -> &'static str {
        match self {
            CancelState::Cancelled => "cancelled",
            CancelState::Cancelling => "cancelling",
            CancelState::AlreadyDone => "done",
        }
    }
}

/// How a finished job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The flow ran to its natural end.
    Completed,
    /// The job's budget fired (cancel of a running job, or its deadline);
    /// the `job_done` record carries a resumable checkpoint.
    Interrupted {
        /// The [`alsrac_rt::budget::Interrupt`] display form.
        reason: String,
    },
    /// Cancelled while still queued; the flow never started.
    Cancelled,
    /// The job errored (unresolvable circuit, invalid config, panic). The
    /// queue keeps draining: a poisoned job never wedges the daemon.
    Failed {
        /// What went wrong.
        error: String,
    },
}

impl JobOutcome {
    fn to_wire(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Interrupted { .. } => "interrupted",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::Failed { .. } => "failed",
        }
    }
}

/// The terminal per-job record, written after the job's final flow record.
#[derive(Clone, Debug, PartialEq)]
pub struct JobDone {
    /// The job.
    pub job_id: u64,
    /// How it ended.
    pub outcome: JobOutcome,
    /// Nanoseconds spent queued (submit → dispatch).
    pub queue_ns: u64,
    /// Nanoseconds spent executing (dispatch → done; 0 when cancelled in
    /// the queue).
    pub run_ns: u64,
    /// Jobs still queued at the moment this one was dispatched.
    pub queue_depth: u64,
    /// Flow iterations executed (0 unless the flow ran).
    pub iterations: u64,
    /// Accepted LACs.
    pub applied: u64,
    /// Final AND count of the approximate circuit.
    pub ands: u64,
    /// Serialized [`crate::checkpoint::Checkpoint`] (one JSON object as an
    /// opaque string, so the hex-encoded seed round-trips byte-exactly).
    /// Present exactly when the outcome is interrupted.
    pub checkpoint: Option<String>,
    /// True when this record replays a previously completed job with the
    /// same `(circuit, canonical config)` key instead of re-running the
    /// flow. Replayed records carry the original run's results but their
    /// own `job_id`/`queue_ns` (and `run_ns` 0). Omitted from the wire
    /// when false.
    pub cache_hit: bool,
}

/// Session totals, written as the final `shutdown` record and returned
/// from [`serve`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionTotals {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs interrupted mid-run (checkpointed).
    pub interrupted: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs that errored.
    pub failed: u64,
    /// Malformed request lines rejected.
    pub rejected_lines: u64,
}

/// One response/record line the daemon writes.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Submit accepted.
    Submitted {
        /// The assigned job id (1-based, in submission order).
        job_id: u64,
    },
    /// Cancel acknowledged.
    CancelAck {
        /// The cancelled job.
        job_id: u64,
        /// What the cancel did.
        state: CancelState,
    },
    /// A well-formed request the daemon refused (e.g. unknown job id).
    Rejected {
        /// The request's op.
        op: String,
        /// Why it was refused.
        error: String,
    },
    /// Reply to `status`.
    Status {
        /// Jobs waiting in the queue.
        queued: u64,
        /// Jobs currently executing.
        running: u64,
        /// Jobs finished (any outcome).
        done: u64,
    },
    /// Terminal record of one job.
    JobDone(JobDone),
    /// A request line that failed to parse, with its 1-based line number
    /// (the same diagnostic style `report` uses for trace files).
    LineError {
        /// 1-based input line number.
        line: u64,
        /// The parse error.
        message: String,
    },
    /// The final record of the session.
    Shutdown {
        /// Why the session ended: `"shutdown_request"`, `"input_closed"`,
        /// or `"stop_requested"`.
        reason: String,
        /// Session totals.
        totals: SessionTotals,
    },
}

impl Response {
    /// The wire record for this response.
    pub fn to_record(&self) -> Obj {
        match self {
            Response::Submitted { job_id } => Obj::new()
                .str("type", "response")
                .str("op", "submit")
                .bool("ok", true)
                .u64("job_id", *job_id),
            Response::CancelAck { job_id, state } => Obj::new()
                .str("type", "response")
                .str("op", "cancel")
                .bool("ok", true)
                .u64("job_id", *job_id)
                .str("state", state.to_wire()),
            Response::Rejected { op, error } => Obj::new()
                .str("type", "response")
                .str("op", op)
                .bool("ok", false)
                .str("error", error),
            Response::Status {
                queued,
                running,
                done,
            } => Obj::new()
                .str("type", "status")
                .u64("queued", *queued)
                .u64("running", *running)
                .u64("done", *done),
            Response::JobDone(done) => {
                let mut obj = Obj::new()
                    .str("type", "job_done")
                    .u64("job_id", done.job_id)
                    .str("outcome", done.outcome.to_wire());
                match &done.outcome {
                    JobOutcome::Interrupted { reason } => {
                        obj = obj.str("interrupt_reason", reason);
                    }
                    JobOutcome::Failed { error } => {
                        obj = obj.str("error", error);
                    }
                    JobOutcome::Completed | JobOutcome::Cancelled => {}
                }
                obj = obj
                    .u64("queue_ns", done.queue_ns)
                    .u64("run_ns", done.run_ns)
                    .u64("queue_depth", done.queue_depth)
                    .u64("iterations", done.iterations)
                    .u64("applied", done.applied)
                    .u64("ands", done.ands);
                if let Some(checkpoint) = &done.checkpoint {
                    obj = obj.str("checkpoint", checkpoint);
                }
                if done.cache_hit {
                    obj = obj.bool("cache_hit", true);
                }
                obj
            }
            Response::LineError { line, message } => Obj::new()
                .str("type", "error")
                .u64("line", *line)
                .str("message", message),
            Response::Shutdown { reason, totals } => Obj::new()
                .str("type", "shutdown")
                .str("reason", reason)
                .u64("submitted", totals.submitted)
                .u64("completed", totals.completed)
                .u64("interrupted", totals.interrupted)
                .u64("cancelled", totals.cancelled)
                .u64("failed", totals.failed)
                .u64("rejected_lines", totals.rejected_lines),
        }
    }

    /// Serializes to one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_record().finish()
    }
}

/// Why [`serve`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// A `shutdown` request was processed.
    ShutdownRequest,
    /// The request stream hit EOF (queue drained before exit).
    InputClosed,
    /// The external stop token tripped (the CLI wires SIGINT here);
    /// running jobs were checkpointed, queued jobs cancelled.
    StopRequested,
}

impl ExitReason {
    fn to_wire(self) -> &'static str {
        match self {
            ExitReason::ShutdownRequest => "shutdown_request",
            ExitReason::InputClosed => "input_closed",
            ExitReason::StopRequested => "stop_requested",
        }
    }
}

/// What a finished session did, returned by [`serve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeSummary {
    /// Why the session ended.
    pub reason: ExitReason,
    /// Session totals (mirrors the final `shutdown` record).
    pub totals: SessionTotals,
}

// ---------------------------------------------------------------------
// Output plumbing: every line — protocol responses written directly and
// flow records arriving through the global trace sink — funnels into one
// mutex-protected writer, so concurrent jobs interleave whole lines.

struct Output<W: Write> {
    writer: Mutex<W>,
}

impl<W: Write> Output<W> {
    fn raw(&self, bytes: &[u8]) {
        let mut writer = self.writer.lock().expect("serve output");
        // Like the trace sink: a broken client pipe must not kill the
        // daemon, so write errors are ignored.
        let _ = writer.write_all(bytes);
        let _ = writer.flush();
    }

    fn respond(&self, response: &Response) {
        let mut line = response.to_json();
        line.push('\n');
        self.raw(line.as_bytes());
    }
}

/// Adapter installed as the global trace sink: buffers the record bytes
/// `trace::emit` writes and forwards each completed line (emit flushes
/// once per record) to the shared output as one atomic write.
struct TraceTap<W: Write + Send> {
    out: Arc<Output<W>>,
    buf: Vec<u8>,
}

impl<W: Write + Send> Write for TraceTap<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.out.raw(&self.buf);
            self.buf.clear();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Scheduler state.

struct QueueEntry {
    priority: u64,
    job_id: u64,
    spec: SubmitRequest,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &QueueEntry) -> bool {
        self.job_id == other.job_id
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &QueueEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &QueueEntry) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO by job id.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.job_id.cmp(&self.job_id))
    }
}

struct JobMeta {
    enqueued: Instant,
    cancelled_in_queue: bool,
    finished: bool,
}

#[derive(Default)]
struct State {
    queue: BinaryHeap<QueueEntry>,
    meta: BTreeMap<u64, JobMeta>,
    running: BTreeMap<u64, CancelToken>,
    totals: SessionTotals,
    /// Terminal records of *completed* jobs, keyed by
    /// `(circuit identity, canonical config)`: a repeat submit replays the
    /// stored record instead of re-running the flow. Only completions are
    /// cached — interrupted/failed/cancelled outcomes depend on budgets
    /// and timing, so a retry must actually retry.
    cache: BTreeMap<String, JobDone>,
    /// No more jobs will arrive; workers exit once the queue is empty.
    stopping: bool,
}

impl State {
    /// Jobs finished, whatever their outcome.
    fn done(&self) -> u64 {
        let t = &self.totals;
        t.completed + t.interrupted + t.cancelled + t.failed
    }

    /// Jobs accepted but neither running nor done.
    fn queued(&self) -> u64 {
        self.totals.submitted - self.running.len() as u64 - self.done()
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on enqueue and on `stopping`.
    ready: Condvar,
    /// Signalled when a worker finishes a job (drain waits on it).
    idle: Condvar,
}

/// Runs a daemon session: requests from `reader`, responses and job
/// record streams to `writer`, until shutdown/EOF/`stop`. Returns after
/// every worker has exited and the final `shutdown` record is written.
///
/// Installs the process-global trace sink for the session's duration
/// (streaming progress is the trace format), replacing any sink
/// `ALSRAC_TRACE` installed, and disables it again before returning.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn serve<R, W>(
    reader: R,
    writer: W,
    catalog: Arc<Catalog>,
    workers: usize,
    stop: Option<CancelToken>,
) -> ServeSummary
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'static,
{
    assert!(workers > 0, "worker count must be positive");
    let output = Arc::new(Output {
        writer: Mutex::new(writer),
    });
    trace::reset();
    trace::enable_writer(Box::new(TraceTap {
        out: Arc::clone(&output),
        buf: Vec::new(),
    }));

    // The reader thread is detached on purpose: a blocked `read_line`
    // (e.g. on an idle stdin after a `shutdown` request) cannot be
    // joined. It dies on EOF or on the first send after serve returns.
    let (line_tx, line_rx) = mpsc::channel::<(u64, String)>();
    std::thread::spawn(move || {
        let mut reader = reader;
        let mut line_no = 0u64;
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    line_no += 1;
                    if line_tx.send((line_no, line)).is_err() {
                        break;
                    }
                }
            }
        }
    });

    let shared = Shared {
        state: Mutex::new(State::default()),
        ready: Condvar::new(),
        idle: Condvar::new(),
    };

    let reason = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared, catalog.as_ref(), output.as_ref()));
        }
        let (mut reason, cancel_mode) =
            dispatch_loop(&shared, &line_rx, output.as_ref(), stop.as_ref());
        // Cancel-mode shutdown empties the queue and trips running jobs;
        // drain mode lets workers finish everything already queued.
        begin_shutdown(&shared, output.as_ref(), cancel_mode);
        if !cancel_mode {
            // A drain can still be interrupted by a late stop signal
            // (SIGINT while the queue empties).
            let mut state = shared.state.lock().expect("serve state");
            loop {
                if state.done() == state.totals.submitted {
                    break;
                }
                if stop.as_ref().is_some_and(CancelToken::is_tripped) {
                    drop(state);
                    begin_shutdown(&shared, output.as_ref(), true);
                    reason = ExitReason::StopRequested;
                    break;
                }
                let (next, _) = shared
                    .idle
                    .wait_timeout(state, Duration::from_millis(50))
                    .expect("serve state");
                state = next;
            }
        }
        reason
        // Scope exit joins the workers: every job has emitted its final
        // records before the shutdown record below.
    });

    let totals = shared.state.lock().expect("serve state").totals.clone();
    trace::emit_totals();
    trace::disable();
    output.respond(&Response::Shutdown {
        reason: reason.to_wire().to_string(),
        totals: totals.clone(),
    });
    ServeSummary { reason, totals }
}

/// Processes request lines until shutdown/EOF/stop. Returns the exit
/// reason and whether the shutdown should cancel (vs drain) the queue.
fn dispatch_loop<W: Write>(
    shared: &Shared,
    lines: &mpsc::Receiver<(u64, String)>,
    output: &Output<W>,
    stop: Option<&CancelToken>,
) -> (ExitReason, bool) {
    loop {
        if stop.is_some_and(CancelToken::is_tripped) {
            return (ExitReason::StopRequested, true);
        }
        let (line_no, line) = match lines.recv_timeout(Duration::from_millis(25)) {
            Ok(item) => item,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return (ExitReason::InputClosed, false),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match Request::parse(trimmed) {
            Err(message) => {
                let mut state = shared.state.lock().expect("serve state");
                state.totals.rejected_lines += 1;
                drop(state);
                output.respond(&Response::LineError {
                    line: line_no,
                    message,
                });
            }
            Ok(Request::Submit(spec)) => {
                let job_id = {
                    let mut state = shared.state.lock().expect("serve state");
                    state.totals.submitted += 1;
                    let job_id = state.totals.submitted;
                    state.meta.insert(
                        job_id,
                        JobMeta {
                            enqueued: Instant::now(),
                            cancelled_in_queue: false,
                            finished: false,
                        },
                    );
                    state.queue.push(QueueEntry {
                        priority: spec.priority,
                        job_id,
                        spec,
                    });
                    job_id
                };
                shared.ready.notify_one();
                output.respond(&Response::Submitted { job_id });
            }
            Ok(Request::Cancel { job_id }) => {
                // `None` means the job was cancelled out of the queue and
                // needs its terminal record emitted below (outside the
                // lock, but from this single dispatch thread, so the ack
                // always precedes the job_done).
                let mut dequeued_ns = None;
                let response = {
                    let mut state = shared.state.lock().expect("serve state");
                    if let Some(token) = state.running.get(&job_id) {
                        token.trip();
                        Response::CancelAck {
                            job_id,
                            state: CancelState::Cancelling,
                        }
                    } else {
                        match state.meta.get_mut(&job_id) {
                            Some(meta) if meta.finished || meta.cancelled_in_queue => {
                                Response::CancelAck {
                                    job_id,
                                    state: CancelState::AlreadyDone,
                                }
                            }
                            Some(meta) => {
                                meta.cancelled_in_queue = true;
                                dequeued_ns = Some(elapsed_ns(meta.enqueued));
                                state.totals.cancelled += 1;
                                Response::CancelAck {
                                    job_id,
                                    state: CancelState::Cancelled,
                                }
                            }
                            None => Response::Rejected {
                                op: "cancel".to_string(),
                                error: format!("unknown job id {job_id}"),
                            },
                        }
                    }
                };
                output.respond(&response);
                if let Some(queue_ns) = dequeued_ns {
                    output.respond(&Response::JobDone(cancelled_job(job_id, queue_ns)));
                }
            }
            Ok(Request::Status) => {
                let response = {
                    let state = shared.state.lock().expect("serve state");
                    Response::Status {
                        queued: state.queued(),
                        running: state.running.len() as u64,
                        done: state.done(),
                    }
                };
                output.respond(&response);
            }
            Ok(Request::Shutdown { cancel }) => {
                return (ExitReason::ShutdownRequest, cancel);
            }
        }
    }
}

fn cancelled_job(job_id: u64, queue_ns: u64) -> JobDone {
    JobDone {
        job_id,
        outcome: JobOutcome::Cancelled,
        queue_ns,
        run_ns: 0,
        queue_depth: 0,
        iterations: 0,
        applied: 0,
        ands: 0,
        checkpoint: None,
        cache_hit: false,
    }
}

/// FNV-1a 64 over a byte string (inline circuit texts are keyed by hash so
/// the cache map does not hold a second copy of every submitted netlist).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The result-cache key of a submit: circuit identity plus every
/// result-relevant config field. `priority` is deliberately excluded — it
/// affects *when* a job runs, never what it computes. Thresholds and
/// deadlines are keyed by their exact bit patterns so no two distinct
/// configs ever collide.
fn cache_key(spec: &SubmitRequest) -> String {
    let source = match &spec.source {
        CircuitSource::Named { name, scale } => format!("named/{scale}/{name}"),
        CircuitSource::Blif(text) => format!("blif/{:016x}", fnv1a(text.as_bytes())),
        CircuitSource::Aag(text) => format!("aag/{:016x}", fnv1a(text.as_bytes())),
    };
    format!(
        "{source}|{}|{:016x}|{}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
        metric_to_wire(spec.metric),
        spec.threshold.to_bits(),
        spec.seed,
        spec.max_iterations,
        spec.measure_rounds,
        spec.certify,
        spec.window,
        spec.window_max_tfi,
        spec.deadline_secs.map(f64::to_bits),
        spec.sat_conflicts,
        spec.sat_propagations,
    )
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Transitions the scheduler into shutdown. In cancel mode, queued jobs
/// are terminally cancelled (each gets its `job_done`) and running jobs'
/// tokens are tripped; in drain mode workers simply finish the queue.
fn begin_shutdown<W: Write>(shared: &Shared, output: &Output<W>, cancel_mode: bool) {
    let mut cancelled: Vec<(u64, u64)> = Vec::new();
    {
        let mut state = shared.state.lock().expect("serve state");
        state.stopping = true;
        if cancel_mode {
            let entries = std::mem::take(&mut state.queue);
            for entry in entries.into_sorted_vec() {
                let meta = state.meta.get_mut(&entry.job_id).expect("job meta");
                if meta.cancelled_in_queue {
                    continue;
                }
                meta.cancelled_in_queue = true;
                let queue_ns = elapsed_ns(meta.enqueued);
                state.totals.cancelled += 1;
                cancelled.push((entry.job_id, queue_ns));
            }
            for token in state.running.values() {
                token.trip();
            }
        }
    }
    shared.ready.notify_all();
    for (job_id, queue_ns) in cancelled {
        output.respond(&Response::JobDone(cancelled_job(job_id, queue_ns)));
    }
}

fn worker_loop<W: Write>(shared: &Shared, catalog: &Catalog, output: &Output<W>) {
    // Nested parallel primitives inside a job run inline: one flow, one
    // thread — concurrency comes from running many jobs at once.
    let _inline = pool::become_worker();
    loop {
        let (entry, enqueued, depth, token) = {
            let mut state = shared.state.lock().expect("serve state");
            let claimed = loop {
                if let Some(entry) = state.queue.pop() {
                    let meta = state.meta.get_mut(&entry.job_id).expect("job meta");
                    if meta.cancelled_in_queue {
                        // Tombstone: its job_done was already emitted.
                        continue;
                    }
                    let enqueued = meta.enqueued;
                    let token = CancelToken::new();
                    state.running.insert(entry.job_id, token.clone());
                    break Some((entry, enqueued, state.queued(), token));
                }
                if state.stopping {
                    break None;
                }
                state = shared.ready.wait(state).expect("serve state");
            };
            match claimed {
                Some(job) => job,
                None => return,
            }
        };
        let job_id = entry.job_id;
        // Cache lookup happens *after* the claim so the job went through
        // normal queue accounting (priority order, cancel-in-queue
        // tombstones, queue_ns) whether or not it replays.
        let key = cache_key(&entry.spec);
        let cached = {
            let state = shared.state.lock().expect("serve state");
            state.cache.get(&key).cloned()
        };
        let done = match cached {
            Some(hit) => {
                trace::add("serve_cache_hits", 1);
                JobDone {
                    job_id,
                    queue_ns: elapsed_ns(enqueued),
                    run_ns: 0,
                    queue_depth: depth,
                    cache_hit: true,
                    ..hit
                }
            }
            None => {
                let done = execute_job(&entry, enqueued, depth, token, catalog);
                if done.outcome == JobOutcome::Completed {
                    let mut state = shared.state.lock().expect("serve state");
                    state.cache.insert(key, done.clone());
                }
                done
            }
        };
        {
            let mut state = shared.state.lock().expect("serve state");
            state.running.remove(&job_id);
            let meta = state.meta.get_mut(&job_id).expect("job meta");
            meta.finished = true;
            match &done.outcome {
                JobOutcome::Completed => state.totals.completed += 1,
                JobOutcome::Interrupted { .. } => state.totals.interrupted += 1,
                JobOutcome::Cancelled => state.totals.cancelled += 1,
                JobOutcome::Failed { .. } => state.totals.failed += 1,
            }
        }
        output.respond(&Response::JobDone(done));
        shared.idle.notify_all();
    }
}

/// Runs one job to its terminal record. Never panics out: resolver
/// errors, flow errors, and panics inside the flow all become a `failed`
/// outcome, so a poisoned job cannot wedge the queue.
fn execute_job(
    entry: &QueueEntry,
    enqueued: Instant,
    depth: u64,
    token: CancelToken,
    catalog: &Catalog,
) -> JobDone {
    let started = Instant::now();
    let queue_ns = (started - enqueued).as_nanos().min(u64::MAX as u128) as u64;
    trace::set_job_tag(Some(entry.job_id));
    // Register the job's token with the fault harness so an armed
    // `FaultAction::Cancel` interrupts this job (and only this job).
    faults::set_cancel_token(Some(token.clone()));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let aig = catalog.circuit(&entry.spec.source)?;
        let mut config = entry.spec.flow_config();
        config.budget = entry.spec.budget(token.clone());
        flow::run(&aig, &config).map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(panic.as_ref()))));
    faults::set_cancel_token(None);
    trace::set_job_tag(None);
    let run_ns = elapsed_ns(started);
    match outcome {
        Ok(result) => {
            let checkpoint = result.checkpoint.as_ref().map(|cp| cp.to_json());
            let outcome = match result.outcome {
                FlowOutcome::Completed => JobOutcome::Completed,
                FlowOutcome::Interrupted { reason } => JobOutcome::Interrupted { reason },
            };
            JobDone {
                job_id: entry.job_id,
                outcome,
                queue_ns,
                run_ns,
                queue_depth: depth,
                iterations: result.iterations as u64,
                applied: result.applied as u64,
                ands: result.approx.num_ands() as u64,
                checkpoint,
                cache_hit: false,
            }
        }
        Err(error) => JobDone {
            job_id: entry.job_id,
            outcome: JobOutcome::Failed { error },
            queue_ns,
            run_ns,
            queue_depth: depth,
            iterations: 0,
            applied: 0,
            ands: 0,
            checkpoint: None,
            cache_hit: false,
        },
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

// ---------------------------------------------------------------------
// In-process client plumbing: a line-splitting collector, so tests and
// `bench_serve` can observe a session's stream live.

/// A `Write` that splits the daemon's output into lines, keeps them all,
/// and forwards each to any registered watcher as it completes. Clones
/// share state, so the caller keeps a handle while [`serve`] owns one.
#[derive(Clone, Default)]
pub struct LineCollector {
    inner: Arc<Mutex<CollectorInner>>,
}

#[derive(Default)]
struct CollectorInner {
    partial: Vec<u8>,
    lines: Vec<String>,
    watchers: Vec<mpsc::Sender<String>>,
}

impl LineCollector {
    /// A fresh, empty collector.
    pub fn new() -> LineCollector {
        LineCollector::default()
    }

    /// Every complete line collected so far.
    pub fn lines(&self) -> Vec<String> {
        self.inner.lock().expect("collector").lines.clone()
    }

    /// Registers a live watcher. Lines already collected are replayed
    /// into the channel first, so no record can be missed to a race.
    pub fn watch(&self) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let mut inner = self.inner.lock().expect("collector");
        for line in &inner.lines {
            let _ = tx.send(line.clone());
        }
        inner.watchers.push(tx);
        rx
    }
}

impl Write for LineCollector {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut inner = self.inner.lock().expect("collector");
        inner.partial.extend_from_slice(bytes);
        while let Some(newline) = inner.partial.iter().position(|&b| b == b'\n') {
            let rest = inner.partial.split_off(newline + 1);
            let mut line_bytes = std::mem::replace(&mut inner.partial, rest);
            line_bytes.pop(); // the newline
            let line = String::from_utf8_lossy(&line_bytes).into_owned();
            inner.watchers.retain(|tx| tx.send(line.clone()).is_ok());
            inner.lines.push(line);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Blocks until a watched line satisfies `pred` (applied to the parsed
/// record), returning it, or `None` after `timeout` with no match.
pub fn wait_for_record(
    rx: &mpsc::Receiver<String>,
    timeout: Duration,
    pred: impl Fn(&Json) -> bool,
) -> Option<Json> {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            Ok(line) => {
                if let Ok(record) = Json::parse(&line) {
                    if pred(&record) {
                        return Some(record);
                    }
                }
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_submit() -> SubmitRequest {
        SubmitRequest {
            source: CircuitSource::Named {
                name: "rca32".to_string(),
                scale: "paper".to_string(),
            },
            metric: ErrorMetric::Wce,
            threshold: 12.0,
            seed: 99,
            priority: 3,
            max_iterations: Some(40),
            measure_rounds: Some(10_000),
            certify: true,
            window: Some(false),
            window_max_tfi: Some(500),
            deadline_secs: Some(1.5),
            sat_conflicts: Some(100_000),
            sat_propagations: Some(2_000_000),
        }
    }

    #[test]
    fn every_request_variant_round_trips() {
        let requests = vec![
            Request::Submit(SubmitRequest::named("cla32", "test")),
            Request::Submit(full_submit()),
            Request::Submit(SubmitRequest {
                source: CircuitSource::Blif(".model m\n.inputs a\n.outputs y\n.end\n".to_string()),
                metric: ErrorMetric::Nmed,
                ..SubmitRequest::named("", "test")
            }),
            Request::Submit(SubmitRequest {
                source: CircuitSource::Aag("aag 1 1 0 1 0\n2\n2\n".to_string()),
                metric: ErrorMetric::Mred,
                ..SubmitRequest::named("", "test")
            }),
            Request::Cancel { job_id: 17 },
            Request::Status,
            Request::Shutdown { cancel: false },
            Request::Shutdown { cancel: true },
        ];
        for request in requests {
            let line = request.to_json();
            let back = Request::parse(&line).expect("round trip parses");
            assert_eq!(back, request, "wire line: {line}");
        }
    }

    #[test]
    fn submit_defaults_match_flow_config_defaults() {
        let Request::Submit(spec) =
            Request::parse(r#"{"op":"submit","circuit":"rca32"}"#).expect("minimal submit parses")
        else {
            panic!("not a submit");
        };
        let config = spec.flow_config();
        let defaults = FlowConfig::default();
        assert_eq!(config.metric, defaults.metric);
        assert_eq!(config.threshold.to_bits(), defaults.threshold.to_bits());
        assert_eq!(config.seed, defaults.seed);
        assert_eq!(config.max_iterations, defaults.max_iterations);
        assert_eq!(config.measure_rounds, defaults.measure_rounds);
        assert_eq!(config.certify, defaults.certify);
        assert_eq!(config.window.enabled, defaults.window.enabled);
        assert_eq!(config.window.max_tfi, defaults.window.max_tfi);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        let cases: Vec<(&str, &str)> = vec![
            ("not json at all", "expected"),
            ("[1, 2]", "must be a JSON object"),
            (r#"{"circuit":"rca32"}"#, "missing \"op\""),
            (r#"{"op":"explode"}"#, "unknown op"),
            (r#"{"op":"submit"}"#, "missing circuit source"),
            (
                r#"{"op":"submit","circuit":"a","blif":"b"}"#,
                "conflicting circuit sources",
            ),
            (
                r#"{"op":"submit","circuit":"a","metric":"epsilon"}"#,
                "unknown metric",
            ),
            (
                r#"{"op":"submit","circuit":"a","scale":"huge"}"#,
                "unknown scale",
            ),
            (
                r#"{"op":"submit","blif":".model m",  "scale":"test"}"#,
                "only applies to named circuits",
            ),
            (
                r#"{"op":"submit","circuit":"a","bogus":1}"#,
                "unknown key \"bogus\"",
            ),
            (r#"{"op":"submit","circuit":"a","seed":-1}"#, "non-negative"),
            (
                r#"{"op":"submit","circuit":"a","threshold":"big"}"#,
                "must be a number",
            ),
            (r#"{"op":"cancel"}"#, "missing \"job_id\""),
            (r#"{"op":"status","extra":true}"#, "unknown key"),
            (
                r#"{"op":"shutdown","mode":"explode"}"#,
                "unknown shutdown mode",
            ),
        ];
        for (line, needle) in cases {
            let err = Request::parse(line).expect_err(line);
            assert!(
                err.contains(needle),
                "error for {line:?} should mention {needle:?}, got: {err}"
            );
        }
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        for (job_id, priority) in [(1, 0), (2, 5), (3, 0), (4, 5)] {
            heap.push(QueueEntry {
                priority,
                job_id,
                spec: SubmitRequest::named("x", "test"),
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.job_id)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn line_collector_splits_lines_and_replays_to_watchers() {
        let collector = LineCollector::new();
        let mut sink = collector.clone();
        sink.write_all(b"first\nsec").expect("write");
        let watcher = collector.watch();
        assert_eq!(
            watcher
                .recv_timeout(Duration::from_secs(1))
                .expect("replay"),
            "first"
        );
        sink.write_all(b"ond\n").expect("write");
        assert_eq!(
            watcher.recv_timeout(Duration::from_secs(1)).expect("live"),
            "second"
        );
        assert_eq!(collector.lines(), vec!["first", "second"]);
    }
}
