//! The traced profile: the flow's own spans, counters and `iteration` /
//! `run_end` records, captured in memory, plus the benchmark-side probe
//! spans, turned into the per-layer metrics.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use alsrac_rt::json::Json;
use alsrac_rt::trace::PhaseSnapshot;

use crate::probes::{PassProbe, Spans, LAC_STAGES};
use crate::Metric;

/// An in-memory JSONL trace sink the benchmark keeps a handle to.
#[derive(Clone, Default)]
pub struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("capture lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Capture {
    /// Removes and parses every record captured so far.
    pub fn take_records(&self) -> Vec<Json> {
        let bytes = std::mem::take(&mut *self.0.lock().expect("capture lock poisoned"));
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(|line| Json::parse(line).expect("the flow emits valid JSONL"))
            .collect()
    }
}

/// Termination accounting derived from `run_start`, `iteration` and
/// `run_end` records.
#[derive(Clone, Debug, Default)]
pub struct FlowCounts {
    /// Runs seen.
    pub runs: u64,
    /// Loop iterations (`run_end.iterations`).
    pub iterations: u64,
    /// Accepted LACs.
    pub accepts: u64,
    /// Accepts after which the AND count did not drop.
    pub no_progress_accepts: u64,
    /// Sum over runs of the last iteration whose accept dropped the AND
    /// count (0 for a run without one).
    pub last_improving_iter: u64,
    /// LAC candidates generated, over all iterations.
    pub candidates: u64,
    /// Runs that stopped at `max_iterations`.
    pub capped: u64,
}

impl FlowCounts {
    /// Adds the records of one run with iteration cap `max_iterations`.
    pub fn add_run(&mut self, records: &[Json], max_iterations: usize) {
        let field = |rec: &Json, key: &str| rec.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut ands = 0;
        let mut last_improving = 0;
        for rec in records {
            match rec.get("type").and_then(Json::as_str) {
                Some("run_start") => {
                    self.runs += 1;
                    ands = field(rec, "ands");
                }
                Some("iteration") => {
                    self.candidates += field(rec, "candidates");
                    if rec.get("accepted").and_then(Json::as_bool) == Some(true) {
                        self.accepts += 1;
                        let now = field(rec, "ands");
                        if now < ands {
                            last_improving = field(rec, "iter");
                        } else {
                            self.no_progress_accepts += 1;
                        }
                        ands = now;
                    }
                }
                Some("run_end") => {
                    let iterations = field(rec, "iterations");
                    self.iterations += iterations;
                    if iterations >= max_iterations as u64 {
                        self.capped += 1;
                    }
                }
                _ => {}
            }
        }
        self.last_improving_iter += last_improving;
    }
}

/// Span nanoseconds (by path) and counters summed over traced runs.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    spans: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl Totals {
    /// Adds one `trace::snapshot`.
    pub fn add(&mut self, snapshot: &(Vec<PhaseSnapshot>, Vec<(String, u64)>)) {
        for span in &snapshot.0 {
            let entry = self.spans.entry(span.name.clone()).or_insert((0, 0));
            entry.0 += span.ns;
            entry.1 += span.count;
        }
        for (name, value) in &snapshot.1 {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }

    /// Seconds in the span at `path`.
    pub fn secs(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0, |s| s.0) as f64 * 1e-9
    }

    fn calls(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |s| s.1)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// The flow phases, as `(metric stem, span paths)`: `measure` also holds
/// the final certificate, `apply` the WCE accept gate nested in it.
const PHASES: [(&str, &[&str]); 7] = [
    ("care_sim", &["flow/care_sim"]),
    ("lac_gen", &["flow/lac_gen"]),
    ("estimate", &["flow/estimate"]),
    ("sim_update", &["flow/sim_update"]),
    ("apply", &["flow/apply"]),
    ("optimize", &["flow/optimize"]),
    ("measure", &["flow/measure", "flow/certify"]),
];

/// Everything the per-layer metrics are computed from.
pub struct Profile<'a> {
    /// Flow spans and counters of the traced pass.
    pub totals: &'a Totals,
    /// Termination accounting of the traced pass.
    pub counts: &'a FlowCounts,
    /// Optimizer calls the traced pass made (one per accept when the
    /// configuration optimizes after each accept).
    pub optimize_calls: u64,
    /// The optimizer pass probe over every job's input and final circuit.
    pub passes: &'a PassProbe,
    /// The `lac_gen` stage probe over one care simulation per job.
    pub stages: &'a Spans,
    /// Jobs whose stage probe reproduced `generate_lacs_with` exactly.
    pub stages_agree: u64,
    /// Traced over untraced `flow::run` seconds.
    pub trace_overhead: f64,
}

impl Profile<'_> {
    /// The per-layer metrics, in report order.
    pub fn metrics(&self) -> Vec<Metric> {
        let t = self.totals;
        let c = self.counts;
        let flow = t.secs("flow");
        let mut out = vec![
            Metric::new("flow.s", flow, "s"),
            Metric::new("flow.iterations", c.iterations as f64, "count"),
            Metric::new("flow.accepts", c.accepts as f64, "count"),
            Metric::new(
                "flow.no_progress_accepts",
                c.no_progress_accepts as f64,
                "count",
            ),
            Metric::new(
                "flow.last_improving_iter",
                c.last_improving_iter as f64 / c.runs.max(1) as f64,
                "iter",
            ),
            Metric::new(
                "flow.cap_share",
                c.capped as f64 / c.runs.max(1) as f64,
                "share",
            ),
        ];
        let mut attributed = 0.0;
        for (stem, paths) in PHASES {
            let secs: f64 = paths.iter().map(|p| t.secs(p)).sum();
            attributed += secs;
            out.push(Metric::new(format!("{stem}.s"), secs, "s"));
            out.push(Metric::new(format!("{stem}.share"), secs / flow, "share"));
        }
        let gate_queries = t.calls("flow/apply/certify") as f64;
        out.extend([
            Metric::new("unattributed.s", flow - attributed, "s"),
            Metric::new("unattributed.share", (flow - attributed) / flow, "share"),
            Metric::new("lac_gen.candidates", c.candidates as f64, "count"),
            Metric::new(
                "lac_gen.yield",
                c.accepts as f64 / c.candidates.max(1) as f64,
                "share",
            ),
            Metric::new("lac_gen.window_nodes", t.counter("window_nodes"), "count"),
            Metric::new(
                "lac_gen.screened",
                t.counter("divisors_filtered_by_signature"),
                "count",
            ),
            Metric::new("lac_gen.probe_agree", self.stages_agree as f64, "count"),
            Metric::new("estimate.lacs_scored", t.counter("lacs_scored"), "count"),
            Metric::new(
                "estimate.influence_words",
                t.counter("influence_words_computed"),
                "count",
            ),
            Metric::new(
                "sim_update.words_saved",
                t.counter("sim_words_saved"),
                "count",
            ),
            Metric::new("apply.sat_queries", gate_queries, "count"),
            Metric::new(
                "apply.sat_rejects",
                t.counter("cert_candidate_rejects"),
                "count",
            ),
            Metric::new("optimize.calls", self.optimize_calls as f64, "count"),
            Metric::new(
                "optimize.s_per_call",
                t.secs("flow/optimize") / self.optimize_calls.max(1) as f64,
                "s",
            ),
            Metric::new(
                "certify.sat_queries",
                t.counter("cert_sat_queries") - gate_queries,
                "count",
            ),
            Metric::new("trace.overhead", self.trace_overhead, "ratio"),
        ]);
        let stage_total: u64 = self.stages.0.values().sum();
        for stage in LAC_STAGES {
            let ns = self.stages.0.get(stage).copied().unwrap_or(0);
            out.push(Metric::new(format!("{stage}.s"), ns as f64 * 1e-9, "s"));
            out.push(Metric::new(
                format!("{stage}.share"),
                ns as f64 / stage_total.max(1) as f64,
                "share",
            ));
        }
        let pass_total: u64 = self.passes.spans.0.values().sum();
        for stem in PassProbe::stems() {
            let ns = self.passes.spans.0.get(stem).copied().unwrap_or(0);
            let removed = self.passes.ands_removed.get(stem).copied().unwrap_or(0);
            out.push(Metric::new(format!("{stem}.s"), ns as f64 * 1e-9, "s"));
            out.push(Metric::new(
                format!("{stem}.share"),
                ns as f64 / pass_total.max(1) as f64,
                "share",
            ));
            out.push(Metric::new(
                format!("{stem}.ands_removed"),
                removed as f64,
                "count",
            ));
        }
        out
    }
}
