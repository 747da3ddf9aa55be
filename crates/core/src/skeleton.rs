//! The run skeleton shared by the ALSRAC ([`crate::flow`]), Su and Liu
//! ([`crate::baseline`]) loops. A loop describes itself with a [`Spec`],
//! opens a [`Run`] and times each iteration's phases on an [`Iteration`];
//! the skeleton owns the config and circuit checks, the estimation
//! patterns, the trace records (DESIGN.md "Telemetry") and history, the
//! optimize cadence, and the final measurement. Each loop keeps only how it
//! proposes changes, which it accepts, and when it stops.

use alsrac_aig::Aig;
use alsrac_metrics::{measure, measure_auto, CertifiedMeasurement, ErrorMetric};
use alsrac_rt::json::Obj;
use alsrac_rt::trace;
use alsrac_sim::PatternBuffer;
use alsrac_synth::Optimizer;

use crate::checkpoint::Checkpoint;
use crate::flow::{
    certified_record, FlowOutcome, FlowResult, IterationRecord, EXHAUSTIVE_ESTIMATION_LIMIT,
};
use crate::lac::Lac;
use crate::FlowError;

/// A loop's description of itself: the settings every config has, plus
/// the seeds and optimize cadence each loop derives its own way.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Spec<'a> {
    /// The `flow` name of the `run_start` record.
    pub(crate) flow: &'static str,
    pub(crate) metric: ErrorMetric,
    pub(crate) threshold: f64,
    /// The config's seed, as `run_start` records it.
    pub(crate) seed: u64,
    pub(crate) est_rounds: usize,
    pub(crate) est_seed: u64,
    pub(crate) measure_rounds: usize,
    pub(crate) measure_seed: u64,
    /// Per-input probability of a 1; `None` is uniform.
    pub(crate) input_bias: Option<&'a [f64]>,
    /// Optimize after every this many accepted changes; `None` never.
    pub(crate) optimize_period: Option<usize>,
}

/// [`FlowError::InvalidConfig`] for `parameter`.
pub(crate) fn invalid(parameter: &'static str, reason: impl Into<String>) -> FlowError {
    FlowError::InvalidConfig {
        parameter,
        reason: reason.into(),
    }
}

impl Spec<'_> {
    /// Checks the shared config fields, then the circuit (no inputs or
    /// outputs; a distance metric on more than 63 outputs).
    pub(crate) fn check(&self, original: &Aig) -> Result<(), FlowError> {
        if self.threshold.is_nan() || self.threshold <= 0.0 {
            return Err(invalid("threshold", "must be positive"));
        }
        // Zero patterns make every comparison vacuous (0 error lanes over 0
        // patterns): every candidate would silently pass the threshold.
        if self.est_rounds == 0 {
            return Err(invalid("est_rounds", "must be positive"));
        }
        if self.measure_rounds == 0 {
            return Err(invalid("measure_rounds", "must be positive"));
        }
        let bias = self.input_bias.unwrap_or_default();
        if bias.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err(invalid("input_bias", "probabilities must be in [0, 1]"));
        }
        if original.num_inputs() == 0 || original.num_outputs() == 0 {
            return Err(FlowError::DegenerateCircuit {
                inputs: original.num_inputs(),
                outputs: original.num_outputs(),
            });
        }
        if self.metric != ErrorMetric::ErrorRate && original.num_outputs() > 63 {
            return Err(FlowError::MetricUnavailable {
                reason: format!(
                    "{} needs integer-decodable outputs, circuit has {}",
                    self.metric,
                    original.num_outputs()
                ),
            });
        }
        Ok(())
    }

    /// `rounds` patterns over `n` inputs from `seed`, under the input bias.
    pub(crate) fn draw(&self, n: usize, rounds: usize, seed: u64) -> PatternBuffer {
        match self.input_bias {
            Some(bias) => PatternBuffer::biased(n, rounds, bias, seed),
            None => PatternBuffer::random(n, rounds, seed),
        }
    }

    /// The estimation patterns: exhaustive at up to
    /// [`EXHAUSTIVE_ESTIMATION_LIMIT`] uniform inputs, otherwise
    /// `est_rounds` samples.
    pub(crate) fn estimation_patterns(&self, original: &Aig) -> PatternBuffer {
        let n = original.num_inputs();
        if self.input_bias.is_some() || n > EXHAUSTIVE_ESTIMATION_LIMIT {
            return self.draw(n, self.est_rounds, self.est_seed);
        }
        PatternBuffer::exhaustive(n)
    }
}

/// One loop iteration: its 1-based index, the `rounds` its records carry,
/// and the phases timed so far, in the order they first ran — the key
/// order of the record's `phase_ns`.
#[derive(Default)]
pub(crate) struct Iteration {
    index: usize,
    rounds: usize,
    phases: [(&'static str, u64); 5],
    len: usize,
}

impl Iteration {
    pub(crate) fn new(index: usize, rounds: usize) -> Iteration {
        Iteration {
            index,
            rounds,
            ..Iteration::default()
        }
    }

    /// Runs `work` in a trace span named `phase` and adds its time to the
    /// phase. The span opens even when `work` skips its job.
    pub(crate) fn time<R>(&mut self, phase: &'static str, work: impl FnOnce() -> R) -> R {
        let span = trace::span(phase);
        let out = work();
        let ns = span.finish();
        match self.phases[..self.len]
            .iter_mut()
            .find(|(p, _)| *p == phase)
        {
            Some((_, total)) => *total += ns,
            None => {
                self.phases[self.len] = (phase, ns);
                self.len += 1;
            }
        }
        out
    }

    /// `aig`, optimized by `run` when `due`, in an `optimize` span either
    /// way.
    pub(crate) fn optimize(&mut self, run: &mut Run, due: bool, aig: Aig) -> Aig {
        self.time("optimize", || match due {
            true => run.optimize(&aig),
            false => aig,
        })
    }

    /// The fields every `iteration` record starts with.
    fn record(&self, run: u64, accepted: bool) -> Obj {
        Obj::new()
            .str("type", "iteration")
            .u64("run", run)
            .u64("iter", self.index as u64)
            .bool("accepted", accepted)
    }

    fn phase_ns(&self) -> Obj {
        self.phases[..self.len]
            .iter()
            .fold(Obj::new(), |obj, &(phase, ns)| obj.u64(phase, ns))
    }
}

/// One search run: its trace identity, its `flow` span, its optimizer,
/// and the accepted changes so far.
pub(crate) struct Run<'a> {
    original: &'a Aig,
    spec: Spec<'a>,
    id: u64,
    span: trace::Span,
    /// Every optimize call of the run shares its recipe cache; it is
    /// dropped with the run and never checkpointed.
    optimizer: Optimizer,
    /// Accepted changes; a resumed run starts from its checkpoint's.
    pub(crate) history: Vec<IterationRecord>,
    /// The checkpoint iteration a resumed run continues from.
    pub(crate) resumed_from: Option<u64>,
}

impl<'a> Run<'a> {
    /// Draws the run's process-unique id, opens the `flow` span and emits
    /// `run_start`.
    pub(crate) fn start(original: &'a Aig, spec: Spec<'a>) -> Run<'a> {
        let id = trace::next_run_id();
        let span = trace::span("flow");
        if trace::is_enabled() {
            trace::emit(
                Obj::new()
                    .str("type", "run_start")
                    .u64("run", id)
                    .str("flow", spec.flow)
                    .str("circuit", original.name())
                    .u64("seed", spec.seed)
                    .str("metric", &spec.metric.to_string())
                    .f64("threshold", spec.threshold)
                    .u64("inputs", original.num_inputs() as u64)
                    .u64("outputs", original.num_outputs() as u64)
                    .u64("ands", original.num_ands() as u64)
                    .u64("depth", u64::from(original.depth())),
            );
        }
        Run {
            original,
            spec,
            id,
            span,
            optimizer: Optimizer::new(),
            history: Vec::new(),
            resumed_from: None,
        }
    }

    /// Whether an optimize pass follows the change being accepted now.
    pub(crate) fn optimize_due(&self) -> bool {
        let next = self.history.len() + 1;
        self.spec
            .optimize_period
            .is_some_and(|period| next.is_multiple_of(period))
    }

    /// `sweep; resyn2` on `aig` with the run's recipe cache; the recipes
    /// this call derived go to the `synth_recipes_computed` counter.
    pub(crate) fn optimize(&mut self, aig: &Aig) -> Aig {
        let before = self.optimizer.recipes_computed();
        let optimized = self.optimizer.optimize(aig);
        let computed = self.optimizer.recipes_computed() - before;
        trace::add("synth_recipes_computed", computed as u64);
        optimized
    }

    /// The final clean-up: optimizes `current` when accepted changes are
    /// still unoptimized.
    pub(crate) fn optimize_rest(&mut self, current: Aig) -> Aig {
        let applied = self.history.len();
        match self.spec.optimize_period {
            Some(period) if applied > 0 && !applied.is_multiple_of(period) => {
                self.optimize(&current)
            }
            _ => current,
        }
    }

    /// Emits a rejected `iteration` record with the phases that ran.
    pub(crate) fn reject(&self, it: &Iteration, reason: &str, candidates: usize) {
        if trace::is_enabled() {
            trace::emit(
                it.record(self.id, false)
                    .str("reason", reason)
                    .u64("candidates", candidates as u64)
                    .u64("rounds", it.rounds as u64)
                    .obj("phase_ns", it.phase_ns()),
            );
        }
    }

    /// Commits an accepted change to the history and emits its record;
    /// `current` is the circuit after apply and optimize. The record's
    /// `est_error` is the history's f64, bit for bit.
    pub(crate) fn accept(
        &mut self,
        it: &Iteration,
        candidates: usize,
        lac: &Lac,
        est_error: f64,
        current: &Aig,
    ) {
        self.history.push(IterationRecord {
            estimated_error: est_error,
            ands: current.num_ands(),
            rounds: it.rounds,
        });
        if trace::is_enabled() {
            trace::emit(
                it.record(self.id, true)
                    .u64("candidates", candidates as u64)
                    .u64("rounds", it.rounds as u64)
                    .str("lac", &lac.kind())
                    .f64("est_error", est_error)
                    .i64("gain", lac.est_gain() as i64)
                    .u64("ands", current.num_ands() as u64)
                    .u64("depth", u64::from(current.depth()))
                    .obj("phase_ns", it.phase_ns()),
            );
        }
    }

    /// Measures `approx`, attaches the certificate `certify` returns (an
    /// uncertified one carries the sampled value), emits `run_end` and
    /// assembles the result. `interrupted` is the interrupt reason and the
    /// checkpoint to resume from.
    pub(crate) fn finish(
        self,
        approx: Aig,
        iterations: usize,
        interrupted: Option<(String, Checkpoint)>,
        certify: impl FnOnce(&Aig) -> Option<CertifiedMeasurement>,
    ) -> Result<FlowResult, FlowError> {
        let spec = self.spec;
        let measure_span = trace::span("measure");
        let measured = match spec.input_bias {
            Some(_) => {
                let n = self.original.num_inputs();
                let patterns = spec.draw(n, spec.measure_rounds, spec.measure_seed);
                measure(self.original, &approx, &patterns)?
            }
            None => measure_auto(
                self.original,
                &approx,
                spec.measure_rounds,
                spec.measure_seed,
            )?,
        };
        let measure_ns = measure_span.finish();
        let certificate = certify(&approx).map(|mut cert| {
            if !cert.status.is_certified() {
                if let Some(sampled) = measured.value(spec.metric) {
                    cert.value = sampled;
                }
            }
            cert
        });
        let (outcome, checkpoint) = match interrupted {
            Some((reason, checkpoint)) => (FlowOutcome::Interrupted { reason }, Some(checkpoint)),
            None => (FlowOutcome::Completed, None),
        };
        let result = FlowResult {
            approx,
            iterations,
            applied: self.history.len(),
            measured,
            certificate,
            history: self.history,
            outcome,
            checkpoint,
        };
        let wall_ns = self.span.finish();
        if !trace::is_enabled() {
            return Ok(result);
        }
        // The `measured` and `certified` sub-objects carry the f64s of the
        // result, so the JSONL round-trips bit for bit against it.
        let measured = &result.measured;
        let mut record = Obj::new()
            .str("type", "run_end")
            .u64("run", self.id)
            .u64("iterations", iterations as u64)
            .u64("applied", result.applied as u64)
            .u64("ands", result.approx.num_ands() as u64)
            .u64("depth", u64::from(result.approx.depth()))
            .u64("wall_ns", wall_ns)
            .obj("phase_ns", Obj::new().u64("measure", measure_ns))
            .obj(
                "measured",
                Obj::new()
                    .u64("num_patterns", measured.num_patterns as u64)
                    .f64("error_rate", measured.error_rate)
                    .opt_f64("nmed", measured.nmed)
                    .opt_f64("mred", measured.mred)
                    .opt_u64("max_error_distance", measured.max_error_distance),
            );
        record = match &result.outcome {
            FlowOutcome::Completed => record.str("outcome", "completed"),
            FlowOutcome::Interrupted { reason } => record
                .str("outcome", "interrupted")
                .str("interrupt_reason", reason),
        };
        if let Some(at) = self.resumed_from {
            record = record.u64("resumed_from", at);
        }
        if let Some(cert) = &result.certificate {
            record = record.obj("certified", certified_record(cert));
        }
        trace::emit(record);
        Ok(result)
    }
}
