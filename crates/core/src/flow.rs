//! The ALSRAC flow (Algorithm 3 of the paper).

use std::fmt::Display;

use alsrac_aig::Aig;
use alsrac_metrics::{CertifiedMeasurement, ErrorMetric, Measurement};
use alsrac_rt::budget::{Budget, Interrupt};
use alsrac_rt::json::Obj;
use alsrac_rt::{derive_indexed, derive_seed, trace, Stream};
use alsrac_sim::Simulation;

use crate::certify::{self, WceGate};
use crate::checkpoint::Checkpoint;
use crate::estimate::Estimator;
use crate::lac::{generate_lacs_with, LacConfig};
use crate::skeleton::{invalid, Iteration, Run, Spec};
use crate::window::WindowConfig;
use crate::FlowError;

/// Parameters of the ALSRAC flow. Defaults follow the paper's §IV-A
/// experimental setup (`N = 32`, `L = 1`, `t = 5`, `r = 0.9`), with
/// CI-friendly estimation/measurement sample counts (the paper uses 10⁷
/// measurement rounds on a desktop; raise `measure_rounds` to match).
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// The constrained error metric.
    pub metric: ErrorMetric,
    /// The error threshold `E_t`.
    pub threshold: f64,
    /// Initial care-simulation rounds `N`.
    pub initial_rounds: usize,
    /// Consecutive empty-candidate iterations before `N` shrinks (`t`).
    pub patience: usize,
    /// Shrink factor for `N` (`r`, in `(0, 1)`).
    pub shrink: f64,
    /// Patterns used for batch error estimation of candidates (exhaustive
    /// simulation is used instead when the circuit has at most
    /// [`EXHAUSTIVE_ESTIMATION_LIMIT`] inputs).
    pub est_rounds: usize,
    /// Patterns used for the final accuracy measurement (exhaustive when
    /// the input count permits).
    pub measure_rounds: usize,
    /// RNG seed; every random decision derives from it. Care simulation,
    /// candidate estimation, and the final measurement each draw from
    /// their own [`alsrac_rt::Stream`] sub-stream of this seed.
    pub seed: u64,
    /// Per-input probability of being 1. `None` means uniform (the paper's
    /// experimental setting); `Some` exercises §III-A's "user-specified
    /// distribution" generality. Care patterns, estimation patterns, and
    /// the final measurement all follow the distribution.
    pub input_bias: Option<Vec<f64>>,
    /// Hard iteration cap (safety net; the paper's loop is unbounded).
    pub max_iterations: usize,
    /// Run the traditional optimizer (`sweep; resyn2`) after accepted
    /// LACs, as in Algorithm 3 line 9. Disabling trades area for speed.
    pub optimize_after_apply: bool,
    /// Re-optimize only every this many accepted LACs (1 = after each, the
    /// paper's behaviour; larger values trade area for speed on big
    /// circuits). The final result is always optimized.
    pub optimize_period: usize,
    /// Produce a SAT certificate of the final error
    /// ([`FlowResult::certificate`]): exact model counting of the miter
    /// for [`ErrorMetric::ErrorRate`] (XOR-hash (ε, δ) counting beyond
    /// [`alsrac_sat::count::ENUMERATION_INPUT_LIMIT`] inputs). Implied —
    /// always on — for [`ErrorMetric::Wce`], whose accept decision is
    /// SAT-backed to begin with. Ignored (no certificate) for the
    /// distance-mean metrics NMED/MRED, which model counting does not
    /// cover.
    pub certify: bool,
    /// Execution budget: cooperative cancellation, a wall-clock deadline,
    /// and SAT caps. Checked at iteration boundaries and threaded into
    /// every certification solver. Cancellation and deadline expiry
    /// interrupt the run ([`FlowOutcome::Interrupted`], with a
    /// [`Checkpoint`] to resume from); SAT caps instead *degrade* —
    /// certificates come back with
    /// [`alsrac_metrics::CertStatus::Degraded`] and the WCE accept gate
    /// falls back to the sampled estimate — because caps count
    /// deterministic solver events and therefore keep runs reproducible.
    /// Defaults to unlimited (no behaviour change).
    pub budget: Budget,
    /// LAC generation options (divisor selection etc.).
    pub lac: LacConfig,
    /// Window-local resubstitution options. Enabled by default; window
    /// bounds at or above every pivot's TFI size (as on the bundled small
    /// circuits) keep results bit-identical to `WindowConfig::disabled()`.
    pub window: WindowConfig,
}

/// Input count at or below which candidate estimation uses exhaustive
/// patterns (making the flow deterministic given the seed).
pub const EXHAUSTIVE_ESTIMATION_LIMIT: usize = 14;

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.01,
            initial_rounds: 32,
            patience: 5,
            shrink: 0.9,
            est_rounds: 2048,
            measure_rounds: 50_000,
            seed: 1,
            input_bias: None,
            max_iterations: 10_000,
            optimize_after_apply: true,
            optimize_period: 1,
            certify: false,
            budget: Budget::unlimited(),
            lac: LacConfig::default(),
            window: WindowConfig::default(),
        }
    }
}

impl FlowConfig {
    /// The run skeleton's view of this config.
    fn spec(&self) -> Spec<'_> {
        Spec {
            flow: "alsrac",
            metric: self.metric,
            threshold: self.threshold,
            seed: self.seed,
            est_rounds: self.est_rounds,
            est_seed: derive_seed(self.seed, Stream::Estimation),
            measure_rounds: self.measure_rounds,
            measure_seed: derive_seed(self.seed, Stream::Measurement),
            input_bias: self.input_bias.as_deref(),
            optimize_period: self
                .optimize_after_apply
                .then_some(self.optimize_period.max(1)),
        }
    }

    /// Checks ALSRAC's own parameters, then the shared fields and the
    /// circuit ([`Spec::check`]).
    fn preflight(&self, original: &Aig) -> Result<(), FlowError> {
        if !(self.shrink > 0.0 && self.shrink < 1.0) {
            return Err(invalid(
                "shrink",
                format!("must be in (0, 1), got {}", self.shrink),
            ));
        }
        if self.initial_rounds == 0 {
            return Err(invalid("initial_rounds", "must be positive"));
        }
        if self.patience == 0 {
            return Err(invalid("patience", "must be positive"));
        }
        self.spec().check(original)
    }
}

/// Algorithm 3's adaptive care-simulation count `N` and the streaks that
/// move it, with one method per iteration outcome. An interrupted run's
/// [`Checkpoint`] stores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CareRounds {
    /// Care-simulation rounds `N` in effect.
    pub(crate) rounds: usize,
    /// Consecutive empty-candidate iterations (shrink trigger).
    pub(crate) empty_streak: usize,
    /// Consecutive over-budget iterations (grow trigger).
    pub(crate) over_streak: usize,
    /// Consecutive fruitless iterations of either kind (stop trigger).
    pub(crate) stuck_streak: usize,
}

impl CareRounds {
    fn new(config: &FlowConfig) -> CareRounds {
        CareRounds {
            rounds: config.initial_rounds,
            ..CareRounds::default()
        }
    }

    /// An iteration without candidates: the care set is too large, so `N`
    /// shrinks by `r` after `t` of them in a row (Algorithm 3 lines 3/10).
    /// Returns whether the run goes on.
    fn no_candidates(&mut self, config: &FlowConfig) -> bool {
        self.empty_streak += 1;
        self.stuck_streak += 1;
        if self.empty_streak >= config.patience {
            let shrunk = ((self.rounds as f64) * config.shrink) as usize;
            self.rounds = shrunk.clamp(1, self.rounds.saturating_sub(1).max(1));
            self.empty_streak = 0;
        }
        self.goes_on(config, self.rounds == 1)
    }

    /// An iteration whose best candidate is over budget. The literal
    /// Algorithm 3 stops here (line 7); a fresh draw or a *larger* care set
    /// can still hold in-budget candidates, so the flow retries and doubles
    /// `N` after `t` in a row (deviation D1). Returns whether it goes on.
    fn over_budget(&mut self, config: &FlowConfig) -> bool {
        let max_rounds = config.initial_rounds * 4;
        self.empty_streak = 0;
        self.over_streak += 1;
        self.stuck_streak += 1;
        if self.over_streak >= config.patience {
            self.rounds = (self.rounds * 2).min(max_rounds);
            self.over_streak = 0;
        }
        self.goes_on(config, self.rounds >= max_rounds)
    }

    /// An accepted candidate resets every streak, whatever it saved.
    fn accepted(&mut self) {
        self.empty_streak = 0;
        self.over_streak = 0;
        self.stuck_streak = 0;
    }

    /// The give-up test: `6·t` fruitless iterations in a row with `N` at
    /// its floor or ceiling, or `20·t` anywhere (shrink/grow ping-pong
    /// must not loop forever). The products saturate, so a patience no run
    /// reaches (a fixed `N`) never gives up.
    fn goes_on(&self, config: &FlowConfig, at_limit: bool) -> bool {
        let limit = if at_limit { 6 } else { 20 };
        self.stuck_streak < config.patience.saturating_mul(limit)
    }
}

/// One accepted iteration of the flow.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// Estimated error after applying the iteration's LAC.
    pub estimated_error: f64,
    /// AND count after applying and re-optimizing.
    pub ands: usize,
    /// Care-simulation rounds `N` in effect.
    pub rounds: usize,
}

/// How an ALSRAC run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// The loop ran to its natural end (threshold saturated, candidates
    /// exhausted, or the iteration cap).
    Completed,
    /// The budget's cancel token or deadline fired. The result still
    /// carries the best-so-far circuit with a real measurement, plus a
    /// [`Checkpoint`] that [`resume`] continues bit-identically.
    Interrupted {
        /// What fired ([`Interrupt`]'s `Display` form).
        reason: String,
    },
}

impl FlowOutcome {
    /// Returns `true` for [`FlowOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, FlowOutcome::Completed)
    }
}

/// The result of an ALSRAC run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The approximate circuit (optimized, not yet technology-mapped).
    pub approx: Aig,
    /// Total loop iterations (including candidate-less ones).
    pub iterations: usize,
    /// Accepted LACs.
    pub applied: usize,
    /// Final accuracy measurement against the original circuit.
    pub measured: Measurement,
    /// SAT certificate of the final error: present for
    /// [`ErrorMetric::Wce`] (exact maximum error distance when the
    /// certificate's status is `Certified`), present for
    /// [`ErrorMetric::ErrorRate`] when [`FlowConfig::certify`] is set,
    /// absent otherwise and on interrupted runs (an exhausted budget has
    /// no headroom for certification; the sampled `measured` stands in).
    /// A `Degraded` certificate's `value` is the sampled measurement —
    /// the SAT budget ran out before the proof finished.
    pub certificate: Option<CertifiedMeasurement>,
    /// Per-accepted-iteration trace.
    pub history: Vec<IterationRecord>,
    /// Whether the run completed or was interrupted by its budget.
    pub outcome: FlowOutcome,
    /// Resume state, present exactly when `outcome` is
    /// [`FlowOutcome::Interrupted`].
    pub checkpoint: Option<Checkpoint>,
}

/// Runs ALSRAC on `original` (Algorithm 3).
///
/// The loop: simulate `N` random patterns, generate LAC candidates from
/// the approximate care sets, estimate every candidate's whole-circuit
/// error with batch estimation, apply the least-error candidate if it
/// stays within the threshold, and re-optimize with the traditional
/// synthesis script. When no candidate exists for `t` consecutive
/// iterations, `N` is scaled by `r`, shrinking the care sets.
///
/// # Errors
///
/// * [`FlowError::DegenerateCircuit`] for circuits without inputs or
///   outputs;
/// * [`FlowError::InvalidConfig`] for out-of-range parameters;
/// * [`FlowError::MetricUnavailable`] when a distance metric is requested
///   on a circuit with more than 63 outputs.
pub fn run(original: &Aig, config: &FlowConfig) -> Result<FlowResult, FlowError> {
    config.preflight(original)?;
    run_from(original, config, None)
}

/// Continues an interrupted run from its [`Checkpoint`].
///
/// Because every random decision of the flow is a pure function of
/// `(seed, stream, iteration)`, a resumed run replays the remaining
/// iterations exactly as the uninterrupted run would have executed them:
/// the final [`FlowResult`] is bit-identical (circuit structure, history
/// floats, measurement) to a never-interrupted run of the same config —
/// at any worker-thread count.
///
/// # Errors
///
/// All of [`run`]'s errors, plus [`FlowError::Checkpoint`] when the
/// checkpoint does not belong to this `(original, config)` pair (seed,
/// metric, or threshold mismatch; arity mismatch; iteration count beyond
/// the config's cap).
pub fn resume(
    original: &Aig,
    config: &FlowConfig,
    checkpoint: Checkpoint,
) -> Result<FlowResult, FlowError> {
    config.preflight(original)?;
    let mismatch = |reason: String| Err(FlowError::Checkpoint { reason });
    let differs = |what: &str, ours: &dyn Display, theirs: &dyn Display| {
        mismatch(format!(
            "{what} mismatch: checkpoint {ours}, config {theirs}"
        ))
    };
    if checkpoint.seed != config.seed {
        return differs("seed", &checkpoint.seed, &config.seed);
    }
    if checkpoint.metric != config.metric {
        return differs("metric", &checkpoint.metric, &config.metric);
    }
    if checkpoint.threshold.to_bits() != config.threshold.to_bits() {
        return differs("threshold", &checkpoint.threshold, &config.threshold);
    }
    if checkpoint.iterations > config.max_iterations {
        return mismatch(format!(
            "checkpoint is {} iterations in, config caps at {}",
            checkpoint.iterations, config.max_iterations
        ));
    }
    if checkpoint.current.num_inputs() != original.num_inputs()
        || checkpoint.current.num_outputs() != original.num_outputs()
    {
        return mismatch(format!(
            "arity mismatch: checkpoint circuit is {}x{}, original is {}x{}",
            checkpoint.current.num_inputs(),
            checkpoint.current.num_outputs(),
            original.num_inputs(),
            original.num_outputs()
        ));
    }
    run_from(original, config, Some(checkpoint))
}

/// The loop body shared by [`run`] (fresh state) and [`resume`]
/// (checkpointed state).
fn run_from(
    original: &Aig,
    config: &FlowConfig,
    checkpoint: Option<Checkpoint>,
) -> Result<FlowResult, FlowError> {
    let spec = config.spec();
    let mut run = Run::start(original, spec);
    // Fresh or checkpointed loop state.
    let (mut current, mut care, mut iterations) = match checkpoint {
        Some(cp) => {
            run.resumed_from = Some(cp.iterations as u64);
            run.history = cp.history;
            (cp.current, cp.care, cp.iterations)
        }
        None => (original.cleaned(), CareRounds::new(config), 0),
    };
    // Set when the budget's cancel token or deadline fires: the partial
    // iteration is rolled back and the run returns best-so-far with a
    // checkpoint instead of an error.
    let mut interrupt: Option<Interrupt> = None;
    let est_patterns = spec.estimation_patterns(original);

    // The fanout map is a pure function of `current`: build it once and
    // rebuild only after a LAC is actually applied, not on the retry paths
    // (empty candidate set / over budget) where the graph is unchanged.
    let mut fanouts = current.fanout_map();
    // The original's outputs on the fixed estimation patterns are simulated
    // once per run; `current` is swept afresh by every `estimate` phase.
    let original_est_outputs = Simulation::new(original, &est_patterns).output_words(original);
    // WCE mode: the threshold is an absolute maximum error distance, and
    // every acceptance is gated by a SAT query instead of trusting the
    // sampled estimate (which can only *under*-estimate a maximum).
    let wce_bound =
        (config.metric == ErrorMetric::Wce).then(|| config.threshold.min(u64::MAX as f64) as u64);

    while iterations < config.max_iterations {
        // Iteration-granular interrupt point: the cheapest place to stop,
        // with nothing to roll back.
        if let Some(cause) = config.budget.interrupted() {
            interrupt = Some(cause);
            break;
        }
        iterations += 1;
        let mut it = Iteration::new(iterations, care.rounds);
        // Fresh care patterns every iteration (Algorithm 3 line 3): the
        // care simulation is always a full sweep — new patterns mean no
        // previous values to reuse.
        let (care_patterns, care_sim) = it.time("care_sim", || {
            let seed = derive_indexed(config.seed, Stream::Care, iterations as u64);
            let patterns = spec.draw(current.num_inputs(), care.rounds, seed);
            let sim = Simulation::new(&current, &patterns);
            (patterns, sim)
        });
        let lacs = it.time("lac_gen", || {
            generate_lacs_with(
                &current,
                &care_sim,
                &care_patterns,
                &fanouts,
                &config.lac,
                &config.window,
            )
        });
        // Care simulation and LAC generation own most of an iteration, so
        // checking after them bounds interrupt latency. The half-done
        // iteration is rolled back: its patterns are a pure function of the
        // iteration index, so the resumed run redoes it bit-identically.
        if let Some(cause) = config.budget.interrupted() {
            iterations -= 1;
            interrupt = Some(cause);
            break;
        }
        if lacs.is_empty() {
            run.reject(&it, "no_candidates", 0);
            if care.no_candidates(config) {
                continue;
            }
            break;
        }

        let ranked = it.time("estimate", || {
            let sim = Simulation::new(&current, &est_patterns);
            Estimator::new(
                &original_est_outputs,
                &sim,
                &current,
                &est_patterns,
                &fanouts,
                config.metric,
            )
            .ranked_candidates(&lacs)
        });
        // Set when the WCE accept gate is interrupted mid-query: the answer
        // is wall-clock-nondeterministic, so the iteration is rolled back.
        let mut gate_interrupt: Option<Interrupt> = None;
        let choice = it.time("apply", || {
            ranked
                .iter()
                .find_map(|&(idx, error)| {
                    if error > config.threshold {
                        return Some(None); // best remaining over budget
                    }
                    // Skip size-increasing candidates: an area-minimization
                    // flow has nothing to gain from them, and on wide
                    // datapaths they can accumulate into net growth.
                    if lacs[idx].est_gain() < 0 {
                        return None;
                    }
                    // Skip the rare candidate whose materialized cover
                    // hashes onto its own fanout (would create a cycle).
                    let aig = lacs[idx].apply(&current).ok()?;
                    // The SAT accept gate of the WCE-constrained mode: a
                    // sampled max can miss the worst-case input, so a
                    // candidate only passes if `distance > bound` is UNSAT.
                    if let Some(bound) = wce_bound {
                        match certify::wce_gate(original, &aig, bound, &config.budget) {
                            WceGate::Within => {}
                            WceGate::Exceeds => {
                                trace::add("cert_candidate_rejects", 1);
                                return None; // certified over budget: try the next
                            }
                            // A deterministic SAT cap cut the proof short:
                            // accept on the sampled `error`, which passed the
                            // threshold above — the same decision on every
                            // machine; the final certificate records it.
                            WceGate::Degraded => {}
                            // Nondeterministic cut (cancel/deadline): stop
                            // scanning without letting the answer steer the
                            // accept decision.
                            WceGate::Interrupted => {
                                gate_interrupt = config.budget.interrupted();
                                return Some(None);
                            }
                        }
                    }
                    Some(Some((idx, error, aig)))
                })
                .flatten()
        });
        if let Some(cause) = gate_interrupt {
            // Same rollback as the post-lac-gen interrupt point: the
            // resumed run redoes this iteration from its own patterns.
            iterations -= 1;
            interrupt = Some(cause);
            break;
        }
        let Some((best_idx, best_error, applied_aig)) = choice else {
            run.reject(&it, "over_budget", lacs.len());
            if care.over_budget(config) {
                continue;
            }
            break;
        };
        care.accepted();
        let due = run.optimize_due();
        current = it.optimize(&mut run, due, applied_aig);
        fanouts = current.fanout_map();
        run.accept(&it, lacs.len(), &lacs[best_idx], best_error, &current);
    }

    // On interruption, snapshot the loop state *before* any further
    // transformation: the checkpoint must be exactly what the next loop
    // iteration would have seen.
    let interrupted = interrupt.map(|cause| {
        trace::add("flow_interrupts", 1);
        trace::add("checkpoints_written", 1);
        let checkpoint = Checkpoint {
            seed: config.seed,
            metric: config.metric,
            threshold: config.threshold,
            iterations,
            applied: run.history.len(),
            care,
            history: run.history.clone(),
            current: current.clone(),
        };
        (cause.to_string(), checkpoint)
    });
    // An interrupted run hands back promptly; the resumed run optimizes
    // at its own natural end.
    let completed = interrupted.is_none();
    if completed {
        current = run.optimize_rest(current);
    }
    // The certificate replaces trust in sampling: exact WCE for the
    // constrained mode, (possibly (ε, δ)-approximate) exact error rate on
    // request; NMED/MRED have none. Interrupted runs skip it: the budget
    // that fired would cut every query short anyway.
    run.finish(current, iterations, interrupted, |approx| {
        match config.metric {
            _ if !completed => None,
            ErrorMetric::Wce => Some(certify::certify_wce(original, approx, &config.budget)),
            ErrorMetric::ErrorRate if config.certify => Some(certify::certify_error_rate(
                original,
                approx,
                derive_seed(config.seed, Stream::Hashing),
                &config.budget,
            )),
            _ => None,
        }
    })
}

/// The flat JSON form of a certificate, shared between the `run_end`
/// telemetry record and `bench_cert`'s committed `BENCH_cert.json`.
/// Degraded certificates (SAT budget ran out mid-proof) carry
/// `status: "degraded"` plus the reason; certified ones carry
/// `status: "certified"`.
pub fn certified_record(cert: &CertifiedMeasurement) -> Obj {
    let record = Obj::new()
        .str("metric", &cert.metric.to_string())
        .f64("value", cert.value)
        .bool("exact", cert.exact)
        .f64("epsilon", cert.epsilon)
        .f64("delta", cert.delta)
        .u64("sat_queries", cert.sat_queries);
    match &cert.status {
        alsrac_metrics::CertStatus::Certified => record.str("status", "certified"),
        alsrac_metrics::CertStatus::Degraded { reason } => record
            .str("status", "degraded")
            .str("status_reason", reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_metrics::measure;
    use alsrac_sim::PatternBuffer;

    #[test]
    fn respects_error_rate_threshold() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(4);
        let config = FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.05,
            max_iterations: 300,
            ..FlowConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(
            result.measured.error_rate <= 0.05 + 1e-12,
            "measured {} > threshold",
            result.measured.error_rate
        );
        assert!(result.approx.num_ands() <= exact.num_ands());
    }

    #[test]
    fn saves_area_at_loose_threshold() {
        let exact = alsrac_circuits::arith::kogge_stone_adder(4);
        let config = FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.30,
            max_iterations: 400,
            ..FlowConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(
            result.approx.num_ands() < exact.num_ands(),
            "no savings: {} -> {}",
            exact.num_ands(),
            result.approx.num_ands()
        );
        assert!(result.applied > 0);
    }

    #[test]
    fn nmed_constraint_is_respected() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(4);
        let config = FlowConfig {
            metric: ErrorMetric::Nmed,
            threshold: 0.02,
            max_iterations: 300,
            ..FlowConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        assert!(result.measured.nmed.expect("decodable") <= 0.02 + 1e-12);
    }

    #[test]
    fn tighter_thresholds_keep_more_area() {
        let exact = alsrac_circuits::arith::wallace_multiplier(3);
        let area_at = |threshold: f64| {
            let config = FlowConfig {
                metric: ErrorMetric::ErrorRate,
                threshold,
                max_iterations: 250,
                ..FlowConfig::default()
            };
            run(&exact, &config).expect("flow").approx.num_ands()
        };
        let tight = area_at(0.005);
        let loose = area_at(0.25);
        assert!(
            loose <= tight,
            "loose threshold produced a larger circuit: {loose} > {tight}"
        );
    }

    #[test]
    fn history_errors_are_monotone_enough() {
        // Estimated error of accepted LACs never exceeds the threshold.
        let exact = alsrac_circuits::arith::ripple_carry_adder(3);
        let config = FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.10,
            max_iterations: 200,
            ..FlowConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        for rec in &result.history {
            assert!(rec.estimated_error <= 0.10 + 1e-12);
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let exact = alsrac_circuits::arith::kogge_stone_adder(3);
        let config = FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.08,
            max_iterations: 150,
            seed: 42,
            ..FlowConfig::default()
        };
        let a = run(&exact, &config).expect("flow");
        let b = run(&exact, &config).expect("flow");
        assert_eq!(a.approx.num_ands(), b.approx.num_ands());
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.measured.error_rate, b.measured.error_rate);
    }

    #[test]
    fn wce_flow_respects_certified_bound() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(4);
        let bound = 3u64;
        let config = FlowConfig {
            metric: ErrorMetric::Wce,
            threshold: bound as f64,
            max_iterations: 200,
            ..FlowConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        let cert = result.certificate.expect("WCE mode always certifies");
        assert_eq!(cert.metric, ErrorMetric::Wce);
        assert!(cert.exact);
        assert!(
            cert.value <= bound as f64,
            "certified WCE {} exceeds bound {bound}",
            cert.value
        );
        // The certificate must agree with exhaustive simulation.
        let patterns = PatternBuffer::exhaustive(exact.num_inputs());
        let measured = measure(&exact, &result.approx, &patterns).expect("measure");
        assert_eq!(
            cert.value,
            measured.max_error_distance.expect("decodable") as f64
        );
    }

    #[test]
    fn certify_flag_produces_exact_error_rate_certificate() {
        let exact = alsrac_circuits::arith::kogge_stone_adder(3);
        let config = FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.10,
            max_iterations: 150,
            certify: true,
            ..FlowConfig::default()
        };
        let result = run(&exact, &config).expect("flow");
        let cert = result.certificate.expect("certify requested");
        assert_eq!(cert.metric, ErrorMetric::ErrorRate);
        assert!(cert.exact, "6 inputs: enumeration must complete");
        // Exhaustive measurement is the ground truth at 6 inputs.
        let patterns = PatternBuffer::exhaustive(exact.num_inputs());
        let measured = measure(&exact, &result.approx, &patterns).expect("measure");
        assert_eq!(cert.value, measured.error_rate);
    }

    #[test]
    fn rejects_degenerate_circuits() {
        let aig = Aig::new("empty");
        let err = run(&aig, &FlowConfig::default()).expect_err("degenerate");
        assert!(matches!(err, FlowError::DegenerateCircuit { .. }));
    }

    #[test]
    fn biased_inputs_shift_acceptable_changes() {
        // With inputs almost always 0, errors that only show under 1s are
        // nearly free: the flow should cut deeper than under uniform
        // inputs for the same budget — and the (biased) measured error
        // must still honour the threshold.
        let exact = alsrac_circuits::arith::wallace_multiplier(3);
        let base = FlowConfig {
            metric: ErrorMetric::ErrorRate,
            threshold: 0.02,
            max_iterations: 250,
            ..FlowConfig::default()
        };
        let uniform = run(&exact, &base).expect("flow");
        let biased_cfg = FlowConfig {
            input_bias: Some(vec![0.05; 6]),
            ..base
        };
        let biased = run(&exact, &biased_cfg).expect("flow");
        assert!(biased.measured.error_rate <= 0.02 * 1.2 + 1e-12);
        assert!(
            biased.approx.num_ands() <= uniform.approx.num_ands(),
            "biased {} vs uniform {}",
            biased.approx.num_ands(),
            uniform.approx.num_ands()
        );
    }

    #[test]
    fn rejects_invalid_bias() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(2);
        let cfg = FlowConfig {
            input_bias: Some(vec![1.5; 4]),
            ..FlowConfig::default()
        };
        let err = run(&exact, &cfg).expect_err("bad bias");
        assert!(matches!(
            err,
            FlowError::InvalidConfig {
                parameter: "input_bias",
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_config() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(2);
        for (cfg, param) in [
            (
                FlowConfig {
                    threshold: 0.0,
                    ..FlowConfig::default()
                },
                "threshold",
            ),
            (
                FlowConfig {
                    shrink: 1.5,
                    ..FlowConfig::default()
                },
                "shrink",
            ),
            (
                FlowConfig {
                    initial_rounds: 0,
                    ..FlowConfig::default()
                },
                "initial_rounds",
            ),
            (
                FlowConfig {
                    est_rounds: 0,
                    ..FlowConfig::default()
                },
                "est_rounds",
            ),
            (
                FlowConfig {
                    measure_rounds: 0,
                    ..FlowConfig::default()
                },
                "measure_rounds",
            ),
        ] {
            let err = run(&exact, &cfg).expect_err(param);
            assert!(
                matches!(err, FlowError::InvalidConfig { parameter, .. } if parameter == param)
            );
        }
    }

    #[test]
    fn rejects_distance_metric_on_wide_circuits() {
        let mut aig = Aig::new("wide");
        let a = aig.add_input("a");
        for i in 0..70 {
            aig.add_output(format!("y{i}"), a.complement_if(i % 2 == 0));
        }
        let config = FlowConfig {
            metric: ErrorMetric::Nmed,
            ..FlowConfig::default()
        };
        let err = run(&aig, &config).expect_err("too wide");
        assert!(matches!(err, FlowError::MetricUnavailable { .. }));
    }

    /// `t = 2`, `N₀ = 4` (so the ceiling is 16) and `r = 0.5`.
    fn care_config() -> FlowConfig {
        FlowConfig {
            initial_rounds: 4,
            patience: 2,
            shrink: 0.5,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn empty_iterations_shrink_the_care_rounds_after_patience() {
        let config = FlowConfig {
            initial_rounds: 32,
            patience: 3,
            shrink: 0.9,
            ..FlowConfig::default()
        };
        let mut care = CareRounds::new(&config);
        assert!(care.no_candidates(&config));
        assert!(care.no_candidates(&config));
        assert_eq!(care.rounds, 32);
        assert!(care.no_candidates(&config));
        assert_eq!((care.rounds, care.empty_streak), (28, 0), "⌊32 · 0.9⌋");
        // ⌊N · r⌋ is clamped to [1, N − 1].
        for (from, shrink, to) in [(10, 0.99, 9), (2, 0.3, 1), (1, 0.9, 1)] {
            let config = FlowConfig {
                patience: 1,
                shrink,
                ..FlowConfig::default()
            };
            let mut care = CareRounds {
                rounds: from,
                ..CareRounds::default()
            };
            care.no_candidates(&config);
            assert_eq!(care.rounds, to, "{from} · {shrink}");
        }
    }

    #[test]
    fn over_budget_iterations_double_the_care_rounds_up_to_four_times_the_start() {
        let config = FlowConfig {
            initial_rounds: 32,
            patience: 3,
            ..FlowConfig::default()
        };
        let mut care = CareRounds::new(&config);
        let rounds: Vec<usize> = (0..9)
            .map(|_| {
                assert!(care.over_budget(&config));
                care.rounds
            })
            .collect();
        assert_eq!(rounds, [32, 32, 64, 64, 64, 128, 128, 128, 128]);
        let mut care = CareRounds {
            rounds: 100,
            ..CareRounds::default()
        };
        (0..3).for_each(|_| assert!(care.over_budget(&config)));
        assert_eq!(care.rounds, 128);
    }

    #[test]
    fn runs_give_up_after_six_patience_at_a_limit_or_twenty_anywhere() {
        let config = care_config();
        // Floor: N shrinks 4 → 2 → 1; 6·t fruitless iterations in all.
        let mut care = CareRounds::new(&config);
        let floor = (1..).find(|_| !care.no_candidates(&config));
        assert_eq!((floor, care.rounds), (Some(12), 1));
        // Ceiling: N grows 4 → 8 → 16.
        let mut care = CareRounds::new(&config);
        let ceiling = (1..).find(|_| !care.over_budget(&config));
        assert_eq!((ceiling, care.rounds), (Some(12), 16));
        // Anywhere: N ping-pongs between 4 and 2, never at a limit.
        let mut care = CareRounds::new(&config);
        let anywhere = (1..).find(|i| match i % 4 {
            1 | 2 => !care.no_candidates(&config),
            _ => !care.over_budget(&config),
        });
        assert_eq!((anywhere, care.rounds), (Some(40), 4));
    }

    #[test]
    fn a_patience_no_run_reaches_keeps_n_fixed_and_never_gives_up() {
        // The ablation's fixed-`N` arm: `20·t` must saturate, not overflow.
        let config = FlowConfig {
            patience: usize::MAX / 8,
            ..FlowConfig::default()
        };
        let mut care = CareRounds::new(&config);
        (0..50).for_each(|_| assert!(care.no_candidates(&config)));
        (0..50).for_each(|_| assert!(care.over_budget(&config)));
        assert_eq!(care.rounds, config.initial_rounds);
        let mut floor = CareRounds {
            rounds: 1,
            ..CareRounds::default()
        };
        assert!(floor.no_candidates(&config));
    }

    #[test]
    fn an_accept_resets_the_streaks_whatever_it_saved() {
        // `accepted` is told nothing about the AND count, so a zero-gain
        // accept (deviation D2) keeps a stuck run going like any other.
        let config = care_config();
        let mut care = CareRounds::new(&config);
        (0..11).for_each(|_| assert!(care.over_budget(&config)));
        care.accepted();
        let reset = CareRounds {
            rounds: 16,
            ..CareRounds::default()
        };
        assert_eq!(care, reset);
        (0..11).for_each(|_| assert!(care.over_budget(&config)));
        assert!(!care.over_budget(&config));
    }
}
