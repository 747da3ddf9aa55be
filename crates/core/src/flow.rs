//! The ALSRAC flow (Algorithm 3 of the paper).

use alsrac_aig::Aig;
use alsrac_metrics::{measure, measure_auto, CertifiedMeasurement, ErrorMetric, Measurement};
use alsrac_rt::budget::{Budget, Interrupt};
use alsrac_rt::json::Obj;
use alsrac_rt::{derive_indexed, derive_seed, trace, Stream};
use alsrac_sim::{PatternBuffer, Simulation};

use crate::certify::{self, WceGate};
use crate::checkpoint::Checkpoint;
use crate::estimate::Estimator;
use crate::lac::{generate_lacs_with, Lac, LacConfig};
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
    fn validate(&self) -> Result<(), FlowError> {
        if self.threshold.is_nan() || self.threshold <= 0.0 {
            return Err(FlowError::InvalidConfig {
                parameter: "threshold",
                reason: "must be positive".to_string(),
            });
        }
        if !(self.shrink > 0.0 && self.shrink < 1.0) {
            return Err(FlowError::InvalidConfig {
                parameter: "shrink",
                reason: format!("must be in (0, 1), got {}", self.shrink),
            });
        }
        if self.initial_rounds == 0 {
            return Err(FlowError::InvalidConfig {
                parameter: "initial_rounds",
                reason: "must be positive".to_string(),
            });
        }
        if self.patience == 0 {
            return Err(FlowError::InvalidConfig {
                parameter: "patience",
                reason: "must be positive".to_string(),
            });
        }
        // Zero-pattern estimation/measurement buffers make every comparison
        // vacuous (0 error lanes over 0 patterns), so every candidate would
        // silently pass the threshold check. Reject up front.
        if self.est_rounds == 0 {
            return Err(FlowError::InvalidConfig {
                parameter: "est_rounds",
                reason: "must be positive".to_string(),
            });
        }
        if self.measure_rounds == 0 {
            return Err(FlowError::InvalidConfig {
                parameter: "measure_rounds",
                reason: "must be positive".to_string(),
            });
        }
        if let Some(bias) = &self.input_bias {
            if bias.iter().any(|p| !(0.0..=1.0).contains(p)) {
                return Err(FlowError::InvalidConfig {
                    parameter: "input_bias",
                    reason: "probabilities must be in [0, 1]".to_string(),
                });
            }
        }
        Ok(())
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
    preflight(original, config)?;
    run_from(original, config, None, None)
}

/// [`run`] with a caller-provided exhaustive estimation-pattern buffer.
///
/// Multi-tenant drivers (`alsrac::serve`) run many flows over the same
/// small circuits; the exhaustive estimation buffer for an `n`-input
/// circuit is identical for every such flow, so they build it once and
/// share it via `Arc`. The buffer is used only when this run would build
/// the identical buffer itself (uniform input distribution, `n ≤`
/// [`EXHAUSTIVE_ESTIMATION_LIMIT`], matching input/pattern counts) —
/// otherwise it is ignored and the flow draws its own patterns, so the
/// result is bit-identical to [`run`] in every case. `shared_est` must be
/// `PatternBuffer::exhaustive(original.num_inputs())`; passing any other
/// buffer of the same shape violates the determinism contract.
///
/// # Errors
///
/// Exactly [`run`]'s errors.
pub fn run_shared(
    original: &Aig,
    config: &FlowConfig,
    shared_est: Option<&PatternBuffer>,
) -> Result<FlowResult, FlowError> {
    preflight(original, config)?;
    run_from(original, config, None, shared_est)
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
    preflight(original, config)?;
    let mismatch = |reason: String| Err(FlowError::Checkpoint { reason });
    if checkpoint.seed != config.seed {
        return mismatch(format!(
            "seed mismatch: checkpoint {}, config {}",
            checkpoint.seed, config.seed
        ));
    }
    if checkpoint.metric != config.metric {
        return mismatch(format!(
            "metric mismatch: checkpoint {}, config {}",
            checkpoint.metric, config.metric
        ));
    }
    if checkpoint.threshold.to_bits() != config.threshold.to_bits() {
        return mismatch(format!(
            "threshold mismatch: checkpoint {}, config {}",
            checkpoint.threshold, config.threshold
        ));
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
    run_from(original, config, Some(checkpoint), None)
}

/// Shared validation of [`run`] and [`resume`].
fn preflight(original: &Aig, config: &FlowConfig) -> Result<(), FlowError> {
    config.validate()?;
    check_circuit(original, config.metric)
}

/// The circuit checks every search loop (ALSRAC, Su, Liu) runs first:
/// [`FlowError::DegenerateCircuit`] without inputs or outputs, and
/// [`FlowError::MetricUnavailable`] for a distance metric on more than 63
/// outputs.
pub(crate) fn check_circuit(original: &Aig, metric: ErrorMetric) -> Result<(), FlowError> {
    if original.num_inputs() == 0 || original.num_outputs() == 0 {
        return Err(FlowError::DegenerateCircuit {
            inputs: original.num_inputs(),
            outputs: original.num_outputs(),
        });
    }
    if metric != ErrorMetric::ErrorRate && original.num_outputs() > 63 {
        return Err(FlowError::MetricUnavailable {
            reason: format!(
                "{} needs integer-decodable outputs, circuit has {}",
                metric,
                original.num_outputs()
            ),
        });
    }
    Ok(())
}

/// The loop body shared by [`run`] (fresh state) and [`resume`]
/// (checkpointed state).
fn run_from(
    original: &Aig,
    config: &FlowConfig,
    checkpoint: Option<Checkpoint>,
    shared_est: Option<&PatternBuffer>,
) -> Result<FlowResult, FlowError> {
    // Telemetry: every record of this run is stamped with a process-unique
    // id so concurrently running flows (pool workers in the table
    // binaries) stay separable in the shared JSONL sink. All span/record
    // work below is inert when no sink is installed.
    let run_id = trace::next_run_id();
    let flow_span = trace::span("flow");
    if trace::is_enabled() {
        trace::emit(run_start_record(
            run_id,
            "alsrac",
            original,
            config.seed,
            config.metric,
            config.threshold,
        ));
    }

    // Fresh state or the checkpointed loop state. The carried estimation
    // simulation is deliberately NOT part of a checkpoint: the incremental
    // engine is exact, so rebuilding it from scratch below is
    // bit-identical to the state the interrupted run carried.
    let resumed_from = checkpoint.as_ref().map(|cp| cp.iterations as u64);
    let (mut current, mut rounds, mut empty_streak, mut over_streak, mut stuck_streak);
    let (mut applied, mut history, mut iterations);
    match checkpoint {
        Some(cp) => {
            current = cp.current;
            rounds = cp.rounds;
            empty_streak = cp.empty_streak;
            over_streak = cp.over_streak;
            stuck_streak = cp.stuck_streak;
            applied = cp.applied;
            history = cp.history;
            iterations = cp.iterations;
        }
        None => {
            current = original.cleaned();
            rounds = config.initial_rounds;
            empty_streak = 0;
            over_streak = 0;
            stuck_streak = 0;
            applied = 0;
            history = Vec::new();
            iterations = 0;
        }
    }
    let max_rounds = config.initial_rounds * 4;
    // Set when the budget's cancel token or deadline fires: the loop
    // stops, the partial iteration (if any) is rolled back, and the run
    // returns best-so-far with a checkpoint instead of an error.
    let mut interrupt: Option<Interrupt> = None;

    let draw = |n: usize, rounds: usize, seed: u64| -> PatternBuffer {
        match &config.input_bias {
            Some(bias) => PatternBuffer::biased(n, rounds, bias, seed),
            None => PatternBuffer::random(n, rounds, seed),
        }
    };
    // Exhaustive estimation is only unbiased under the uniform
    // distribution; biased flows always sample. A shared buffer is
    // accepted only when it matches the exhaustive buffer this run would
    // build itself, so sharing can never change a result.
    let exhaustive_est =
        config.input_bias.is_none() && original.num_inputs() <= EXHAUSTIVE_ESTIMATION_LIMIT;
    let shared_est = shared_est.filter(|p| {
        exhaustive_est
            && p.num_inputs() == original.num_inputs()
            && p.num_patterns() == 1usize << original.num_inputs()
    });
    let owned_est;
    let est_patterns: &PatternBuffer = match shared_est {
        Some(shared) => shared,
        None => {
            owned_est = if exhaustive_est {
                PatternBuffer::exhaustive(original.num_inputs())
            } else {
                draw(
                    original.num_inputs(),
                    config.est_rounds,
                    derive_seed(config.seed, Stream::Estimation),
                )
            };
            &owned_est
        }
    };

    // The fanout map is a pure function of `current`: build it once and
    // rebuild only after a LAC is actually applied, not on the retry paths
    // (empty candidate set / over budget) where the graph is unchanged.
    let mut fanouts = current.fanout_map();
    // The estimation patterns are fixed for the whole run and the original
    // circuit never changes, so its reference output words are simulated
    // exactly once. The current circuit's estimation simulation is carried
    // across iterations and updated cone-locally on accepted LACs; it is
    // `None` only while an optimize pass has invalidated it (sweeping the
    // optimized circuit eagerly instead would keep a simulation alive
    // through the next `lac_gen`, which raises the flow's peak heap).
    let original_est_outputs = Simulation::new(original, est_patterns).output_words(original);
    let mut est_sim: Option<Simulation> = None;
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
        // Fresh care patterns every iteration (Algorithm 3 line 3): the
        // care simulation is always a full sweep — new patterns mean no
        // previous values to reuse.
        let care_span = trace::span("care_sim");
        let care_patterns = draw(
            current.num_inputs(),
            rounds,
            derive_indexed(config.seed, Stream::Care, iterations as u64),
        );
        let care_sim = Simulation::new(&current, &care_patterns);
        let care_ns = care_span.finish();
        let lac_span = trace::span("lac_gen");
        let lacs = generate_lacs_with(
            &current,
            &care_sim,
            &care_patterns,
            &fanouts,
            &config.lac,
            &config.window,
        );
        let lac_ns = lac_span.finish();
        // Window-granular interrupt point: care simulation + windowed LAC
        // generation dominate an iteration's wall clock, so checking right
        // after them bounds interrupt latency without instrumenting inner
        // loops. The half-done iteration is rolled back — its patterns are
        // a pure function of the iteration index, so the resumed run
        // redoes it bit-identically.
        if let Some(cause) = config.budget.interrupted() {
            iterations -= 1;
            interrupt = Some(cause);
            break;
        }

        if lacs.is_empty() {
            if trace::is_enabled() {
                trace::emit(
                    rejected_record(run_id, iterations, "no_candidates", 0, rounds).obj(
                        "phase_ns",
                        Obj::new().u64("care_sim", care_ns).u64("lac_gen", lac_ns),
                    ),
                );
            }
            // Empty candidate set: the care set is too large — retry with
            // fresh patterns, shrinking N after `t` consecutive failures
            // (Algorithm 3 lines 3/10).
            empty_streak += 1;
            stuck_streak += 1;
            if empty_streak >= config.patience {
                let shrunk = ((rounds as f64) * config.shrink) as usize;
                rounds = shrunk.clamp(1, rounds.saturating_sub(1).max(1));
                empty_streak = 0;
            }
            // Give up once N has hit its floor and fresh pattern draws
            // keep coming up empty — or after a long fruitless stretch
            // regardless (shrink/grow ping-pong must not loop forever).
            if (rounds == 1 && stuck_streak >= config.patience * 6)
                || stuck_streak >= config.patience * 20
            {
                break;
            }
            continue;
        }
        empty_streak = 0;

        let est_span = trace::span("estimate");
        // Reuse the carried estimation simulation of `current`, or sweep
        // once after an optimize pass invalidated it.
        let estimator = Estimator::with_state(
            &original_est_outputs,
            est_sim
                .take()
                .unwrap_or_else(|| Simulation::new(&current, est_patterns)),
            &current,
            est_patterns,
            &fanouts,
            config.metric,
        );
        let Some(ranked) = estimator.ranked_candidates(&lacs) else {
            break; // metric not evaluable — cannot happen after the arity check
        };
        let est_ns = est_span.finish();
        let apply_span = trace::span("apply");
        // Set when the WCE accept gate is interrupted mid-query: the
        // solver's answer is wall-clock-nondeterministic, so it must not
        // influence the accept decision — the iteration is rolled back
        // below instead.
        let mut gate_interrupt: Option<Interrupt> = None;
        let choice = ranked
            .iter()
            .find_map(|&(idx, m)| {
                // `ranked_candidates` returned Some, which it only does
                // when the metric is evaluable on this circuit (the arity
                // preflight guarantees it); a per-candidate None here is
                // impossible, but skipping the candidate is strictly safer
                // than panicking mid-flow.
                let error = m.value(config.metric)?;
                if error > config.threshold {
                    return Some(None); // best remaining over budget
                }
                // Skip size-increasing candidates: an area-minimization flow
                // has nothing to gain from them, and on wide datapaths they
                // can accumulate into net growth.
                if lacs[idx].est_gain() < 0 {
                    return None;
                }
                // Skip the rare candidate whose materialized cover hashes onto
                // its own fanout (would create a cycle).
                let (aig, delta) = lacs[idx].apply_with_delta(&current, &fanouts).ok()?;
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
                        // degrade to the sampled-measurement path. The
                        // sampled `error` already passed the threshold
                        // check above, so accept on it — same decision on
                        // every machine, just without the SAT guarantee
                        // (the final certificate records the degradation).
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
                Some(Some((idx, error, aig, delta)))
            })
            .flatten();
        let apply_ns = apply_span.finish();
        if let Some(cause) = gate_interrupt {
            // Same rollback as the post-lac-gen interrupt point: the
            // resumed run redoes this iteration from its own patterns.
            iterations -= 1;
            interrupt = Some(cause);
            break;
        }
        let Some((best_idx, best_error, applied_aig, delta)) = choice else {
            // Nothing applied: `current` is unchanged, so its estimation
            // simulation is still valid for the next iteration.
            est_sim = Some(estimator.into_simulation());
            if trace::is_enabled() {
                trace::emit(
                    rejected_record(run_id, iterations, "over_budget", lacs.len(), rounds).obj(
                        "phase_ns",
                        Obj::new()
                            .u64("care_sim", care_ns)
                            .u64("lac_gen", lac_ns)
                            .u64("estimate", est_ns)
                            .u64("apply", apply_ns),
                    ),
                );
            }
            // The literal Algorithm 3 breaks here (line 7). On wide-input
            // circuits the first feasible candidates can be poor while a
            // different pattern draw — or a *larger* care set — still has
            // in-budget candidates, so we retry instead, growing N after
            // `t` consecutive over-budget rounds (deviation D1, DESIGN.md)
            // and stopping only after sustained failure.
            over_streak += 1;
            stuck_streak += 1;
            if over_streak >= config.patience {
                rounds = (rounds * 2).min(max_rounds);
                over_streak = 0;
            }
            // Give up once N has hit its ceiling and candidates are still
            // over budget — or after a long fruitless stretch regardless.
            if (rounds >= max_rounds && stuck_streak >= config.patience * 6)
                || stuck_streak >= config.patience * 20
            {
                break;
            }
            continue;
        };
        over_streak = 0;
        stuck_streak = 0;
        applied += 1;
        let optimized_now =
            config.optimize_after_apply && applied.is_multiple_of(config.optimize_period.max(1));
        // Cone-local resimulation: only nodes in the substitution's TFO are
        // re-evaluated; everything else is copied from the carried
        // simulation. Skipped when an optimize pass follows: the optimizer
        // restructures the graph arbitrarily, so the next iteration could
        // not reuse the result. (The estimator borrows `current` until
        // consumed.)
        let sim_update_span = trace::span("sim_update");
        est_sim = (!optimized_now).then(|| {
            estimator
                .into_simulation()
                .update(&applied_aig, &delta, est_patterns)
        });
        let sim_update_ns = sim_update_span.finish();
        current = applied_aig;
        let opt_span = trace::span("optimize");
        if optimized_now {
            current = alsrac_synth::optimize(&current);
        }
        let opt_ns = opt_span.finish();
        fanouts = current.fanout_map();
        history.push(IterationRecord {
            estimated_error: best_error,
            ands: current.num_ands(),
            rounds,
        });
        if trace::is_enabled() {
            // `est_error` is the same f64 as the history entry above, so the
            // JSONL value round-trips bit-for-bit against `FlowResult`.
            trace::emit(
                accepted_record(
                    run_id,
                    iterations,
                    lacs.len(),
                    rounds,
                    &lacs[best_idx],
                    best_error,
                    &current,
                )
                .obj(
                    "phase_ns",
                    Obj::new()
                        .u64("care_sim", care_ns)
                        .u64("lac_gen", lac_ns)
                        .u64("estimate", est_ns)
                        .u64("apply", apply_ns)
                        .u64("sim_update", sim_update_ns)
                        .u64("optimize", opt_ns),
                ),
            );
        }
    }

    // On interruption, snapshot the loop state *before* any further
    // transformation: the checkpoint must be exactly what the next loop
    // iteration would have seen.
    let checkpoint_out = interrupt.as_ref().map(|_| {
        trace::add("flow_interrupts", 1);
        trace::add("checkpoints_written", 1);
        Checkpoint {
            seed: config.seed,
            metric: config.metric,
            threshold: config.threshold,
            iterations,
            applied,
            rounds,
            empty_streak,
            over_streak,
            stuck_streak,
            history: history.clone(),
            current: current.clone(),
        }
    });

    // Final optimize only when some accepted LACs are still unoptimized:
    // an untouched circuit (applied == 0) or a loop that ended exactly on
    // an optimize_period boundary has nothing left to clean up. Skipped on
    // interruption — hand back promptly; the resumed run optimizes at its
    // own natural end.
    if interrupt.is_none()
        && config.optimize_after_apply
        && applied > 0
        && !applied.is_multiple_of(config.optimize_period.max(1))
    {
        current = alsrac_synth::optimize(&current);
    }
    let measure_span = trace::span("measure");
    let measure_seed = derive_seed(config.seed, Stream::Measurement);
    let measured = match &config.input_bias {
        Some(bias) => {
            let patterns = PatternBuffer::biased(
                original.num_inputs(),
                config.measure_rounds,
                bias,
                measure_seed,
            );
            measure(original, &current, &patterns)?
        }
        None => measure_auto(original, &current, config.measure_rounds, measure_seed)?,
    };
    let measure_ns = measure_span.finish();
    // The certificate replaces trust in sampling: exact WCE for the
    // constrained mode, (possibly (ε, δ)-approximate) exact error rate on
    // request. NMED/MRED have no counting-based certificate. Interrupted
    // runs skip certification entirely — the budget that fired would cut
    // every query short anyway — and runs whose SAT caps starve the proof
    // get a `Degraded` certificate whose value degrades to the sampled
    // measurement.
    let certificate = if interrupt.is_some() {
        None
    } else {
        match config.metric {
            ErrorMetric::Wce => Some(certify::certify_wce_budgeted(
                original,
                &current,
                &config.budget,
            )),
            ErrorMetric::ErrorRate if config.certify => Some(certify::certify_error_rate_budgeted(
                original,
                &current,
                derive_seed(config.seed, Stream::Hashing),
                &config.budget,
            )),
            _ => None,
        }
    };
    let certificate = certificate.map(|mut cert| {
        if !cert.status.is_certified() {
            if let Some(sampled) = measured.value(config.metric) {
                cert.value = sampled;
            }
        }
        cert
    });
    let outcome = match &interrupt {
        Some(cause) => FlowOutcome::Interrupted {
            reason: cause.to_string(),
        },
        None => FlowOutcome::Completed,
    };
    let wall_ns = flow_span.finish();
    if trace::is_enabled() {
        trace::emit(run_end_record(
            run_id,
            iterations,
            applied,
            &current,
            wall_ns,
            measure_ns,
            &measured,
            certificate.as_ref(),
            &outcome,
            resumed_from,
        ));
    }
    Ok(FlowResult {
        approx: current,
        iterations,
        applied,
        measured,
        certificate,
        history,
        outcome,
        checkpoint: checkpoint_out,
    })
}

/// The `run_start` telemetry record: run identity plus the exact circuit
/// and constraint the flow starts from. Shared with the baseline flows so
/// every JSONL sink speaks one schema (DESIGN.md "Telemetry").
pub(crate) fn run_start_record(
    run: u64,
    flow: &str,
    original: &Aig,
    seed: u64,
    metric: ErrorMetric,
    threshold: f64,
) -> Obj {
    Obj::new()
        .str("type", "run_start")
        .u64("run", run)
        .str("flow", flow)
        .str("circuit", original.name())
        .u64("seed", seed)
        .str("metric", &metric.to_string())
        .f64("threshold", threshold)
        .u64("inputs", original.num_inputs() as u64)
        .u64("outputs", original.num_outputs() as u64)
        .u64("ands", original.num_ands() as u64)
        .u64("depth", u64::from(original.depth()))
}

/// The `run_end` telemetry record. The `measured` sub-object carries the
/// same f64s the caller gets back in [`FlowResult::measured`], so the JSONL
/// values round-trip bit-for-bit against the in-process result; the
/// optional `certified` sub-object does the same for
/// [`FlowResult::certificate`]. Interrupted runs additionally carry
/// `outcome: "interrupted"` and an `interrupt_reason`; resumed runs carry
/// `resumed_from` (the checkpoint's iteration count).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_end_record(
    run: u64,
    iterations: usize,
    applied: usize,
    current: &Aig,
    wall_ns: u64,
    measure_ns: u64,
    measured: &Measurement,
    certificate: Option<&CertifiedMeasurement>,
    outcome: &FlowOutcome,
    resumed_from: Option<u64>,
) -> Obj {
    let mut record = Obj::new()
        .str("type", "run_end")
        .u64("run", run)
        .u64("iterations", iterations as u64)
        .u64("applied", applied as u64)
        .u64("ands", current.num_ands() as u64)
        .u64("depth", u64::from(current.depth()))
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
    match outcome {
        FlowOutcome::Completed => record = record.str("outcome", "completed"),
        FlowOutcome::Interrupted { reason } => {
            record = record
                .str("outcome", "interrupted")
                .str("interrupt_reason", reason);
        }
    }
    if let Some(at) = resumed_from {
        record = record.u64("resumed_from", at);
    }
    if let Some(cert) = certificate {
        record = record.obj("certified", certified_record(cert));
    }
    record
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

/// Common fields of a rejected-iteration telemetry record; the caller
/// attaches the `phase_ns` object for the phases that actually ran. Shared
/// with the baseline flows so every JSONL sink speaks one schema.
pub(crate) fn rejected_record(
    run: u64,
    iter: usize,
    reason: &str,
    candidates: usize,
    rounds: usize,
) -> Obj {
    Obj::new()
        .str("type", "iteration")
        .u64("run", run)
        .u64("iter", iter as u64)
        .bool("accepted", false)
        .str("reason", reason)
        .u64("candidates", candidates as u64)
        .u64("rounds", rounds as u64)
}

/// Common fields of an accepted-iteration telemetry record: the committed
/// LAC, its estimated error, and the circuit after apply (and optimize,
/// when one ran). Like [`rejected_record`], the caller attaches
/// `phase_ns`; shared with the baseline flows.
pub(crate) fn accepted_record(
    run: u64,
    iter: usize,
    candidates: usize,
    rounds: usize,
    lac: &Lac,
    est_error: f64,
    current: &Aig,
) -> Obj {
    Obj::new()
        .str("type", "iteration")
        .u64("run", run)
        .u64("iter", iter as u64)
        .bool("accepted", true)
        .u64("candidates", candidates as u64)
        .u64("rounds", rounds as u64)
        .str("lac", &lac.kind())
        .f64("est_error", est_error)
        .i64("gain", lac.est_gain() as i64)
        .u64("ands", current.num_ands() as u64)
        .u64("depth", u64::from(current.depth()))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
