//! Running a job and checking its output.
//!
//! A job fails when `flow::run` returns an error or panics, when an
//! independent measurement puts the final error over the threshold, when
//! a rerun produces a different result, or when a probed optimizer pass
//! changes the function of its input.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use alsrac::certify;
use alsrac::flow::{self, FlowResult};
use alsrac_aig::Aig;
use alsrac_bench::CERT_WILSON_Z;
use alsrac_metrics::{
    measure, measure_sampled, wilson_interval, ErrorMetric, EXHAUSTIVE_INPUT_LIMIT,
};
use alsrac_rt::{derive_seed, pool, Stream};
use alsrac_sat::cec::{self, CecResult};
use alsrac_sim::PatternBuffer;

use crate::workload::Job;

/// Sampled patterns of the independent error measurement above
/// [`EXHAUSTIVE_INPUT_LIMIT`] inputs.
const CHECK_ROUNDS: usize = 100_000;
/// Largest circuit the optimizer-pass check proves with the SAT miter;
/// larger ones are compared on [`EQUIV_ROUNDS`] sampled patterns.
/// Multiplier miters are hard for the solver: a 12x12 array multiplier
/// (1,272 ANDs) did not finish in five minutes.
const CEC_AND_LIMIT: usize = 1_000;
/// Sampled patterns of the equivalence check above [`CEC_AND_LIMIT`].
const EQUIV_ROUNDS: usize = 8_192;

/// One `flow::run` call: its wall time and what it returned.
pub struct Run {
    /// Wall seconds of the call.
    pub secs: f64,
    /// The result, or why the call failed.
    pub outcome: Result<FlowResult, String>,
}

/// Runs `job` on a pool of `threads` workers, timing only `flow::run`.
pub fn run_job(job: &Job, threads: usize) -> Run {
    let start = Instant::now();
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        pool::with_threads(threads, || flow::run(&job.original, &job.config))
    }));
    let secs = start.elapsed().as_secs_f64();
    let outcome = match caught {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(error)) => Err(format!("flow error: {error}")),
        Err(payload) => Err(format!("flow panicked: {}", panic_message(&*payload))),
    };
    Run { secs, outcome }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A hash of everything a deterministic run must reproduce: the final
/// AIG, the history, the measurement and the certificate.
pub fn fingerprint(result: &FlowResult) -> u64 {
    let mut hasher = DefaultHasher::new();
    alsrac_circuits::aiger::write_binary(&result.approx).hash(&mut hasher);
    format!(
        "{} {} {:?} {:?} {:?} {:?}",
        result.iterations,
        result.applied,
        result.history,
        result.measured,
        result.certificate,
        result.outcome
    )
    .hash(&mut hasher);
    hasher.finish()
}

/// Measures the final error of `result` independently of the flow and
/// fails the job when it is over the threshold. On success, returns what
/// it measured.
///
/// * WCE: the SAT gate `certify::wce_within` at the bound.
/// * At most [`EXHAUSTIVE_INPUT_LIMIT`] inputs: exhaustive simulation,
///   over the threshold at all is a failure.
/// * ER above that: [`CHECK_ROUNDS`] patterns; a failure when the upper
///   end of the Wilson interval at [`CERT_WILSON_Z`] is over the
///   threshold, i.e. the sample cannot show the error within budget at
///   that confidence.
/// * NMED/MRED above that: the experiment harness's 110% rule.
///
/// The sampled patterns come from the `Proposal` stream of the job's
/// seed, which the ALSRAC flow never draws, so they are disjoint from its
/// care, estimation and measurement patterns.
pub fn independent_check(job: &Job, result: &FlowResult) -> Result<String, String> {
    let (original, approx, config) = (&job.original, &result.approx, &job.config);
    if config.metric == ErrorMetric::Wce {
        let bound = config.threshold as u64;
        return if certify::wce_within(original, approx, bound) {
            Ok(format!("wce <= {bound} proved"))
        } else {
            Err(format!("SAT finds an error distance over {bound}"))
        };
    }
    let inputs = original.num_inputs();
    let exhaustive = inputs <= EXHAUSTIVE_INPUT_LIMIT;
    let measured = if exhaustive {
        measure(original, approx, &PatternBuffer::exhaustive(inputs))
    } else {
        measure_sampled(
            original,
            approx,
            CHECK_ROUNDS,
            derive_seed(config.seed, Stream::Proposal),
        )
    }
    .map_err(|e| format!("measurement failed: {e}"))?;
    let value = measured
        .value(config.metric)
        .ok_or_else(|| format!("{} is not decodable", config.metric))?;
    let (over, note) = if exhaustive {
        (value > config.threshold + 1e-12, "exhaustive".to_string())
    } else if config.metric == ErrorMetric::ErrorRate {
        let patterns = measured.num_patterns as u64;
        let errors = (measured.error_rate * measured.num_patterns as f64).round() as u64;
        let (low, high) = wilson_interval(errors, patterns, CERT_WILSON_Z);
        (
            high > config.threshold,
            format!("wilson [{low:.5}, {high:.5}]"),
        )
    } else {
        (
            value > config.threshold * 1.10 + 1e-12,
            "sampled".to_string(),
        )
    };
    if over {
        Err(format!(
            "independent {} {value} ({note}) is over the threshold {}",
            config.metric, config.threshold
        ))
    } else {
        Ok(format!("{} {value:.5} {note}", config.metric))
    }
}

/// Whether `a` and `b` compute the same function: the SAT miter up to
/// [`CEC_AND_LIMIT`] ANDs, sampled simulation above.
pub fn equivalent(a: &Aig, b: &Aig, seed: u64) -> bool {
    if a.num_ands().max(b.num_ands()) <= CEC_AND_LIMIT {
        return cec::equivalent(a, b) == CecResult::Equivalent;
    }
    measure_sampled(a, b, EQUIV_ROUNDS, seed).is_ok_and(|m| m.error_rate == 0.0)
}
