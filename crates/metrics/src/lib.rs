//! Error metrics for approximate circuits (§II-B of the ALSRAC paper).
//!
//! Three statistical metrics are implemented, all defined over a
//! distribution of input patterns:
//!
//! * **Error rate (ER)** — the probability that the approximate output
//!   vector differs from the accurate one in any bit;
//! * **Normalized mean error distance (NMED)** — the mean of
//!   `|approx - exact|` over patterns, normalized by the maximum output
//!   value `2^O - 1`;
//! * **Mean relative error distance (MRED)** — the mean of
//!   `|approx - exact| / max(exact, 1)`.
//!
//! ER applies to any circuit; the distance metrics interpret the output
//! vector as an unsigned integer (LSB-first output order) and therefore
//! require at most 63 outputs.
//!
//! Two evaluation layers are provided: [`compare_output_words`] works on
//! already-simulated output words (the fast path used inside the synthesis
//! flows, fed by `alsrac-sim`'s batch estimation), and [`measure`] /
//! [`measure_auto`] simulate two circuits from scratch (the accuracy
//! measurement used to report results, exhaustive when the input count
//! permits).
//!
//! # Example
//!
//! ```
//! use alsrac_circuits::arith;
//! use alsrac_metrics::{measure_auto, ErrorMetric};
//!
//! # fn main() -> Result<(), alsrac_metrics::MetricsError> {
//! let exact = arith::ripple_carry_adder(4);
//! let approx = exact.clone(); // no approximation yet
//! let m = measure_auto(&exact, &approx, 10_000, 7)?;
//! assert_eq!(m.error_rate, 0.0);
//! assert_eq!(m.value(ErrorMetric::Nmed), Some(0.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error as StdError;
use std::fmt;

use alsrac_aig::Aig;
use alsrac_rt::{derive_indexed, pool, trace, Stream};
use alsrac_sim::{FlipInfluence, OutputWords, PatternBuffer, Simulation};

/// Which error metric a flow is constrained by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorMetric {
    /// Probability of any output bit differing.
    ErrorRate,
    /// Mean error distance normalized by the maximum output value.
    Nmed,
    /// Mean relative error distance.
    Mred,
    /// Worst-case error: the maximum error distance over all inputs
    /// (an absolute bound, not a probability — per Meng et al.'s
    /// maximum-error-constrained ALS).
    Wce,
}

impl ErrorMetric {
    /// Whether evaluating this metric requires decoding output lanes to
    /// integer error distances. [`ErrorMetric::ErrorRate`] only counts
    /// mismatching lanes, so estimators ranking by it can skip the
    /// per-lane decode entirely — the dominant per-candidate cost on
    /// multi-output circuits.
    pub fn needs_distance(self) -> bool {
        !matches!(self, ErrorMetric::ErrorRate)
    }
}

impl fmt::Display for ErrorMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorMetric::ErrorRate => write!(f, "ER"),
            ErrorMetric::Nmed => write!(f, "NMED"),
            ErrorMetric::Mred => write!(f, "MRED"),
            ErrorMetric::Wce => write!(f, "WCE"),
        }
    }
}

/// Errors produced by the measurement entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricsError {
    /// The two circuits differ in input or output arity.
    ArityMismatch {
        /// (inputs, outputs) of the exact circuit.
        exact: (usize, usize),
        /// (inputs, outputs) of the approximate circuit.
        approx: (usize, usize),
    },
    /// A distance metric was requested on a circuit with more than 63
    /// outputs.
    TooManyOutputs {
        /// The output count.
        outputs: usize,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::ArityMismatch { exact, approx } => write!(
                f,
                "circuit arity mismatch: exact {}x{}, approximate {}x{}",
                exact.0, exact.1, approx.0, approx.1
            ),
            MetricsError::TooManyOutputs { outputs } => {
                write!(f, "distance metrics limited to 63 outputs, got {outputs}")
            }
        }
    }
}

impl StdError for MetricsError {}

/// The result of comparing an approximate circuit against an exact one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Number of patterns evaluated.
    pub num_patterns: usize,
    /// Error rate over the evaluated patterns.
    pub error_rate: f64,
    /// NMED, when the output count permits integer decoding.
    pub nmed: Option<f64>,
    /// MRED, when the output count permits integer decoding.
    pub mred: Option<f64>,
    /// Maximum observed error distance, when decodable.
    pub max_error_distance: Option<u64>,
}

impl Measurement {
    /// Returns the value of the requested metric (`None` when a distance
    /// metric is unavailable).
    pub fn value(&self, metric: ErrorMetric) -> Option<f64> {
        match metric {
            ErrorMetric::ErrorRate => Some(self.error_rate),
            ErrorMetric::Nmed => self.nmed,
            ErrorMetric::Mred => self.mred,
            ErrorMetric::Wce => self.max_error_distance.map(|d| d as f64),
        }
    }
}

/// Whether a certificate's value actually carries its guarantee.
///
/// The certification layer runs under a resource budget; when the budget
/// runs out mid-certificate the flow degrades gracefully instead of
/// hanging: the certificate is reported with [`CertStatus::Degraded`] and
/// its `value` falls back to the sampled measurement, which carries **no**
/// SAT guarantee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertStatus {
    /// The certificate holds as stated (exact or (ε, δ)-guaranteed).
    Certified,
    /// The certification budget ran out before the guarantee was
    /// established; the value is the sampled measurement.
    Degraded {
        /// Human-readable cause (e.g. "SAT budget exhausted").
        reason: String,
    },
}

impl CertStatus {
    /// Whether this is [`CertStatus::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, CertStatus::Certified)
    }
}

/// A metric value carrying a *certificate*, not a statistical estimate.
///
/// Produced by the SAT-based certification layer (miter model counting
/// and WCE binary search in the core crate): `value` is either exactly
/// right (`exact`) or within a `(1+ε)` factor with probability `1−δ` —
/// unless `status` is [`CertStatus::Degraded`], in which case the
/// certification budget ran out and `value` is only the sampled
/// measurement. This type is plain data so that report/bench layers can
/// consume certificates without depending on the SAT crate.
#[derive(Clone, Debug, PartialEq)]
pub struct CertifiedMeasurement {
    /// The certified metric.
    pub metric: ErrorMetric,
    /// The certified value: an error rate in `[0, 1]` for
    /// [`ErrorMetric::ErrorRate`], an absolute maximum error distance for
    /// [`ErrorMetric::Wce`].
    pub value: f64,
    /// True when `value` is exact (complete enumeration or binary
    /// search), false for an (ε, δ) hash-counting estimate.
    pub exact: bool,
    /// Tolerance factor of the guarantee (0 when exact).
    pub epsilon: f64,
    /// Failure probability of the guarantee (0 when exact).
    pub delta: f64,
    /// SAT solves spent producing the certificate.
    pub sat_queries: u64,
    /// Whether the guarantee was actually established
    /// ([`CertStatus::Certified`]) or the budget ran out
    /// ([`CertStatus::Degraded`]).
    pub status: CertStatus,
}

impl CertifiedMeasurement {
    /// Whether the certified value satisfies a `<= threshold` constraint.
    ///
    /// For inexact certificates the `(1+ε)` factor is applied
    /// conservatively: the reported value is inflated before comparing,
    /// so `true` still implies the constraint holds with probability at
    /// least `1−δ`. For a [`CertStatus::Degraded`] certificate the same
    /// comparison runs, but the answer carries no SAT guarantee — callers
    /// that need one must check [`Self::status`] first.
    pub fn within(&self, threshold: f64) -> bool {
        if self.exact {
            self.value <= threshold
        } else {
            self.value * (1.0 + self.epsilon) <= threshold
        }
    }
}

/// Compares two sets of output words and computes all metrics.
///
/// `exact` / `approx` are flattened packed output values (see
/// [`OutputWords`]); `masks[w]` selects the valid lanes of word `w` (see
/// [`PatternBuffer::word_mask`]); `num_patterns` is the total valid-lane
/// count.
///
/// Distance metrics are reported only when there are at most 63 outputs.
///
/// # Panics
///
/// Panics if the word shapes disagree.
pub fn compare_output_words(
    exact: &OutputWords,
    approx: &OutputWords,
    masks: &[u64],
    num_patterns: usize,
) -> Measurement {
    if num_patterns == 0 {
        assert_eq!(
            exact.num_outputs(),
            approx.num_outputs(),
            "output count mismatch"
        );
        return Measurement {
            num_patterns: 0,
            error_rate: 0.0,
            nmed: Some(0.0),
            mred: Some(0.0),
            max_error_distance: Some(0),
        };
    }
    count_output_words(exact, approx, masks, num_patterns).finalize(exact.num_outputs())
}

/// Precomputes the per-word union of output differences between `exact`
/// and `base`: `diff[w] = OR over outputs of (exact[po][w] ^ base[po][w])`,
/// plus the total masked mismatch-lane count. One `O(outputs × words)`
/// sweep, done once per circuit snapshot so
/// [`compare_flipped_error_rate`] can charge each candidate only for the
/// words it actually changes.
pub fn base_diff_columns(
    exact: &OutputWords,
    base: &OutputWords,
    masks: &[u64],
) -> (Vec<u64>, u64) {
    assert_eq!(
        exact.num_outputs(),
        base.num_outputs(),
        "output count mismatch"
    );
    let num_outputs = exact.num_outputs();
    let mut columns = vec![0u64; masks.len()];
    let mut error_lanes = 0u64;
    for (w, (slot, &word_mask)) in columns.iter_mut().zip(masks).enumerate() {
        let mut diff = 0u64;
        for po in 0..num_outputs {
            diff |= exact.word(po, w) ^ base.word(po, w);
        }
        *slot = diff;
        error_lanes += (diff & word_mask).count_ones() as u64;
    }
    (columns, error_lanes)
}

/// Error-rate-only comparison of a *virtually flipped* candidate against
/// the exact outputs, in time proportional to the words the flip actually
/// touches rather than `outputs × words`.
///
/// `(base_diff, base_error_lanes)` must come from
/// [`base_diff_columns`]`(exact, base, masks)`. A candidate's outputs
/// differ from `base` only on words where some influence row intersects
/// `change`; on every other word the mismatch column — and hence its lane
/// count — is exactly the precomputed base one. The error count is
/// adjusted per dirty word with integer arithmetic, so `error_rate` is
/// **bit-identical** to the full [`compare_flipped_output_words`] /
/// materialize-then-compare result. Distance metrics are reported as
/// `None`; use this only when ranking by [`ErrorMetric::ErrorRate`]
/// (which never reads them — see [`ErrorMetric::needs_distance`]).
///
/// # Panics
///
/// Panics if the output counts or word shapes disagree.
#[allow(clippy::too_many_arguments)]
pub fn compare_flipped_error_rate(
    exact: &OutputWords,
    base: &OutputWords,
    influence: &FlipInfluence,
    change: &[u64],
    masks: &[u64],
    num_patterns: usize,
    base_diff: &[u64],
    base_error_lanes: u64,
) -> Measurement {
    assert_eq!(
        exact.num_outputs(),
        base.num_outputs(),
        "output count mismatch"
    );
    assert_eq!(
        base.num_outputs(),
        influence.num_outputs(),
        "output count mismatch"
    );
    assert_eq!(base_diff.len(), masks.len(), "word shape mismatch");
    if num_patterns == 0 {
        return Measurement {
            num_patterns: 0,
            error_rate: 0.0,
            nmed: None,
            mred: None,
            max_error_distance: None,
        };
    }
    let num_outputs = exact.num_outputs();
    let touched = influence.touched();
    let any = influence.any_mask();
    let mut error_lanes = base_error_lanes;
    for (w, &word_mask) in masks.iter().enumerate() {
        let cw = change[w];
        if any[w] & cw == 0 {
            continue; // no output flips in this word: base column stands
        }
        // Rebuild this word's mismatch column with the flips applied
        // (rising-cursor merge over the sparse ascending touched set).
        let mut cursor = 0usize;
        let mut diff = 0u64;
        for po in 0..num_outputs {
            let mut a = base.word(po, w);
            if touched.get(cursor).is_some_and(|&t| t as usize == po) {
                a ^= influence.row(cursor)[w] & cw;
                cursor += 1;
            }
            diff |= exact.word(po, w) ^ a;
        }
        error_lanes -= (base_diff[w] & word_mask).count_ones() as u64;
        error_lanes += (diff & word_mask).count_ones() as u64;
    }
    Measurement {
        num_patterns,
        error_rate: error_lanes as f64 / num_patterns as f64,
        nmed: None,
        mred: None,
        max_error_distance: None,
    }
}

/// Compares an exact circuit's output words against a *virtually flipped*
/// approximate circuit: the candidate outputs are
/// `base[po] ^ (influence[po] & change)` (see [`FlipInfluence::apply`]),
/// but instead of materializing them this walks word-major and evaluates
/// one output column per word — each word of `base` and of the influence
/// rows is loaded exactly once and feeds both the error-rate union and the
/// distance decode while still hot.
///
/// This is the fused form of `compare_output_words(exact,
/// influence.apply(base, change), ..)` that the estimator's hot path uses:
/// it skips the per-candidate `OutputWords` clone + second sweep, and its
/// result is bit-identical (same touched rows, and the floating-point
/// distance sums accumulate in the same word-ascending, lane-ascending
/// order — pinned by property tests).
///
/// # Panics
///
/// Panics if the output counts or word shapes disagree.
pub fn compare_flipped_output_words(
    exact: &OutputWords,
    base: &OutputWords,
    influence: &FlipInfluence,
    change: &[u64],
    masks: &[u64],
    num_patterns: usize,
) -> Measurement {
    assert_eq!(
        exact.num_outputs(),
        base.num_outputs(),
        "output count mismatch"
    );
    assert_eq!(
        base.num_outputs(),
        influence.num_outputs(),
        "output count mismatch"
    );
    if num_patterns == 0 {
        return Measurement {
            num_patterns: 0,
            error_rate: 0.0,
            nmed: Some(0.0),
            mred: Some(0.0),
            max_error_distance: Some(0),
        };
    }
    let num_outputs = exact.num_outputs();
    let touched = influence.touched();
    let decode = num_outputs <= 63;
    // One column of candidate output words, rebuilt per word. The single
    // small allocation replaces apply()'s full outputs × words clone.
    let mut approx_col = vec![0u64; num_outputs];
    let mut error_lanes = 0u64;
    let mut sum_ed = 0.0f64;
    let mut sum_red = 0.0f64;
    let mut max_ed = 0u64;
    for (w, &word_mask) in masks.iter().enumerate() {
        let cw = change[w];
        // Influence rows are sparse and ascending by output index: merge
        // against them with one rising cursor instead of a search per
        // output. Untouched outputs pass the base value through.
        let mut cursor = 0usize;
        let mut diff = 0u64;
        for (po, slot) in approx_col.iter_mut().enumerate() {
            let mut a = base.word(po, w);
            if touched.get(cursor).is_some_and(|&t| t as usize == po) {
                a ^= influence.row(cursor)[w] & cw;
                cursor += 1;
            }
            diff |= exact.word(po, w) ^ a;
            *slot = a;
        }
        error_lanes += (diff & word_mask).count_ones() as u64;
        if decode {
            let mut mask = word_mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let mut y = 0u64;
                let mut yh = 0u64;
                for (po, &col) in approx_col.iter().enumerate() {
                    y |= (exact.word(po, w) >> lane & 1) << po;
                    yh |= (col >> lane & 1) << po;
                }
                let ed = y.abs_diff(yh);
                max_ed = max_ed.max(ed);
                sum_ed += ed as f64;
                sum_red += ed as f64 / (y.max(1)) as f64;
            }
        }
    }
    PartialCounts {
        patterns: num_patterns,
        error_lanes,
        distance: decode.then_some((sum_ed, sum_red, max_ed)),
    }
    .finalize(num_outputs)
}

/// Raw error counts of one comparison (or one pattern block of a blocked
/// comparison), before normalization by the pattern count.
///
/// Blocked Monte-Carlo measurement computes one `PartialCounts` per
/// pattern block and folds them **in block order** with
/// [`PartialCounts::merge`]; because the block decomposition is
/// independent of the thread count, the folded sums — including the
/// floating-point ones — are bit-identical however many workers ran.
#[derive(Clone, Copy, Debug)]
struct PartialCounts {
    patterns: usize,
    error_lanes: u64,
    /// `(sum_ed, sum_red, max_ed)`, present when outputs decode to ints.
    distance: Option<(f64, f64, u64)>,
}

impl PartialCounts {
    fn merge(self, other: PartialCounts) -> PartialCounts {
        PartialCounts {
            patterns: self.patterns + other.patterns,
            error_lanes: self.error_lanes + other.error_lanes,
            distance: match (self.distance, other.distance) {
                (Some((ed_a, red_a, max_a)), Some((ed_b, red_b, max_b))) => {
                    Some((ed_a + ed_b, red_a + red_b, max_a.max(max_b)))
                }
                _ => None,
            },
        }
    }

    fn finalize(self, num_outputs: usize) -> Measurement {
        let n = self.patterns as f64;
        let (nmed, mred, max_ed) = match self.distance {
            Some((sum_ed, sum_red, max_ed)) => {
                let denom = ((1u64 << num_outputs) - 1) as f64;
                (Some(sum_ed / n / denom), Some(sum_red / n), Some(max_ed))
            }
            None => (None, None, None),
        };
        Measurement {
            num_patterns: self.patterns,
            error_rate: self.error_lanes as f64 / n,
            nmed,
            mred,
            max_error_distance: max_ed,
        }
    }
}

/// Counts error lanes and (when decodable) distance sums over one set of
/// output words. The counting kernel behind [`compare_output_words`].
fn count_output_words(
    exact: &OutputWords,
    approx: &OutputWords,
    masks: &[u64],
    num_patterns: usize,
) -> PartialCounts {
    assert_eq!(
        exact.num_outputs(),
        approx.num_outputs(),
        "output count mismatch"
    );
    let num_outputs = exact.num_outputs();

    // Error rate: union of bit differences across outputs.
    let mut error_lanes = 0u64;
    for (w, &word_mask) in masks.iter().enumerate() {
        let mut diff = 0u64;
        for po in 0..num_outputs {
            diff |= exact.word(po, w) ^ approx.word(po, w);
        }
        error_lanes += (diff & word_mask).count_ones() as u64;
    }

    // Distance metrics: decode each lane to integers.
    let distance = if num_outputs <= 63 {
        let mut sum_ed = 0.0f64;
        let mut sum_red = 0.0f64;
        let mut max_ed = 0u64;
        for (w, &word_mask) in masks.iter().enumerate() {
            let mut mask = word_mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let mut y = 0u64;
                let mut yh = 0u64;
                for po in 0..num_outputs {
                    y |= (exact.word(po, w) >> lane & 1) << po;
                    yh |= (approx.word(po, w) >> lane & 1) << po;
                }
                let ed = y.abs_diff(yh);
                max_ed = max_ed.max(ed);
                sum_ed += ed as f64;
                sum_red += ed as f64 / (y.max(1)) as f64;
            }
        }
        Some((sum_ed, sum_red, max_ed))
    } else {
        None
    };

    PartialCounts {
        patterns: num_patterns,
        error_lanes,
        distance,
    }
}

/// Measures an approximate circuit against the exact one on an explicit
/// pattern buffer.
///
/// # Errors
///
/// Returns [`MetricsError::ArityMismatch`] if the circuits disagree in
/// input or output counts.
pub fn measure(
    exact: &Aig,
    approx: &Aig,
    patterns: &PatternBuffer,
) -> Result<Measurement, MetricsError> {
    if exact.num_inputs() != approx.num_inputs() || exact.num_outputs() != approx.num_outputs() {
        return Err(MetricsError::ArityMismatch {
            exact: (exact.num_inputs(), exact.num_outputs()),
            approx: (approx.num_inputs(), approx.num_outputs()),
        });
    }
    let sim_exact = Simulation::new(exact, patterns);
    let sim_approx = Simulation::new(approx, patterns);
    let masks = patterns.word_masks();
    Ok(compare_output_words(
        &sim_exact.output_words(exact),
        &sim_approx.output_words(approx),
        &masks,
        patterns.num_patterns(),
    ))
}

/// Input count at or below which [`measure_auto`] evaluates exhaustively.
pub const EXHAUSTIVE_INPUT_LIMIT: usize = 16;

/// Patterns per block of a blocked Monte-Carlo measurement.
///
/// Small enough that a typical `measure_rounds` splits into several
/// independently simulable blocks, large enough that per-block setup
/// (pattern generation + two simulations) is amortized.
pub const MEASURE_BLOCK_PATTERNS: usize = 8192;

/// Measures on `monte_carlo_rounds` sampled patterns, split into blocks of
/// [`MEASURE_BLOCK_PATTERNS`] simulated in parallel on the
/// [`alsrac_rt::pool`] executor.
///
/// Block `b` draws its patterns from the sub-seed
/// `derive_indexed(seed, Stream::Measurement, b)` and the partial counts
/// are folded in block order, so the result depends only on
/// `(circuits, monte_carlo_rounds, seed)` — never on the thread count.
///
/// # Errors
///
/// Returns [`MetricsError::ArityMismatch`] if the circuits disagree in
/// input or output counts.
pub fn measure_sampled(
    exact: &Aig,
    approx: &Aig,
    monte_carlo_rounds: usize,
    seed: u64,
) -> Result<Measurement, MetricsError> {
    if exact.num_inputs() != approx.num_inputs() || exact.num_outputs() != approx.num_outputs() {
        return Err(MetricsError::ArityMismatch {
            exact: (exact.num_inputs(), exact.num_outputs()),
            approx: (approx.num_inputs(), approx.num_outputs()),
        });
    }
    if monte_carlo_rounds == 0 {
        let empty = OutputWords::zeroed(exact.num_outputs(), 0);
        return Ok(compare_output_words(&empty, &empty, &[], 0));
    }
    let num_blocks = monte_carlo_rounds.div_ceil(MEASURE_BLOCK_PATTERNS);
    let partials = pool::par_indices(num_blocks, |b| {
        // Spans opened here run on pool workers, so the measurement time
        // is attributed to the thread that actually simulated the block.
        let block_span = trace::span("measure_block");
        let size = if b + 1 == num_blocks {
            monte_carlo_rounds - b * MEASURE_BLOCK_PATTERNS
        } else {
            MEASURE_BLOCK_PATTERNS
        };
        let patterns = PatternBuffer::random(
            exact.num_inputs(),
            size,
            derive_indexed(seed, Stream::Measurement, b as u64),
        );
        let sim_exact = Simulation::new(exact, &patterns);
        let sim_approx = Simulation::new(approx, &patterns);
        let counts = count_output_words(
            &sim_exact.output_words(exact),
            &sim_approx.output_words(approx),
            &patterns.word_masks(),
            patterns.num_patterns(),
        );
        trace::add("patterns_simulated", 2 * size as u64);
        block_span.finish();
        counts
    });
    let total = partials
        .into_iter()
        .reduce(PartialCounts::merge)
        .expect("at least one block when rounds > 0");
    Ok(total.finalize(exact.num_outputs()))
}

/// Measures with exhaustive patterns when the circuit has at most
/// [`EXHAUSTIVE_INPUT_LIMIT`] inputs, and `monte_carlo_rounds` seeded random
/// patterns (blocked and parallel, see [`measure_sampled`]) otherwise.
///
/// The paper measures with 10⁷ Monte-Carlo rounds; that is a flag away
/// (pass a larger `monte_carlo_rounds`), the default harness uses fewer for
/// CI speed.
///
/// # Errors
///
/// Propagates [`measure`]'s arity check.
pub fn measure_auto(
    exact: &Aig,
    approx: &Aig,
    monte_carlo_rounds: usize,
    seed: u64,
) -> Result<Measurement, MetricsError> {
    if exact.num_inputs() <= EXHAUSTIVE_INPUT_LIMIT {
        let patterns = PatternBuffer::exhaustive(exact.num_inputs());
        measure(exact, approx, &patterns)
    } else {
        measure_sampled(exact, approx, monte_carlo_rounds, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alsrac_aig::{FanoutMap, Lit, NodeId};
    use alsrac_sim::{InfluenceScratch, OutputIndex};

    /// [`FlipInfluence::compute`] with a fresh index and scratch.
    fn influence(aig: &Aig, sim: &Simulation, fanouts: &FanoutMap, node: NodeId) -> FlipInfluence {
        let outputs = OutputIndex::new(aig);
        FlipInfluence::compute(
            aig,
            sim,
            fanouts,
            &outputs,
            node,
            &mut InfluenceScratch::new(),
        )
    }

    /// 2-bit adder and a broken variant with the MSB stuck at zero.
    fn pair() -> (Aig, Aig) {
        let exact = alsrac_circuits::arith::ripple_carry_adder(2);
        let mut approx = exact.clone();
        // Stuck-at-0 on the carry-out (output index 2).
        approx.set_output_lit(2, Lit::FALSE);
        (exact, approx)
    }

    #[test]
    fn identical_circuits_have_zero_error() {
        let exact = alsrac_circuits::arith::ripple_carry_adder(3);
        let m = measure_auto(&exact, &exact.clone(), 1000, 1).expect("measure");
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.nmed, Some(0.0));
        assert_eq!(m.mred, Some(0.0));
        assert_eq!(m.max_error_distance, Some(0));
    }

    #[test]
    fn stuck_carry_error_rate_is_exact() {
        let (exact, approx) = pair();
        // carry-out is 1 for 6 of 16 input pairs (a+b >= 4).
        let m = measure_auto(&exact, &approx, 0, 0).expect("measure");
        assert_eq!(m.num_patterns, 16);
        assert!((m.error_rate - 6.0 / 16.0).abs() < 1e-12);
        // ED = 4 on those 6 patterns; NMED = (6*4/16) / 7.
        let want_nmed = (6.0 * 4.0 / 16.0) / 7.0;
        assert!((m.nmed.expect("nmed") - want_nmed).abs() < 1e-12);
        assert_eq!(m.max_error_distance, Some(4));
    }

    #[test]
    fn mred_uses_relative_distance() {
        let (exact, approx) = pair();
        let m = measure_auto(&exact, &approx, 0, 0).expect("measure");
        // MRED = mean over patterns of ED / max(y, 1); errors happen when
        // true sum is 4..6 with ED 4.
        let mut want = 0.0;
        for a in 0..4u64 {
            for b in 0..4u64 {
                let y = a + b;
                if y >= 4 {
                    want += 4.0 / y as f64;
                }
            }
        }
        want /= 16.0;
        assert!((m.mred.expect("mred") - want).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_approaches_exhaustive() {
        let (exact, approx) = pair();
        let exhaustive = measure_auto(&exact, &approx, 0, 0).expect("measure");
        let patterns = PatternBuffer::random(4, 20_000, 123);
        let sampled = measure(&exact, &approx, &patterns).expect("measure");
        assert!(
            (sampled.error_rate - exhaustive.error_rate).abs() < 0.02,
            "sampled {} vs exact {}",
            sampled.error_rate,
            exhaustive.error_rate
        );
    }

    /// A 17-input circuit pair (above EXHAUSTIVE_INPUT_LIMIT) with a real
    /// error: drop the final carry of a 17-bit incrementer-ish adder tree.
    fn wide_pair() -> (Aig, Aig) {
        let exact = alsrac_circuits::arith::ripple_carry_adder(9); // 18 inputs
        let mut approx = exact.clone();
        approx.set_output_lit(9, Lit::FALSE);
        (exact, approx)
    }

    #[test]
    fn sampled_measurement_is_identical_across_thread_counts() {
        let (exact, approx) = wide_pair();
        let rounds = MEASURE_BLOCK_PATTERNS * 2 + 513; // 3 blocks, ragged tail
        let serial =
            alsrac_rt::pool::with_threads(1, || measure_sampled(&exact, &approx, rounds, 11))
                .expect("measure");
        assert!(serial.error_rate > 0.0, "pair must actually disagree");
        assert_eq!(serial.num_patterns, rounds);
        for threads in [2, 4] {
            let parallel = alsrac_rt::pool::with_threads(threads, || {
                measure_sampled(&exact, &approx, rounds, 11)
            })
            .expect("measure");
            assert_eq!(serial.num_patterns, parallel.num_patterns);
            assert_eq!(serial.error_rate.to_bits(), parallel.error_rate.to_bits());
            assert_eq!(
                serial.nmed.map(f64::to_bits),
                parallel.nmed.map(f64::to_bits)
            );
            assert_eq!(
                serial.mred.map(f64::to_bits),
                parallel.mred.map(f64::to_bits)
            );
            assert_eq!(serial.max_error_distance, parallel.max_error_distance);
        }
    }

    #[test]
    fn blocked_sampling_approaches_exhaustive() {
        // The blocked estimator is still an unbiased sample of the true
        // error: compare against exhaustive measurement on a small pair
        // evaluated through the blocked path directly.
        let (exact, approx) = pair();
        let exhaustive = measure_auto(&exact, &approx, 0, 0).expect("measure");
        let sampled = measure_sampled(&exact, &approx, 20_000, 3).expect("measure");
        assert!(
            (sampled.error_rate - exhaustive.error_rate).abs() < 0.02,
            "sampled {} vs exact {}",
            sampled.error_rate,
            exhaustive.error_rate
        );
    }

    #[test]
    fn sampled_measurement_with_zero_rounds_is_empty() {
        let (exact, approx) = wide_pair();
        let m = measure_sampled(&exact, &approx, 0, 1).expect("measure");
        assert_eq!(m.num_patterns, 0);
        assert_eq!(m.error_rate, 0.0);
    }

    #[test]
    fn sampled_measurement_checks_arity() {
        let a = alsrac_circuits::arith::ripple_carry_adder(2);
        let b = alsrac_circuits::arith::ripple_carry_adder(3);
        let err = measure_sampled(&a, &b, 100, 1).expect_err("mismatch");
        assert!(matches!(err, MetricsError::ArityMismatch { .. }));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let a = alsrac_circuits::arith::ripple_carry_adder(2);
        let b = alsrac_circuits::arith::ripple_carry_adder(3);
        let err = measure_auto(&a, &b, 100, 1).expect_err("mismatch");
        assert!(matches!(err, MetricsError::ArityMismatch { .. }));
    }

    #[test]
    fn empty_pattern_set_is_zero_error() {
        let words = OutputWords::from_rows(&[vec![0]]);
        let m = compare_output_words(&words, &words, &[0], 0);
        assert_eq!(m.error_rate, 0.0);
    }

    #[test]
    fn many_output_circuits_skip_distance_metrics() {
        let mut exact = Aig::new("wide");
        let a = exact.add_input("a");
        for i in 0..70 {
            exact.add_output(format!("y{i}"), if i % 2 == 0 { a } else { !a });
        }
        let mut approx = exact.clone();
        approx.set_output_lit(0, Lit::FALSE);
        let m = measure_auto(&exact, &approx, 100, 1).expect("measure");
        assert!(m.nmed.is_none());
        assert!(m.mred.is_none());
        assert!(m.error_rate > 0.0);
    }

    #[test]
    fn metric_display_names() {
        assert_eq!(ErrorMetric::ErrorRate.to_string(), "ER");
        assert_eq!(ErrorMetric::Nmed.to_string(), "NMED");
        assert_eq!(ErrorMetric::Mred.to_string(), "MRED");
    }

    #[test]
    fn fused_compare_matches_apply_then_compare() {
        // The fused single-pass comparison must reproduce the two-pass
        // apply() + compare_output_words() result bit-for-bit, including
        // the floating-point distance sums, for every node's influence and
        // random change masks (ragged final word included).
        let exact_aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::random(6, 200, 17);
        let sim = Simulation::new(&exact_aig, &patterns);
        let fanouts = exact_aig.fanout_map();
        let exact_out = sim.output_words(&exact_aig);
        let masks = patterns.word_masks();
        let mut rng = alsrac_rt::Rng::from_seed(23);
        for node in exact_aig.iter_ands() {
            let inf = influence(&exact_aig, &sim, &fanouts, node);
            let change: Vec<u64> = (0..sim.num_words()).map(|_| rng.next_u64()).collect();
            let applied = inf.apply(&exact_out, &change);
            let want = compare_output_words(&exact_out, &applied, &masks, patterns.num_patterns());
            let got = compare_flipped_output_words(
                &exact_out,
                &exact_out,
                &inf,
                &change,
                &masks,
                patterns.num_patterns(),
            );
            assert_eq!(want.num_patterns, got.num_patterns, "node {node}");
            assert_eq!(
                want.error_rate.to_bits(),
                got.error_rate.to_bits(),
                "node {node}"
            );
            assert_eq!(want.nmed.map(f64::to_bits), got.nmed.map(f64::to_bits));
            assert_eq!(want.mred.map(f64::to_bits), got.mred.map(f64::to_bits));
            assert_eq!(want.max_error_distance, got.max_error_distance);

            // Sparse rate-only path: identical error_rate bits via the
            // precomputed base columns + dirty-word adjustment.
            let (base_diff, base_lanes) = base_diff_columns(&exact_out, &exact_out, &masks);
            let rate_only = compare_flipped_error_rate(
                &exact_out,
                &exact_out,
                &inf,
                &change,
                &masks,
                patterns.num_patterns(),
                &base_diff,
                base_lanes,
            );
            assert_eq!(
                rate_only.error_rate.to_bits(),
                want.error_rate.to_bits(),
                "node {node}"
            );
            assert_eq!(rate_only.nmed, None, "node {node}");
            assert_eq!(rate_only.max_error_distance, None, "node {node}");
        }
    }

    #[test]
    fn sparse_rate_compare_against_shifted_base() {
        // Exercise compare_flipped_error_rate with a base that already
        // disagrees with the exact outputs (mid-flow snapshot shape), so
        // base_error_lanes is nonzero and the dirty-word adjustment has to
        // subtract real counts.
        let exact_aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::random(6, 200, 31);
        let sim = Simulation::new(&exact_aig, &patterns);
        let fanouts = exact_aig.fanout_map();
        let exact_out = sim.output_words(&exact_aig);
        let masks = patterns.word_masks();
        // Perturb a copy of the outputs to act as the approximate base.
        let mut base_rows: Vec<Vec<u64>> = (0..exact_out.num_outputs())
            .map(|po| {
                (0..sim.num_words())
                    .map(|w| exact_out.word(po, w))
                    .collect()
            })
            .collect();
        base_rows[0][0] ^= 0b1011;
        base_rows[2][1] ^= 0xF0;
        let base = OutputWords::from_rows(&base_rows);
        let (base_diff, base_lanes) = base_diff_columns(&exact_out, &base, &masks);
        let mut rng = alsrac_rt::Rng::from_seed(47);
        for node in exact_aig.iter_ands() {
            let inf = influence(&exact_aig, &sim, &fanouts, node);
            let change: Vec<u64> = (0..sim.num_words()).map(|_| rng.next_u64()).collect();
            let want = compare_output_words(
                &exact_out,
                &inf.apply(&base, &change),
                &masks,
                patterns.num_patterns(),
            );
            let got = compare_flipped_error_rate(
                &exact_out,
                &base,
                &inf,
                &change,
                &masks,
                patterns.num_patterns(),
                &base_diff,
                base_lanes,
            );
            assert_eq!(
                want.error_rate.to_bits(),
                got.error_rate.to_bits(),
                "node {node}"
            );
        }
        // Empty change mask: nothing dirty, base counts pass through.
        let node = exact_aig.iter_ands().next().expect("has ands");
        let inf = influence(&exact_aig, &sim, &fanouts, node);
        let zeros = vec![0u64; sim.num_words()];
        let got = compare_flipped_error_rate(
            &exact_out,
            &base,
            &inf,
            &zeros,
            &masks,
            patterns.num_patterns(),
            &base_diff,
            base_lanes,
        );
        let want = compare_output_words(&exact_out, &base, &masks, patterns.num_patterns());
        assert_eq!(want.error_rate.to_bits(), got.error_rate.to_bits());
    }

    #[test]
    fn fused_compare_with_zero_patterns_is_empty() {
        let exact_aig = alsrac_circuits::arith::ripple_carry_adder(2);
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&exact_aig, &patterns);
        let fanouts = exact_aig.fanout_map();
        let node = exact_aig.iter_ands().next().expect("has ands");
        let inf = influence(&exact_aig, &sim, &fanouts, node);
        let out = sim.output_words(&exact_aig);
        let m = compare_flipped_output_words(&out, &out, &inf, &[0], &[0], 0);
        assert_eq!(m.num_patterns, 0);
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.nmed, Some(0.0));
    }

    #[test]
    fn word_masks_exclude_invalid_lanes() {
        // 10 valid patterns in one word; garbage in the upper lanes must
        // not count.
        let exact = OutputWords::from_rows(&[vec![0u64]]);
        // Differences above lane 10 only.
        let approx = OutputWords::from_rows(&[vec![0xFFFF_FC00u64]]);
        let m = compare_output_words(&exact, &approx, &[(1 << 10) - 1], 10);
        assert_eq!(m.error_rate, 0.0);
    }
}

/// Wilson score interval for a sampled proportion.
///
/// Monte-Carlo error measurement reports a point estimate; Liu's method
/// (ICCAD 2017) *certifies* designs statistically, which needs a bound:
/// given `successes` error patterns among `samples`, returns a confidence
/// interval for the true error rate at the given number of standard
/// normal deviates `z` (1.96 ≈ 95 %, 2.58 ≈ 99 %).
///
/// ```
/// use alsrac_metrics::wilson_interval;
///
/// let (lo, hi) = wilson_interval(30, 10_000, 1.96);
/// assert!(lo < 0.003 && 0.003 < hi);
/// assert!(hi < 0.005); // tight at 10k samples
/// ```
///
/// # Panics
///
/// Panics if `successes > samples` or `samples == 0`.
pub fn wilson_interval(successes: u64, samples: u64, z: f64) -> (f64, f64) {
    assert!(samples > 0, "need at least one sample");
    assert!(successes <= samples, "more successes than samples");
    let n = samples as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let radius = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - radius).max(0.0), (center + radius).min(1.0))
}

/// Upper confidence bound on the error rate of a measurement, assuming it
/// came from `Measurement::num_patterns` independent samples.
///
/// Returns the measured value itself for exhaustive measurements is the
/// caller's judgement; this function always applies the Wilson bound.
pub fn error_rate_upper_bound(measurement: &Measurement, z: f64) -> f64 {
    let successes = (measurement.error_rate * measurement.num_patterns as f64).round() as u64;
    wilson_interval(successes, measurement.num_patterns.max(1) as u64, z).1
}

/// Number of Monte-Carlo samples needed so a zero-error observation
/// certifies `true error <= threshold` at confidence `z` (rule of three
/// generalized through the Wilson bound).
///
/// ```
/// use alsrac_metrics::{samples_for_certification, wilson_interval};
///
/// let n = samples_for_certification(0.001, 1.96);
/// let (_, hi) = wilson_interval(0, n, 1.96);
/// assert!(hi <= 0.001);
/// ```
pub fn samples_for_certification(threshold: f64, z: f64) -> u64 {
    assert!(threshold > 0.0, "threshold must be positive");
    // For zero successes the Wilson upper bound is z^2/(n+z^2); solve for n.
    let z2 = z * z;
    (z2 * (1.0 - threshold) / threshold).ceil() as u64 + 1
}

#[cfg(test)]
mod confidence_tests {
    use super::*;

    #[test]
    fn wilson_contains_true_rate_on_simulated_draws() {
        let mut rng = alsrac_rt::Rng::from_seed(5);
        let true_p = 0.02;
        let mut covered = 0;
        let trials = 200;
        for _ in 0..trials {
            let n = 2000u64;
            let k = (0..n).filter(|_| rng.gen_bool(true_p)).count() as u64;
            let (lo, hi) = wilson_interval(k, n, 1.96);
            if lo <= true_p && true_p <= hi {
                covered += 1;
            }
        }
        // 95% nominal coverage; allow slack for simulation noise.
        assert!(covered >= 180, "coverage {covered}/{trials}");
    }

    #[test]
    fn wilson_edges() {
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!(lo > 0.95 && lo < 1.0);
        assert!(hi > 1.0 - 1e-9);
    }

    #[test]
    fn certification_sample_count_is_sufficient_and_tightish() {
        for threshold in [0.01, 0.001, 0.0001] {
            let n = samples_for_certification(threshold, 1.96);
            let (_, hi) = wilson_interval(0, n, 1.96);
            assert!(hi <= threshold, "threshold {threshold}: bound {hi}");
            // Not wastefully large: half the samples must NOT certify.
            let (_, hi_half) = wilson_interval(0, n / 2, 1.96);
            assert!(hi_half > threshold);
        }
    }

    #[test]
    fn upper_bound_wraps_measurement() {
        let m = Measurement {
            num_patterns: 10_000,
            error_rate: 0.003,
            nmed: None,
            mred: None,
            max_error_distance: None,
        };
        let hi = error_rate_upper_bound(&m, 1.96);
        assert!(hi > 0.003 && hi < 0.006);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn wilson_rejects_zero_samples() {
        wilson_interval(0, 0, 1.96);
    }
}
