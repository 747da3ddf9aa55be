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
//! Three evaluation layers are provided: [`FlipCompare`] scores
//! candidates that flip one node of a simulated circuit (the batch
//! estimation inside the synthesis flows, fed by `alsrac-sim`'s flip
//! influences), [`compare_output_words`] compares two sets of
//! already-simulated output words, and [`measure`] / [`measure_auto`]
//! simulate two circuits from scratch (the accuracy measurement used to
//! report results, exhaustive when the input count permits).
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

/// Scores *virtually flipped* candidates of one circuit snapshot against
/// the exact outputs: the batch-estimation compare (§III-C).
///
/// A candidate's outputs are `base[po] ^ (influence[po] & change)` (see
/// [`FlipInfluence::apply`]), so they differ from `base` only on the lanes
/// of `any_mask & change`. [`FlipCompare::new`] sweeps `base` once; then
/// [`FlipCompare::flipped`] charges each candidate only for the words its
/// flips reach. A word without a flipped lane keeps its base mismatch
/// column; a flipped word rebuilds its column and adjusts the error-lane
/// count with integer arithmetic, so `error_rate` is exact.
///
/// With `decode` set and at most 63 outputs, the snapshot also stores each
/// lane's `(y, ed, ed / max(y, 1))` and every candidate decodes only the
/// lanes it flips. Lanes are summed in word-ascending, then lane-ascending
/// order, so NMED, MRED and the maximum are bit-identical to
/// `compare_output_words(exact, &influence.apply(base, change), ..)`.
/// Otherwise the distance metrics read `None`: [`ErrorMetric::ErrorRate`]
/// never needs them (see [`ErrorMetric::needs_distance`]), and more than
/// 63 outputs do not decode to integers.
#[derive(Debug)]
pub struct FlipCompare<'a> {
    exact: &'a OutputWords,
    base: OutputWords,
    masks: Vec<u64>,
    num_patterns: usize,
    /// Per-word mismatch column of `base` against `exact`, before masking.
    base_diff: Vec<u64>,
    /// Masked mismatch lanes of `base`.
    base_error_lanes: u64,
    /// `(y, ed, ed / max(y, 1))` of `base` at entry `64 * w + lane`, when
    /// decoding; lanes outside `masks` hold zeros.
    lanes: Option<Vec<(u64, u64, f64)>>,
}

impl<'a> FlipCompare<'a> {
    /// Prepares the compare of candidates of `base` against `exact`.
    ///
    /// `masks[w]` selects the valid lanes of word `w` (see
    /// [`PatternBuffer::word_masks`]) and `num_patterns` counts them.
    /// `decode` asks for the distance metrics.
    ///
    /// # Panics
    ///
    /// Panics if the output counts or word shapes disagree.
    pub fn new(
        exact: &'a OutputWords,
        base: OutputWords,
        masks: Vec<u64>,
        num_patterns: usize,
        decode: bool,
    ) -> FlipCompare<'a> {
        let num_outputs = exact.num_outputs();
        assert_eq!(num_outputs, base.num_outputs(), "output count mismatch");
        assert_eq!(exact.num_words(), masks.len(), "word shape mismatch");
        assert_eq!(base.num_words(), masks.len(), "word shape mismatch");
        let mut base_diff = vec![0u64; masks.len()];
        let mut base_error_lanes = 0u64;
        let mut lanes = (decode && num_outputs <= 63).then(|| vec![(0, 0, 0.0); masks.len() * 64]);
        for (w, &word_mask) in masks.iter().enumerate() {
            let mut diff = 0u64;
            for po in 0..num_outputs {
                diff |= exact.word(po, w) ^ base.word(po, w);
            }
            base_diff[w] = diff;
            base_error_lanes += (diff & word_mask).count_ones() as u64;
            let Some(lanes) = &mut lanes else {
                continue;
            };
            let mut mask = word_mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let y = decode_lane(lane, (0..num_outputs).map(|po| exact.word(po, w)));
                let ed = y.abs_diff(decode_lane(
                    lane,
                    (0..num_outputs).map(|po| base.word(po, w)),
                ));
                lanes[64 * w + lane] = (y, ed, ed as f64 / (y.max(1)) as f64);
            }
        }
        FlipCompare {
            exact,
            base,
            masks,
            num_patterns,
            base_diff,
            base_error_lanes,
            lanes,
        }
    }

    /// The measurement of the candidate that flips the influence's node on
    /// the lanes of `change`.
    ///
    /// # Panics
    ///
    /// Panics if the influence's output count or `change`'s word count
    /// disagrees with the snapshot.
    pub fn flipped(&self, influence: &FlipInfluence, change: &[u64]) -> Measurement {
        let num_outputs = self.base.num_outputs();
        assert_eq!(
            influence.num_outputs(),
            num_outputs,
            "output count mismatch"
        );
        assert_eq!(change.len(), self.masks.len(), "word shape mismatch");
        if self.num_patterns == 0 {
            let decoded = self.lanes.is_some();
            return Measurement {
                num_patterns: 0,
                error_rate: 0.0,
                nmed: decoded.then_some(0.0),
                mred: decoded.then_some(0.0),
                max_error_distance: decoded.then_some(0),
            };
        }
        let touched = influence.touched();
        let any = influence.any_mask();
        // The candidate's output column of the word being rebuilt; decoding
        // reads it, and decoding means at most 63 outputs.
        let mut column = [0u64; 63];
        let mut error_lanes = self.base_error_lanes;
        let mut distance = self.lanes.as_ref().map(|_| (0.0f64, 0.0f64, 0u64));
        for (w, &word_mask) in self.masks.iter().enumerate() {
            let cw = change[w];
            let flipped = any[w] & cw & word_mask;
            if flipped != 0 {
                // Influence rows are sparse and ascending by output index:
                // merge against them with one rising cursor. Untouched
                // outputs pass the base value through.
                let mut cursor = 0usize;
                let mut diff = 0u64;
                for po in 0..num_outputs {
                    let mut a = self.base.word(po, w);
                    if touched.get(cursor).is_some_and(|&t| t as usize == po) {
                        a ^= influence.row(cursor)[w] & cw;
                        cursor += 1;
                    }
                    diff |= self.exact.word(po, w) ^ a;
                    if let Some(slot) = column.get_mut(po) {
                        *slot = a;
                    }
                }
                error_lanes -= (self.base_diff[w] & word_mask).count_ones() as u64;
                error_lanes += (diff & word_mask).count_ones() as u64;
            }
            let (Some(lanes), Some((sum_ed, sum_red, max_ed))) = (&self.lanes, &mut distance)
            else {
                continue;
            };
            let lanes = &lanes[64 * w..64 * w + 64];
            let candidate = &column[..num_outputs];
            let mut mask = word_mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (y, mut ed, mut red) = lanes[lane];
                if flipped >> lane & 1 != 0 {
                    ed = y.abs_diff(decode_lane(lane, candidate.iter().copied()));
                    red = ed as f64 / (y.max(1)) as f64;
                }
                *max_ed = (*max_ed).max(ed);
                *sum_ed += ed as f64;
                *sum_red += red;
            }
        }
        PartialCounts {
            patterns: self.num_patterns,
            error_lanes,
            distance,
        }
        .finalize(num_outputs)
    }
}

/// The integer whose bit `po` is bit `lane` of the `po`-th of `words`
/// (LSB-first output order).
#[inline]
fn decode_lane(lane: usize, words: impl Iterator<Item = u64>) -> u64 {
    words
        .enumerate()
        .fold(0, |value, (po, word)| value | (word >> lane & 1) << po)
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

    /// [`FlipInfluence::compute`] on every lane with a fresh index and
    /// scratch.
    fn influence(aig: &Aig, sim: &Simulation, fanouts: &FanoutMap, node: NodeId) -> FlipInfluence {
        let outputs = OutputIndex::new(aig);
        FlipInfluence::compute(
            aig,
            sim,
            fanouts,
            &outputs,
            node,
            &vec![u64::MAX; sim.num_words()],
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

    /// Asserts that `got` equals `want` bit for bit: the error rate
    /// always, the distance metrics when `decode`, and `None` otherwise.
    fn assert_same(want: &Measurement, got: &Measurement, decode: bool, what: &str) {
        assert_eq!(want.num_patterns, got.num_patterns, "{what}");
        assert_eq!(
            want.error_rate.to_bits(),
            got.error_rate.to_bits(),
            "{what}"
        );
        if decode {
            assert_eq!(
                want.nmed.map(f64::to_bits),
                got.nmed.map(f64::to_bits),
                "{what}"
            );
            assert_eq!(
                want.mred.map(f64::to_bits),
                got.mred.map(f64::to_bits),
                "{what}"
            );
            assert_eq!(want.max_error_distance, got.max_error_distance, "{what}");
        } else {
            assert_eq!(got.nmed, None, "{what}");
            assert_eq!(got.mred, None, "{what}");
            assert_eq!(got.max_error_distance, None, "{what}");
        }
    }

    #[test]
    fn fused_compare_matches_apply_then_compare() {
        // The flipped compare must reproduce apply() + compare_output_words()
        // bit for bit, including the floating-point distance sums when
        // decoding, for every node's influence and random change masks
        // (ragged final word included).
        let exact_aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::random(6, 200, 17);
        let sim = Simulation::new(&exact_aig, &patterns);
        let fanouts = exact_aig.fanout_map();
        let exact_out = sim.output_words(&exact_aig);
        let masks = patterns.word_masks();
        let n = patterns.num_patterns();
        for decode in [false, true] {
            let compare = FlipCompare::new(&exact_out, exact_out.clone(), masks.clone(), n, decode);
            let mut rng = alsrac_rt::Rng::from_seed(23);
            for node in exact_aig.iter_ands() {
                let inf = influence(&exact_aig, &sim, &fanouts, node);
                let change: Vec<u64> = (0..sim.num_words()).map(|_| rng.next_u64()).collect();
                let want =
                    compare_output_words(&exact_out, &inf.apply(&exact_out, &change), &masks, n);
                let got = compare.flipped(&inf, &change);
                assert_same(
                    &want,
                    &got,
                    decode,
                    &format!("node {node}, decode {decode}"),
                );
            }
        }
    }

    #[test]
    fn sparse_compares_against_shifted_base() {
        // A base that already disagrees with the exact outputs (mid-flow
        // snapshot shape), so the base error-lane count is nonzero and the
        // dirty-word adjustment has to subtract real counts, and the
        // unflipped lanes add nonzero stored distance terms.
        let exact_aig = alsrac_circuits::arith::ripple_carry_adder(3);
        let patterns = PatternBuffer::random(6, 200, 31);
        let sim = Simulation::new(&exact_aig, &patterns);
        let fanouts = exact_aig.fanout_map();
        let exact_out = sim.output_words(&exact_aig);
        let masks = patterns.word_masks();
        let n = patterns.num_patterns();
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
        let first = exact_aig.iter_ands().next().expect("has ands");
        for decode in [false, true] {
            let compare = FlipCompare::new(&exact_out, base.clone(), masks.clone(), n, decode);
            let mut rng = alsrac_rt::Rng::from_seed(47);
            for node in exact_aig.iter_ands() {
                let inf = influence(&exact_aig, &sim, &fanouts, node);
                // Sparse change masks too, so most lanes keep their base terms.
                let change: Vec<u64> = (0..sim.num_words())
                    .map(|_| rng.next_u64() & rng.next_u64() & rng.next_u64())
                    .collect();
                let want = compare_output_words(&exact_out, &inf.apply(&base, &change), &masks, n);
                let got = compare.flipped(&inf, &change);
                assert_same(
                    &want,
                    &got,
                    decode,
                    &format!("node {node}, decode {decode}"),
                );
            }
            // Empty change mask: nothing dirty, base counts pass through.
            let inf = influence(&exact_aig, &sim, &fanouts, first);
            let got = compare.flipped(&inf, &vec![0u64; sim.num_words()]);
            let want = compare_output_words(&exact_out, &base, &masks, n);
            assert_same(
                &want,
                &got,
                decode,
                &format!("empty change, decode {decode}"),
            );
        }
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
        for decode in [false, true] {
            let m = FlipCompare::new(&out, out.clone(), vec![0], 0, decode).flipped(&inf, &[0]);
            assert_eq!(m.num_patterns, 0);
            assert_eq!(m.error_rate, 0.0);
            assert_eq!(m.nmed, decode.then_some(0.0));
            assert_eq!(m.max_error_distance, decode.then_some(0));
        }
    }

    #[test]
    fn flipped_compare_past_63_outputs_skips_the_decode() {
        // 70 outputs do not decode to one integer: a decode request still
        // scores the exact error rate and leaves the distances `None`, as
        // compare_output_words does.
        let mut aig = Aig::new("wide");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, !c);
        for i in 0..70 {
            let lit = match i % 3 {
                0 => ab,
                1 => !abc,
                _ => c,
            };
            aig.add_output(format!("y{i}"), lit);
        }
        let patterns = PatternBuffer::random(3, 100, 5);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let out = sim.output_words(&aig);
        let masks = patterns.word_masks();
        let n = patterns.num_patterns();
        let compare = FlipCompare::new(&out, out.clone(), masks.clone(), n, true);
        let mut rng = alsrac_rt::Rng::from_seed(3);
        for node in aig.iter_ands() {
            let inf = influence(&aig, &sim, &fanouts, node);
            let change: Vec<u64> = (0..sim.num_words()).map(|_| rng.next_u64()).collect();
            let want = compare_output_words(&out, &inf.apply(&out, &change), &masks, n);
            assert!(want.error_rate > 0.0, "node {node} must flip some output");
            assert_eq!(want.nmed, None);
            let got = compare.flipped(&inf, &change);
            assert_same(&want, &got, false, &format!("node {node}"));
        }
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
