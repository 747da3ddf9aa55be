//! Checkpoint/resume for the ALSRAC flow: serialized loop state that
//! restarts an interrupted run bit-identically.
//!
//! When a [`crate::flow::run`] is interrupted (cancel token, deadline),
//! it returns a [`Checkpoint`] capturing everything the loop needs to
//! continue: the current circuit, the adaptive-round state, the accepted
//! history, and the iteration counter. Nothing else is required — every
//! random decision of the flow is a pure function of `(seed, stream,
//! iteration)` via [`alsrac_rt::derive_indexed`], so "RNG position" *is*
//! the iteration counter, and the carried incremental simulation is
//! rebuilt from scratch on resume (the incremental engine is exact, so a
//! fresh sweep is bit-identical to the carried state).
//!
//! The JSON encoding rides on [`alsrac_rt::json`], whose finite-`f64`
//! round trip is bit-exact (shortest `Display` + correctly rounded
//! parse); `u64` values that may exceed 2⁵³ (the seed) are encoded as
//! 16-digit hex strings because the parser stores numbers as `f64`.
//!
//! The AIG is stored as its input names, a flat array of AND fanin
//! literals (raw `u32` encoding, topological order), and the output
//! drivers. Deserialization *replays* the ANDs through [`Aig::and`] and
//! verifies each node lands on its original id — the graphs the flow
//! produces are strash-canonical with inputs first, so replay reproduces
//! them exactly, and any hand-edited or corrupted checkpoint fails
//! loudly instead of resuming from a silently different circuit.

use alsrac_aig::{Aig, Lit, NodeId};
use alsrac_metrics::ErrorMetric;
use alsrac_rt::json::{Arr, Json, Obj};

use crate::flow::{CareRounds, IterationRecord};

/// Schema version of the checkpoint encoding.
pub const CHECKPOINT_VERSION: u64 = 1;

/// The complete mid-loop state of an interrupted ALSRAC run.
///
/// Produced by [`crate::flow::run`] on interruption; consumed by
/// [`crate::flow::resume`], which validates it against the (circuit,
/// config) pair before continuing the loop.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// RNG seed of the interrupted run ([`crate::flow::FlowConfig::seed`]).
    pub seed: u64,
    /// Constrained metric of the interrupted run.
    pub metric: ErrorMetric,
    /// Error threshold of the interrupted run.
    pub threshold: f64,
    /// Completed loop iterations (the resumed loop starts at the next
    /// one; partially executed iterations are rolled back, not stored).
    pub iterations: usize,
    /// Accepted LACs so far.
    pub applied: usize,
    /// The adaptive care-round state: `N` and the streaks that move it.
    pub(crate) care: CareRounds,
    /// Per-accepted-iteration history so far.
    pub history: Vec<IterationRecord>,
    /// The circuit as of the last completed iteration.
    pub current: Aig,
}

impl Checkpoint {
    /// Serializes the checkpoint to a single JSON object (one line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut history = Arr::new();
        for rec in &self.history {
            history = history.obj(
                Obj::new()
                    .f64("estimated_error", rec.estimated_error)
                    .u64("ands", rec.ands as u64)
                    .u64("rounds", rec.rounds as u64),
            );
        }
        Obj::new()
            .str("type", "alsrac_checkpoint")
            .u64("version", CHECKPOINT_VERSION)
            .str("seed", &format!("{:016x}", self.seed))
            .str("metric", &self.metric.to_string())
            .f64("threshold", self.threshold)
            .u64("iterations", self.iterations as u64)
            .u64("applied", self.applied as u64)
            .u64("rounds", self.care.rounds as u64)
            .u64("empty_streak", self.care.empty_streak as u64)
            .u64("over_streak", self.care.over_streak as u64)
            .u64("stuck_streak", self.care.stuck_streak as u64)
            .arr("history", history)
            .obj("aig", aig_to_obj(&self.current))
            .finish()
    }

    /// Parses and validates a checkpoint serialized by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::FlowError::Checkpoint`] on malformed JSON, an
    /// unknown version, missing or out-of-range fields, or an AIG whose
    /// replay does not reproduce the stored node ids.
    pub fn parse(text: &str) -> Result<Checkpoint, crate::FlowError> {
        parse_impl(text).map_err(|reason| crate::FlowError::Checkpoint { reason })
    }
}

fn parse_impl(text: &str) -> Result<Checkpoint, String> {
    let v = Json::parse(text)?;
    if v.get("type").and_then(Json::as_str) != Some("alsrac_checkpoint") {
        return Err("not an alsrac_checkpoint object".to_string());
    }
    let version = field_u64(&v, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        ));
    }
    let seed_hex = v.get("seed").and_then(Json::as_str).ok_or("missing seed")?;
    let seed = u64::from_str_radix(seed_hex, 16).map_err(|e| format!("bad seed: {e}"))?;
    let metric = parse_metric(
        v.get("metric")
            .and_then(Json::as_str)
            .ok_or("missing metric")?,
    )?;
    let threshold = v
        .get("threshold")
        .and_then(Json::as_f64)
        .ok_or("missing threshold")?;
    let iterations = field_u64(&v, "iterations")? as usize;
    let applied = field_u64(&v, "applied")? as usize;
    let rounds = field_u64(&v, "rounds")? as usize;
    if rounds == 0 {
        return Err("rounds must be positive".to_string());
    }
    let care = CareRounds {
        rounds,
        empty_streak: field_u64(&v, "empty_streak")? as usize,
        over_streak: field_u64(&v, "over_streak")? as usize,
        stuck_streak: field_u64(&v, "stuck_streak")? as usize,
    };

    let mut history = Vec::new();
    for (i, rec) in v
        .get("history")
        .and_then(Json::as_arr)
        .ok_or("missing history")?
        .iter()
        .enumerate()
    {
        history.push(IterationRecord {
            estimated_error: rec
                .get("estimated_error")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("history[{i}]: missing estimated_error"))?,
            ands: rec
                .get("ands")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("history[{i}]: missing ands"))? as usize,
            rounds: rec
                .get("rounds")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("history[{i}]: missing rounds"))?
                as usize,
        });
    }
    if history.len() != applied {
        return Err(format!(
            "history length {} disagrees with applied {applied}",
            history.len()
        ));
    }

    let current = aig_from_json(v.get("aig").ok_or("missing aig")?)?;
    Ok(Checkpoint {
        seed,
        metric,
        threshold,
        iterations,
        applied,
        care,
        history,
        current,
    })
}

fn field_u64(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {name:?}"))
}

fn parse_metric(s: &str) -> Result<ErrorMetric, String> {
    // Inverse of the `Display` impl in `alsrac-metrics`.
    match s {
        "ER" => Ok(ErrorMetric::ErrorRate),
        "NMED" => Ok(ErrorMetric::Nmed),
        "MRED" => Ok(ErrorMetric::Mred),
        "WCE" => Ok(ErrorMetric::Wce),
        other => Err(format!("unknown metric {other:?}")),
    }
}

/// Serializes an AIG whose nodes are laid out inputs-first (the only
/// layout the flow produces: `cleaned()` and the optimizer both rebuild
/// that way). Fanins are a flat array — `alsrac_rt::json` arrays don't
/// nest — with the k-th AND's pair at positions `2k`, `2k + 1`.
fn aig_to_obj(aig: &Aig) -> Obj {
    // The flat encoding implies the layout; a graph violating it (inputs
    // declared after ANDs) would serialize to a *different* circuit, so
    // refuse outright rather than write a wrong checkpoint.
    for (i, &id) in aig.inputs().iter().enumerate() {
        assert_eq!(
            id.index(),
            i + 1,
            "checkpoint serialization requires an inputs-first node layout"
        );
    }
    let mut inputs = Arr::new();
    for i in 0..aig.num_inputs() {
        inputs = inputs.str(aig.input_name(i));
    }
    let mut fanins = Arr::new();
    for id in aig.iter_ands() {
        // `iter_ands` over an inputs-first graph yields exactly the nodes
        // after the inputs; `aig_from_json` verifies this layout on replay.
        let (f0, f1) = match aig.node(id).fanins() {
            Some(pair) => pair,
            None => unreachable!("iter_ands yielded a non-AND node"),
        };
        fanins = fanins.u64(u64::from(f0.raw())).u64(u64::from(f1.raw()));
    }
    let mut outputs = Arr::new();
    for out in aig.outputs() {
        outputs = outputs.obj(
            Obj::new()
                .str("name", &out.name)
                .u64("lit", u64::from(out.lit.raw())),
        );
    }
    Obj::new()
        .str("name", aig.name())
        .arr("inputs", inputs)
        .arr("fanins", fanins)
        .arr("outputs", outputs)
}

fn aig_from_json(v: &Json) -> Result<Aig, String> {
    let name = v.get("name").and_then(Json::as_str).ok_or("aig: no name")?;
    let inputs = v
        .get("inputs")
        .and_then(Json::as_arr)
        .ok_or("aig: no inputs")?;
    let fanins = v
        .get("fanins")
        .and_then(Json::as_arr)
        .ok_or("aig: no fanins")?;
    if fanins.len() % 2 != 0 {
        return Err("aig: odd fanin array length".to_string());
    }
    let outputs = v
        .get("outputs")
        .and_then(Json::as_arr)
        .ok_or("aig: no outputs")?;

    let mut aig = Aig::new(name);
    for (i, input) in inputs.iter().enumerate() {
        aig.add_input(
            input
                .as_str()
                .ok_or_else(|| format!("aig: input {i} is not a string"))?,
        );
    }
    let num_inputs = inputs.len();
    for (k, pair) in fanins.chunks(2).enumerate() {
        let raw = |j: usize| -> Result<Lit, String> {
            let raw = pair[j]
                .as_u64()
                .ok_or_else(|| format!("aig: fanin {} is not an integer", 2 * k + j))?;
            let raw = u32::try_from(raw).map_err(|_| format!("aig: fanin {raw} out of range"))?;
            let lit = Lit::from_raw(raw);
            // Topological order: fanins only reference already-built nodes.
            if lit.node().index() > num_inputs + k {
                return Err(format!("aig: fanin {raw} references a later node"));
            }
            Ok(lit)
        };
        let produced = aig.and(raw(0)?, raw(1)?);
        // Replay verification: the k-th stored AND must land on the node
        // id it had when serialized (no fold, no strash hit, positive
        // polarity) — otherwise later raw literals would silently point
        // at different functions.
        let expected = NodeId::new(num_inputs + 1 + k).lit();
        if produced != expected {
            return Err(format!(
                "aig: AND {k} replayed to literal {} instead of {} — \
                 checkpoint graph is not strash-canonical",
                produced.raw(),
                expected.raw()
            ));
        }
    }
    let num_nodes = aig.num_nodes();
    for (i, out) in outputs.iter().enumerate() {
        let name = out
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("aig: output {i} has no name"))?;
        let raw = out
            .get("lit")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("aig: output {i} has no lit"))?;
        let raw = u32::try_from(raw).map_err(|_| format!("aig: output lit {raw} out of range"))?;
        let lit = Lit::from_raw(raw);
        if lit.node().index() >= num_nodes {
            return Err(format!("aig: output {i} drives dangling literal {raw}"));
        }
        aig.add_output(name, lit);
    }
    Ok(aig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowError;

    fn sample() -> Checkpoint {
        Checkpoint {
            seed: 0xDEAD_BEEF_0BAD_F00D, // above 2^53: exercises the hex path
            metric: ErrorMetric::ErrorRate,
            threshold: 0.05,
            iterations: 17,
            applied: 2,
            care: CareRounds {
                rounds: 24,
                empty_streak: 1,
                over_streak: 0,
                stuck_streak: 3,
            },
            history: vec![
                IterationRecord {
                    estimated_error: 0.1f64 / 3.0, // not exactly representable in decimal
                    ands: 40,
                    rounds: 32,
                },
                IterationRecord {
                    estimated_error: 0.046875,
                    ands: 36,
                    rounds: 24,
                },
            ],
            current: alsrac_circuits::arith::ripple_carry_adder(3).cleaned(),
        }
    }

    fn assert_same_aig(a: &Aig, b: &Aig) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_inputs(), b.num_inputs());
        for i in 0..a.num_inputs() {
            assert_eq!(a.input_name(i), b.input_name(i));
        }
        for id in a.iter_nodes() {
            assert_eq!(a.node(id), b.node(id), "node {}", id.index());
        }
        assert_eq!(a.outputs(), b.outputs());
    }

    #[test]
    fn round_trips_bit_exactly() {
        let cp = sample();
        let text = cp.to_json();
        let back = Checkpoint::parse(&text).expect("parse");
        assert_eq!(back.seed, cp.seed);
        assert_eq!(back.metric, cp.metric);
        assert_eq!(back.threshold.to_bits(), cp.threshold.to_bits());
        assert_eq!(back.iterations, cp.iterations);
        assert_eq!(back.applied, cp.applied);
        assert_eq!(back.care, cp.care);
        assert_eq!(back.history.len(), cp.history.len());
        for (x, y) in back.history.iter().zip(&cp.history) {
            assert_eq!(x.estimated_error.to_bits(), y.estimated_error.to_bits());
            assert_eq!(x.ands, y.ands);
            assert_eq!(x.rounds, y.rounds);
        }
        assert_same_aig(&back.current, &cp.current);
        // And the text itself is stable: serialize → parse → serialize is
        // the identity.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn rejects_malformed_checkpoints() {
        let good = sample().to_json();
        for (label, bad) in [
            ("garbage", "not json".to_string()),
            ("wrong type", "{\"type\":\"something_else\"}".to_string()),
            (
                "future version",
                good.replace("\"version\":1", "\"version\":999"),
            ),
            ("zero rounds", good.replace("\"rounds\":24", "\"rounds\":0")),
            (
                "history/applied mismatch",
                good.replace("\"applied\":2", "\"applied\":5"),
            ),
        ] {
            let err = Checkpoint::parse(&bad).expect_err(label);
            assert!(matches!(err, FlowError::Checkpoint { .. }), "{label}");
        }
    }

    #[test]
    fn rejects_tampered_graphs() {
        // Duplicating an AND's fanin pair makes replay strash-hit an
        // earlier node, shifting every later id: must be rejected, not
        // silently resumed.
        let cp = sample();
        let text = cp.to_json();
        let marker = "\"fanins\":[";
        let start = text.find(marker).expect("fanins present") + marker.len();
        let rest = &text[start..];
        let end = start + rest.find(']').expect("closes");
        let fanins = &text[start..end];
        let first_pair: Vec<&str> = fanins.splitn(3, ',').take(2).collect();
        let tampered = format!(
            "{}{},{},{}{}",
            &text[..start],
            first_pair[0],
            first_pair[1],
            fanins,
            &text[end..]
        );
        let err = Checkpoint::parse(&tampered).expect_err("tampered graph");
        let FlowError::Checkpoint { reason } = err else {
            panic!("wrong variant");
        };
        assert!(reason.contains("replayed"), "{reason}");
    }

    #[test]
    fn rejects_dangling_references() {
        let cp = sample();
        let text = cp.to_json();
        // An output literal far past the node count.
        let tampered = {
            let marker = "\"outputs\":[{\"name\":";
            let start = text.find(marker).expect("outputs present");
            let lit_marker = "\"lit\":";
            let lit_at = start + text[start..].find(lit_marker).expect("lit") + lit_marker.len();
            let lit_end = lit_at + text[lit_at..].find('}').expect("closes");
            format!("{}99999{}", &text[..lit_at], &text[lit_end..])
        };
        let err = Checkpoint::parse(&tampered).expect_err("dangling output");
        let FlowError::Checkpoint { reason } = err else {
            panic!("wrong variant");
        };
        assert!(reason.contains("dangling"), "{reason}");
    }
}
