//! Miter construction between an original and an approximate circuit.
//!
//! A [`Miter`] is one AIG, swept, encoded into one incremental solver. The
//! AIG holds the original, the approximate circuit structurally hashed onto
//! it over shared inputs, a per-output XOR feeding an *any-difference*
//! OR, and — for circuits with 1..=63 outputs, read as unsigned
//! little-endian integers (output `i` contributes `2^i`, matching
//! `alsrac-metrics`) — two ripple borrow-subtractors whose borrow-out
//! selects `|original − approx|`. [`crate::sweep`] then merges every node
//! pair it proves equal, so the queries that follow see one variable for
//! logic the two circuits share and search only where they really
//! differ. Merges follow UNSAT proofs only: every answer is the one an
//! unswept encoding gives.
//!
//! On top of that a miter certifies the **maximum error distance** (WCE):
//! each `distance > t` query encodes a greater-than comparator inside a
//! solver scope, so it retracts cleanly while learned clauses persist.
//!
//! The any-difference literal is asserted via *assumptions*, never as a
//! clause, so one miter serves equivalence checking ([`crate::cec`]),
//! error-rate counting ([`crate::count`]) and WCE certification back to
//! back.

use alsrac_aig::{Aig, Lit, Node};
use alsrac_rt::budget::Budget;

use crate::encode::Encoding;
use crate::sweep::{sweep, SweepStats};
use crate::{SatLit, SatResult, Solver, Var};

/// A two-circuit miter with materialized outputs and WCE machinery.
pub struct Miter {
    /// The underlying solver; exposed so counting and certification
    /// drivers can push scopes and add constraints of their own.
    pub solver: Solver,
    inputs: Vec<Var>,
    differs: SatLit,
    /// Bits of |original - approx| (LSB first); empty when the circuits
    /// have more than 63 outputs (distance undecodable, as in metrics).
    dist_bits: Vec<Var>,
    /// Witness of the most recent `Sat` distance query: (distance, inputs).
    last_witness: Option<(u64, Vec<bool>)>,
    sweep: SweepStats,
}

impl Miter {
    /// Builds the miter between `original` and `approx`, without a
    /// budget: its queries never answer [`SatResult::Unknown`].
    ///
    /// # Panics
    ///
    /// Panics if the circuits disagree in input or output counts.
    pub fn new(original: &Aig, approx: &Aig) -> Miter {
        Miter::build(original, approx, None)
    }

    /// Builds the miter under `budget`, which the sweep's proofs run under
    /// first and which is then attached to the solver for every query.
    ///
    /// A fired cancel token or deadline stops the sweep; the miter stays
    /// exact, just less swept, and its next query answers Unknown. A SAT
    /// cap keeps its per-solve meaning: each sweep proof runs under the
    /// smaller of it and the sweep's own conflict limit, and an Unknown
    /// proof only skips that merge.
    ///
    /// # Panics
    ///
    /// Panics if the circuits disagree in input or output counts.
    pub fn budgeted(original: &Aig, approx: &Aig, budget: &Budget) -> Miter {
        Miter::build(original, approx, Some(budget))
    }

    fn build(original: &Aig, approx: &Aig, budget: Option<&Budget>) -> Miter {
        assert_eq!(
            original.num_inputs(),
            approx.num_inputs(),
            "miter input arity"
        );
        assert_eq!(
            original.num_outputs(),
            approx.num_outputs(),
            "miter output arity"
        );
        let aig = miter_aig(original, approx);
        let swept = sweep(&aig, budget.unwrap_or(&Budget::unlimited()));
        let mut solver = swept.solver;
        // Materialize each distance bit into its own variable so the
        // comparator can be encoded over plain `Var`s.
        let dist_bits = swept.outputs[1..]
            .iter()
            .map(|&lit| {
                let v = solver.new_var();
                solver.add_clause(&[v.negative(), lit]);
                solver.add_clause(&[v.positive(), !lit]);
                v
            })
            .collect();
        if let Some(budget) = budget {
            solver.set_budget(budget.clone());
        }
        Miter {
            solver,
            inputs: swept.inputs,
            differs: swept.outputs[0],
            dist_bits,
            last_witness: None,
            sweep: swept.stats,
        }
    }

    /// What the sweep did while building this miter.
    pub fn sweep_stats(&self) -> SweepStats {
        self.sweep
    }

    /// Shared primary-input variables (index = circuit input index).
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// The literal asserting *some output differs*; pass it as an
    /// assumption (or inside a scope) — it is never asserted globally.
    pub fn differs(&self) -> SatLit {
        self.differs
    }

    /// Whether error distances are decodable (1..=63 outputs).
    pub fn has_distance(&self) -> bool {
        !self.dist_bits.is_empty()
    }

    /// Reads the input assignment of the current model (LSB of the model
    /// as the solver saw it; unassigned pure inputs default to their saved
    /// phase, which is a valid completion).
    pub fn model_inputs(&self) -> Vec<bool> {
        self.inputs
            .iter()
            .map(|&v| self.solver.model_value(v))
            .collect()
    }

    /// Reads |A - B| from the current model.
    ///
    /// # Panics
    ///
    /// Panics if distances are not decodable ([`Self::has_distance`]).
    pub fn model_distance(&self) -> u64 {
        assert!(self.has_distance(), "distance undecodable (>63 outputs)");
        let mut d = 0u64;
        for (i, &bit) in self.dist_bits.iter().enumerate() {
            d |= u64::from(self.solver.model_value(bit)) << i;
        }
        d
    }

    /// Is there an input with error distance strictly greater than `t`?
    ///
    /// Encodes a `> t` comparator inside a fresh solver scope (retracted
    /// before returning), so repeated queries reuse learned clauses. On
    /// `Sat`, [`Self::model_distance`] / [`Self::model_inputs`] expose a
    /// witness. A budgeted solver (see [`Solver::set_budget`]) may answer
    /// [`SatResult::Unknown`]; the scope is still popped and the miter
    /// stays usable.
    ///
    /// # Panics
    ///
    /// Panics if distances are not decodable ([`Self::has_distance`]).
    pub fn distance_exceeds(&mut self, t: u64) -> SatResult {
        assert!(self.has_distance(), "distance undecodable (>63 outputs)");
        let width = self.dist_bits.len();
        if t >> width != 0 {
            return SatResult::Unsat; // |A - B| < 2^width <= t + 1
        }
        self.solver.push_scope();
        let cmp = gt_const_aig(width, t);
        let enc = Encoding::with_inputs(&mut self.solver, &cmp, &self.dist_bits);
        let gt = enc.sat_lit(cmp.outputs()[0].lit);
        let result = self.solver.solve_with_assumptions(&[gt]);
        // Read the witness *before* popping: the pop backtracks the trail.
        let witness = match result {
            SatResult::Sat => Some((self.model_distance(), self.model_inputs())),
            SatResult::Unsat | SatResult::Unknown => None,
        };
        self.solver.pop_scope();
        self.last_witness = witness;
        result
    }

    /// Certifies the exact maximum error distance by binary search on
    /// [`Self::distance_exceeds`]. Every `Sat` answer tightens the lower
    /// bound to the *witnessed* distance, so the search typically needs
    /// far fewer than `width` queries.
    ///
    /// With a budgeted solver the search can be cut short by an `Unknown`
    /// answer; it then stops and reports an **incomplete** certificate.
    /// The interval it carries is still sound: `max_distance` is a proven
    /// upper bound (from `Unsat` answers or the trivial `2^width − 1`) and
    /// `lower_bound` a witnessed, achievable distance.
    ///
    /// # Panics
    ///
    /// Panics if distances are not decodable ([`Self::has_distance`]).
    pub fn certify_max_distance(&mut self) -> WceCertificate {
        assert!(self.has_distance(), "distance undecodable (>63 outputs)");
        let width = self.dist_bits.len() as u32;
        let mut lo = 0u64; // a witnessed, achievable distance
        let mut hi = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }; // invariant: max distance <= hi
        let mut queries = 0u64;
        let mut witness = None;
        let mut complete = true;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            queries += 1;
            match self.distance_exceeds(mid) {
                SatResult::Sat => {
                    let (d, inputs) = self
                        .last_witness
                        .take()
                        .expect("Sat distance query leaves a witness");
                    debug_assert!(d > mid, "witness must exceed the bound");
                    lo = d.max(mid + 1);
                    witness = Some(inputs);
                }
                SatResult::Unsat => hi = mid,
                SatResult::Unknown => {
                    complete = false;
                    break;
                }
            }
        }
        WceCertificate {
            max_distance: hi,
            lower_bound: lo.min(hi),
            complete,
            queries,
            witness,
        }
    }
}

/// Result of a WCE certification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WceCertificate {
    /// The maximum error distance over all inputs: exact when
    /// [`Self::complete`], otherwise a proven upper bound.
    pub max_distance: u64,
    /// A witnessed, achievable distance (equals [`Self::max_distance`]
    /// when the search completed).
    pub lower_bound: u64,
    /// Whether the binary search ran to completion. `false` only when a
    /// solver budget cut a query short ([`SatResult::Unknown`]).
    pub complete: bool,
    /// Number of `distance > t` SAT queries the binary search issued.
    pub queries: u64,
    /// An input assignment achieving [`Self::lower_bound`] (None iff it
    /// is 0).
    pub witness: Option<Vec<bool>>,
}

/// The unswept miter AIG: `original`, `approx` hashed onto it over shared
/// inputs, the any-difference output, then (for 1..=63 outputs) the bits
/// of `|original − approx|`, LSB first.
fn miter_aig(original: &Aig, approx: &Aig) -> Aig {
    let mut aig = Aig::new("miter");
    let inputs = aig.add_inputs("x", original.num_inputs());
    let a = append(&mut aig, original, &inputs);
    let b = append(&mut aig, approx, &inputs);
    let diffs: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| aig.xor(x, y)).collect();
    let any = aig.or_all(&diffs);
    aig.add_output("differs", any);
    if (1..=63).contains(&a.len()) {
        for (i, bit) in abs_diff(&mut aig, &a, &b).into_iter().enumerate() {
            aig.add_output(format!("d{i}"), bit);
        }
    }
    aig
}

/// Rebuilds `circuit` inside `aig` over the given input literals (through
/// structural hashing) and returns its output literals.
fn append(aig: &mut Aig, circuit: &Aig, inputs: &[Lit]) -> Vec<Lit> {
    let mut map: Vec<Lit> = Vec::with_capacity(circuit.num_nodes());
    let lift = |map: &[Lit], f: Lit| map[f.node().index()].complement_if(f.is_complement());
    for id in circuit.iter_nodes() {
        let lit = match *circuit.node(id) {
            Node::Const => Lit::FALSE,
            Node::Input { index } => inputs[index as usize],
            Node::And { f0, f1 } => aig.and(lift(&map, f0), lift(&map, f1)),
        };
        map.push(lit);
    }
    circuit
        .outputs()
        .iter()
        .map(|o| lift(&map, o.lit))
        .collect()
}

/// Builds `|a − b|` (both LSB first, equal widths) into `aig`.
///
/// Two ripple borrow-subtractors compute a−b and b−a; the borrow-out of
/// a−b selects which one is the magnitude (borrow set ⇔ a < b).
fn abs_diff(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let (ab, ab_borrow) = subtract(aig, a, b);
    let (ba, _) = subtract(aig, b, a);
    ab.iter()
        .zip(&ba)
        .map(|(&ab_i, &ba_i)| aig.mux(ab_borrow, ba_i, ab_i))
        .collect()
}

/// Ripple borrow-subtractor: returns (x − y mod 2^width, borrow-out).
fn subtract(aig: &mut Aig, x: &[Lit], y: &[Lit]) -> (Vec<Lit>, Lit) {
    let mut borrow = Lit::FALSE;
    let mut out = Vec::with_capacity(x.len());
    for (&xi, &yi) in x.iter().zip(y) {
        let xy = aig.xor(xi, yi);
        out.push(aig.xor(xy, borrow));
        // borrow_out = (!x & y) | (xnor(x, y) & borrow_in)
        let lend = aig.and(!xi, yi);
        let keep = aig.and(!xy, borrow);
        borrow = aig.or(lend, keep);
    }
    (out, borrow)
}

/// Builds a comparator circuit: one output, true iff the `width`-bit
/// little-endian input value is strictly greater than the constant `t`.
fn gt_const_aig(width: usize, t: u64) -> Aig {
    let mut aig = Aig::new("gt_const");
    let bits = aig.add_inputs("v", width);
    // MSB-first: gt accumulates "already greater on a higher bit while all
    // bits above agreed"; eq accumulates "all bits so far agree with t".
    let mut gt = Lit::FALSE;
    let mut eq = Lit::TRUE;
    for i in (0..width).rev() {
        let ti = t >> i & 1 != 0;
        if !ti {
            let here = aig.and(eq, bits[i]);
            gt = aig.or(gt, here);
        }
        // eq &= (bits[i] == ti)
        let agree = bits[i].complement_if(!ti);
        eq = aig.and(eq, agree);
    }
    aig.add_output("gt", gt);
    aig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_u64(aig: &Aig, inputs: &[bool]) -> u64 {
        aig.evaluate(inputs)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    /// `|a − b|` as a circuit of its own: `width` bits of a, then of b.
    fn abs_diff_aig(width: usize) -> Aig {
        let mut aig = Aig::new("abs_diff");
        let a = aig.add_inputs("a", width);
        let b = aig.add_inputs("b", width);
        for (i, bit) in abs_diff(&mut aig, &a, &b).into_iter().enumerate() {
            aig.add_output(format!("d{i}"), bit);
        }
        aig
    }

    #[test]
    fn abs_diff_circuit_is_exact() {
        let width = 4;
        let aig = abs_diff_aig(width);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let mut inputs = Vec::with_capacity(2 * width);
                for i in 0..width {
                    inputs.push(a >> i & 1 != 0);
                }
                for i in 0..width {
                    inputs.push(b >> i & 1 != 0);
                }
                assert_eq!(eval_u64(&aig, &inputs), a.abs_diff(b), "|{a}-{b}|");
            }
        }
    }

    #[test]
    fn gt_const_circuit_is_exact() {
        let width = 4;
        for t in 0u64..16 {
            let aig = gt_const_aig(width, t);
            for v in 0u64..16 {
                let inputs: Vec<bool> = (0..width).map(|i| v >> i & 1 != 0).collect();
                assert_eq!(aig.evaluate(&inputs)[0], v > t, "{v} > {t}");
            }
        }
    }

    #[test]
    fn identical_circuits_never_differ() {
        let a = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut miter = Miter::new(&a, &a.clone());
        let differs = miter.differs();
        assert_eq!(
            miter.solver.solve_with_assumptions(&[differs]),
            SatResult::Unsat
        );
        let cert = miter.certify_max_distance();
        assert_eq!(cert.max_distance, 0);
        assert_eq!(cert.witness, None);
    }

    #[test]
    fn wce_matches_exhaustive_evaluation() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        // Drop the top sum bit: distance spikes when that bit is set.
        let last = approx.num_outputs() - 1;
        approx.set_output_lit(last, Lit::FALSE);

        let n = original.num_inputs();
        let mut want = 0u64;
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            let d = eval_u64(&original, &bits).abs_diff(eval_u64(&approx, &bits));
            want = want.max(d);
        }

        let mut miter = Miter::new(&original, &approx);
        let cert = miter.certify_max_distance();
        assert_eq!(cert.max_distance, want);
        let witness = cert.witness.expect("nonzero distance has a witness");
        let d = eval_u64(&original, &witness).abs_diff(eval_u64(&approx, &witness));
        assert_eq!(d, want, "witness must achieve the maximum");
    }

    #[test]
    fn complete_certificates_have_matching_bounds() {
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        approx.set_output_lit(0, Lit::FALSE);
        let mut miter = Miter::new(&original, &approx);
        let cert = miter.certify_max_distance();
        assert!(cert.complete);
        assert_eq!(cert.lower_bound, cert.max_distance);
    }

    #[test]
    fn budget_starved_wce_search_reports_a_sound_interval() {
        use alsrac_rt::budget::Budget;
        let original = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut approx = original.clone();
        let last = approx.num_outputs() - 1;
        approx.set_output_lit(last, Lit::FALSE);
        let mut reference = Miter::new(&original, &approx);
        let exact = reference.certify_max_distance();
        assert!(exact.complete);

        let mut miter = Miter::new(&original, &approx);
        // Every query answers Unknown: the search must stop immediately
        // with the trivial-but-sound interval, not loop or lie.
        miter
            .solver
            .set_budget(Budget::default().with_sat_propagations(0));
        let cert = miter.certify_max_distance();
        assert!(!cert.complete);
        assert!(cert.lower_bound <= exact.max_distance);
        assert!(cert.max_distance >= exact.max_distance, "upper bound sound");
        assert_eq!(miter.solver.scope_depth(), 0);
        // Clearing the budget, the same miter finishes the job.
        miter.solver.clear_budget();
        let again = miter.certify_max_distance();
        assert!(again.complete);
        assert_eq!(again.max_distance, exact.max_distance);
    }

    #[test]
    fn distance_queries_are_repeatable_after_scope_pops() {
        let original = alsrac_circuits::arith::ripple_carry_adder(2);
        let mut approx = original.clone();
        approx.set_output_lit(0, Lit::FALSE);
        let mut miter = Miter::new(&original, &approx);
        let first = miter.certify_max_distance();
        let second = miter.certify_max_distance();
        assert_eq!(first.max_distance, second.max_distance);
        // And the plain differs() query still works on the same miter.
        let differs = miter.differs();
        assert_eq!(
            miter.solver.solve_with_assumptions(&[differs]),
            SatResult::Sat
        );
    }

    /// The oracle: the miter as built before sweeping. Both circuits are
    /// Tseitin-encoded side by side, every output is materialized, XOR and
    /// OR clauses define the difference, and the distance circuit is
    /// encoded over the materialized outputs.
    fn unswept(original: &Aig, approx: &Aig) -> Miter {
        let mut solver = Solver::new();
        let (enc_a, inputs) = Encoding::new(&mut solver, original);
        let enc_b = Encoding::with_inputs(&mut solver, approx, &inputs);
        let out_a = materialize(&mut solver, original, &enc_a);
        let out_b = materialize(&mut solver, approx, &enc_b);
        let diff_any = solver.new_var();
        let mut any_clause = vec![diff_any.negative()];
        for (&a, &b) in out_a.iter().zip(&out_b) {
            let d = solver.new_var();
            solver.add_clause(&[d.negative(), a.positive(), b.positive()]);
            solver.add_clause(&[d.negative(), a.negative(), b.negative()]);
            solver.add_clause(&[d.positive(), a.negative(), b.positive()]);
            solver.add_clause(&[d.positive(), a.positive(), b.negative()]);
            solver.add_clause(&[d.negative(), diff_any.positive()]);
            any_clause.push(d.positive());
        }
        solver.add_clause(&any_clause);
        let dist_bits = if (1..=63).contains(&original.num_outputs()) {
            let abs = abs_diff_aig(original.num_outputs());
            let io: Vec<Var> = out_a.iter().chain(&out_b).copied().collect();
            let enc = Encoding::with_inputs(&mut solver, &abs, &io);
            materialize(&mut solver, &abs, &enc)
        } else {
            Vec::new()
        };
        Miter {
            solver,
            inputs,
            differs: diff_any.positive(),
            dist_bits,
            last_witness: None,
            sweep: SweepStats::default(),
        }
    }

    /// Each output of `aig` (under `enc`) in a fresh variable.
    fn materialize(solver: &mut Solver, aig: &Aig, enc: &Encoding) -> Vec<Var> {
        aig.outputs()
            .iter()
            .map(|out| {
                let lit = enc.sat_lit(out.lit);
                let v = solver.new_var();
                solver.add_clause(&[v.negative(), lit]);
                solver.add_clause(&[v.positive(), !lit]);
                v
            })
            .collect()
    }

    /// `certify.rs`'s output-cube corruption: output `position` flips
    /// where the first `n − 6` inputs are all 1.
    fn corrupted(original: &Aig, position: usize) -> Aig {
        let mut approx = original.clone();
        let keep = original.num_inputs().saturating_sub(6);
        let cube: Vec<Lit> = approx.inputs()[..keep].iter().map(|id| id.lit()).collect();
        let gate = approx.and_all(&cube);
        let flipped = approx.xor(approx.output_lits()[position], gate);
        approx.set_output_lit(position, flipped);
        approx
    }

    /// Every Test-scale catalog circuit with at most 63 outputs, each
    /// against three approximations: the output-cube corruption of its
    /// top output, a copy whose outputs are all constant 0, and the final
    /// circuit of an 8-iteration WCE flow at bound 4.
    fn oracle_pairs() -> &'static [(String, Aig, Aig)] {
        static PAIRS: std::sync::OnceLock<Vec<(String, Aig, Aig)>> = std::sync::OnceLock::new();
        PAIRS.get_or_init(build_oracle_pairs)
    }

    fn build_oracle_pairs() -> Vec<(String, Aig, Aig)> {
        use alsrac_circuits::catalog::{epfl_arith, epfl_control, iscas_and_arith, Scale};
        let mut pairs = Vec::new();
        for bench in iscas_and_arith(Scale::Test)
            .into_iter()
            .chain(epfl_control(Scale::Test))
            .chain(epfl_arith(Scale::Test))
            .filter(|b| b.aig.num_outputs() <= 63)
        {
            let original = bench.aig;
            let name = bench.paper_name;
            let top = original.num_outputs() - 1;
            pairs.push((
                format!("{name}/cube"),
                original.clone(),
                corrupted(&original, top),
            ));
            let mut constant = original.clone();
            for o in 0..constant.num_outputs() {
                constant.set_output_lit(o, Lit::FALSE);
            }
            pairs.push((format!("{name}/const"), original.clone(), constant));
            let config = alsrac::flow::FlowConfig {
                metric: alsrac_metrics::ErrorMetric::Wce,
                threshold: 4.0,
                max_iterations: 8,
                ..alsrac::flow::FlowConfig::default()
            };
            let flow = alsrac::flow::run(&original, &config).expect("WCE flow");
            pairs.push((format!("{name}/flow"), original, flow.approx));
        }
        pairs
    }

    /// Counting enumerates every differing input, so beyond this many
    /// inputs it is compared only on the cube corruptions, which differ on
    /// at most 64 inputs.
    const COUNT_INPUT_LIMIT: usize = 8;

    #[test]
    fn swept_miter_answers_like_the_unswept_oracle() {
        let mut merges = 0;
        for (name, original, approx) in oracle_pairs() {
            let mut swept = Miter::new(original, approx);
            let mut oracle = unswept(original, approx);
            merges += swept.sweep_stats().merges;
            let differs = |m: &mut Miter| {
                let lit = m.differs();
                m.solver.solve_with_assumptions(&[lit])
            };
            assert_eq!(differs(&mut swept), differs(&mut oracle), "{name}: differs");
            let max = oracle.certify_max_distance().max_distance;
            assert_eq!(
                swept.certify_max_distance().max_distance,
                max,
                "{name}: WCE"
            );
            for t in [0, 1, max.saturating_sub(1), max, max + 1] {
                assert_eq!(
                    swept.distance_exceeds(t),
                    oracle.distance_exceeds(t),
                    "{name}: distance > {t}"
                );
            }
            if original.num_inputs() <= COUNT_INPUT_LIMIT || name.ends_with("/cube") {
                assert_eq!(
                    crate::count::count_errors_exact(&mut swept).count,
                    crate::count::count_errors_exact(&mut oracle).count,
                    "{name}: error count"
                );
            }
        }
        assert!(merges > 0, "the sweep merged nothing");
    }

    #[test]
    fn swept_aig_computes_the_miter_aig() {
        for (name, original, approx) in oracle_pairs() {
            if original.num_inputs() > 14 {
                continue;
            }
            let aig = miter_aig(original, approx);
            let swept = sweep(&aig, &Budget::unlimited());
            assert_eq!(
                swept.aig.evaluate_exhaustive(),
                aig.evaluate_exhaustive(),
                "{name}"
            );
        }
    }

    #[test]
    fn counterexamples_split_pairs_random_patterns_cannot() {
        use alsrac_circuits::arith::{carry_lookahead_adder, ripple_carry_adder};
        // On 33 inputs the corruption cube fires on 2^-27 of them, so no
        // random pattern sees it: the flipped output and the cube's wide
        // ANDs share a signature with unequal nodes until a counterexample
        // splits them.
        for original in [ripple_carry_adder(16), carry_lookahead_adder(16)] {
            let approx = corrupted(&original, original.num_outputs() - 1);
            let aig = miter_aig(&original, &approx);
            let swept = sweep(&aig, &Budget::unlimited());
            assert!(swept.stats.refuted > 0, "no pair was refuted");
            assert!(swept.stats.merges > 0, "no pair was merged");
            // A wrong merge shows on the inputs that fire the cube.
            let n = aig.num_inputs();
            let mut rng = alsrac_rt::Rng::from_seed(7);
            for _ in 0..64 {
                let bits: Vec<bool> = (0..n).map(|i| i < n - 6 || rng.gen_bool(0.5)).collect();
                assert_eq!(swept.aig.evaluate(&bits), aig.evaluate(&bits));
            }
            let mut miter = Miter::new(&original, &approx);
            let mut oracle = unswept(&original, &approx);
            let max = oracle.certify_max_distance().max_distance;
            assert_eq!(miter.certify_max_distance().max_distance, max);
            for t in [max - 1, max] {
                assert_eq!(miter.distance_exceeds(t), oracle.distance_exceeds(t));
            }
        }
    }
}
