//! Combinational equivalence checking and SAT-based resubstitution
//! feasibility.
//!
//! Two applications of the [`Solver`]:
//!
//! * [`equivalent`] — a [`Miter`] of the two circuits: shared inputs,
//!   outputs pairwise XORed and ORed, equal nodes swept together; UNSAT
//!   means equivalent. This verifies the exact optimizer and mappers
//!   beyond the exhaustive-simulation reach of unit tests.
//! * [`exact_resub_feasible`] / [`exact_resub_function`] — the *exact*
//!   version of the paper's Theorem 1 (from Mishchenko et al. [18]): a
//!   divisor set can express a node iff no two input patterns agree on all
//!   divisors but disagree on the node. ALSRAC's point is to replace this
//!   SAT query with simulation; implementing both sides lets the harness
//!   measure the runtime gap the paper claims.

use alsrac_aig::{Aig, Lit};

use crate::encode::Encoding;
use crate::miter::Miter;
use crate::{SatLit, SatResult, Solver, Var};

/// Outcome of an equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CecResult {
    /// The circuits implement the same function.
    Equivalent,
    /// A distinguishing input assignment (one bool per primary input).
    Counterexample(Vec<bool>),
}

/// Checks whether two circuits with identical interfaces are functionally
/// equivalent: one solve of their [`Miter`] under its any-difference
/// assumption. The sweep usually leaves little for that solve: logic the
/// two circuits share collapses onto one variable while the miter is
/// built.
///
/// # Panics
///
/// Panics if the circuits disagree in input or output counts.
pub fn equivalent(a: &Aig, b: &Aig) -> CecResult {
    let mut miter = Miter::new(a, b);
    let differs = miter.differs();
    match miter.solver.solve_with_assumptions(&[differs]) {
        // A miter built without a budget never answers Unknown.
        SatResult::Unknown => unreachable!("unbudgeted miter answered Unknown"),
        SatResult::Unsat => CecResult::Equivalent,
        // Any completion of a partial model is a valid counterexample.
        SatResult::Sat => CecResult::Counterexample(miter.model_inputs()),
    }
}

/// Checks the paper's Theorem 1 *exactly* with SAT: can some function of
/// the `divisors` reproduce the signal `node` on **all** input patterns?
///
/// Encodes two copies of the circuit over independent inputs, asserts that
/// every divisor agrees across the copies while `node` disagrees; UNSAT
/// means the divisors are feasible.
pub fn exact_resub_feasible(aig: &Aig, node: Lit, divisors: &[Lit]) -> bool {
    let mut solver = Solver::new();
    let (enc1, _inputs1) = Encoding::new(&mut solver, aig);
    let (enc2, _inputs2) = Encoding::new(&mut solver, aig);

    for &d in divisors {
        let l1 = enc1.sat_lit(d);
        let l2 = enc2.sat_lit(d);
        // l1 <-> l2.
        solver.add_clause(&[!l1, l2]);
        solver.add_clause(&[l1, !l2]);
    }
    let n1 = enc1.sat_lit(node);
    let n2 = enc2.sat_lit(node);
    solver.add_clause(&[n1, n2]);
    solver.add_clause(&[!n1, !n2]);
    solver.solve() == SatResult::Unsat
}

/// Derives the exact resubstitution function over feasible divisors as a
/// truth table (variable `i` = `divisors[i]`), with `None` for divisor
/// patterns that no input can produce (don't-cares) and for infeasible
/// divisor sets the first conflicting pattern makes the result `Err`.
///
/// For each divisor pattern, two SAT queries establish whether the node
/// can be 1 and whether it can be 0 under that pattern:
///
/// * only 1 → on-set; * only 0 → off-set; * neither → unreachable
///   (don't-care); * both → the divisors are infeasible.
///
/// # Errors
///
/// Returns `Err(pattern)` with the first divisor pattern that demands both
/// node values (infeasible divisors).
///
/// # Panics
///
/// Panics if `divisors` has more than 16 entries (4 already means 16
/// patterns × 2 SAT calls).
pub fn exact_resub_function(
    aig: &Aig,
    node: Lit,
    divisors: &[Lit],
) -> Result<Vec<Option<bool>>, usize> {
    assert!(divisors.len() <= 16, "too many divisors for enumeration");
    let mut solver = Solver::new();
    let (enc, _inputs) = Encoding::new(&mut solver, aig);
    let divisor_lits: Vec<SatLit> = divisors.iter().map(|&d| enc.sat_lit(d)).collect();
    let node_lit = enc.sat_lit(node);

    let mut table = Vec::with_capacity(1 << divisors.len());
    for pattern in 0..1usize << divisors.len() {
        let mut assumptions: Vec<SatLit> = divisor_lits
            .iter()
            .enumerate()
            .map(|(i, &l)| if pattern >> i & 1 != 0 { l } else { !l })
            .collect();
        assumptions.push(node_lit);
        let can_be_one = solver.solve_with_assumptions(&assumptions) == SatResult::Sat;
        *assumptions.last_mut().expect("node literal") = !node_lit;
        let can_be_zero = solver.solve_with_assumptions(&assumptions) == SatResult::Sat;
        table.push(match (can_be_one, can_be_zero) {
            (true, true) => return Err(pattern),
            (true, false) => Some(true),
            (false, true) => Some(false),
            (false, false) => None, // unreachable divisor pattern
        });
    }
    Ok(table)
}

/// Forces a variable assignment as assumptions (helper for external users
/// assembling custom queries).
pub fn assume_inputs(inputs: &[Var], bits: &[bool]) -> Vec<SatLit> {
    inputs
        .iter()
        .zip(bits)
        .map(|(&v, &bit)| v.lit(!bit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_circuits_pass() {
        let a = alsrac_circuits::arith::ripple_carry_adder(4);
        let b = alsrac_circuits::arith::carry_lookahead_adder(4);
        assert_eq!(equivalent(&a, &b), CecResult::Equivalent);
    }

    #[test]
    fn optimizer_output_is_sat_equivalent() {
        // The whole point: CEC verifies resyn2-lite beyond exhaustive reach.
        let a = alsrac_circuits::arith::wallace_multiplier(4);
        let b = alsrac_synth::optimize(&a);
        assert_eq!(equivalent(&a, &b), CecResult::Equivalent);
    }

    #[test]
    fn array_multiplier_is_equivalent_to_its_optimized_form() {
        let a = alsrac_circuits::arith::array_multiplier(8);
        let b = alsrac_synth::optimize(&a);
        assert_eq!(equivalent(&a, &b), CecResult::Equivalent);
    }

    #[test]
    fn a_corrupted_multiplier_yields_a_confirmed_counterexample() {
        let a = alsrac_circuits::arith::array_multiplier(8);
        let mut b = alsrac_synth::optimize(&a);
        // Flip one middle product bit where the low operand bits are all 1.
        let cube: Vec<Lit> = b.inputs()[..4].iter().map(|id| id.lit()).collect();
        let gate = b.and_all(&cube);
        let flipped = b.xor(b.output_lits()[7], gate);
        b.set_output_lit(7, flipped);
        let CecResult::Counterexample(cex) = equivalent(&a, &b) else {
            panic!("expected a counterexample");
        };
        assert_ne!(a.evaluate(&cex), b.evaluate(&cex));
    }

    #[test]
    fn different_circuits_yield_counterexamples() {
        let a = alsrac_circuits::arith::ripple_carry_adder(3);
        let mut b = a.clone();
        b.set_output_lit(0, alsrac_aig::Lit::FALSE);
        let CecResult::Counterexample(cex) = equivalent(&a, &b) else {
            panic!("expected a counterexample");
        };
        // The counterexample must actually distinguish them.
        assert_ne!(a.evaluate(&cex), b.evaluate(&cex));
    }

    #[test]
    fn theorem1_sat_check_matches_simulation_on_fig1() {
        // The paper's Example 2: {u, z} cannot exactly resubstitute v.
        let mut aig = alsrac_aig::Aig::new("fig1");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let u = aig.or(c, d);
        let anb = aig.and(a, !b);
        let bnc = aig.and(b, !c);
        let z = aig.or(anb, bnc);
        let v = aig.xor(z, !c);
        aig.add_output("v", v);
        assert!(!exact_resub_feasible(&aig, v, &[u, z]));
        // But {z, c} is feasible: v = z ^ !c is a function of them.
        assert!(exact_resub_feasible(&aig, v, &[z, c]));
    }

    #[test]
    fn exact_function_derivation() {
        let mut aig = alsrac_aig::Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output("x", x);
        let table = exact_resub_function(&aig, x, &[a, b]).expect("feasible");
        assert_eq!(
            table,
            vec![Some(false), Some(true), Some(true), Some(false)]
        );
    }

    #[test]
    fn exact_function_reports_infeasibility() {
        let mut aig = alsrac_aig::Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output("x", x);
        // x is not a function of a alone.
        assert!(exact_resub_function(&aig, x, &[a]).is_err());
    }

    #[test]
    fn unreachable_divisor_patterns_are_dont_cares() {
        let mut aig = alsrac_aig::Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let and = aig.and(a, b);
        let or = aig.or(a, b);
        aig.add_output("o", or);
        // Divisors {and, or}: pattern (and=1, or=0) is unreachable.
        let table = exact_resub_function(&aig, or, &[and, or]).expect("feasible");
        assert_eq!(table[0b01], None); // and=1, or=0 impossible
        assert_eq!(table[0b11], Some(true));
    }
}
