//! Tseitin encoding of AIGs into CNF.

use alsrac_aig::{Aig, Lit, Node};

use crate::{SatLit, Solver, Var};

/// A CNF encoding of one copy of an [`Aig`] inside a [`Solver`].
///
/// Every node gets a solver variable; AND gates are encoded with the three
/// standard Tseitin clauses. Multiple encodings of the same or different
/// graphs can coexist in one solver (that is how miters are built).
#[derive(Clone, Debug)]
pub struct Encoding {
    node_vars: Vec<Var>,
}

impl Encoding {
    /// Encodes `aig` into `solver`, using `inputs` as the variables of the
    /// primary inputs (enables input sharing between two encodings).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != aig.num_inputs()`.
    pub fn with_inputs(solver: &mut Solver, aig: &Aig, inputs: &[Var]) -> Encoding {
        assert_eq!(inputs.len(), aig.num_inputs(), "input variable count");
        let mut node_vars = Vec::with_capacity(aig.num_nodes());
        for id in aig.iter_nodes() {
            let var = match *aig.node(id) {
                Node::Const => {
                    let v = solver.new_var();
                    solver.add_clause(&[v.negative()]); // constant false
                    v
                }
                Node::Input { index } => inputs[index as usize],
                Node::And { f0, f1 } => {
                    let v = solver.new_var();
                    let a = lit_to_sat(&node_vars, f0);
                    let b = lit_to_sat(&node_vars, f1);
                    // v <-> a & b.
                    solver.add_clause(&[v.negative(), a]);
                    solver.add_clause(&[v.negative(), b]);
                    solver.add_clause(&[v.positive(), !a, !b]);
                    v
                }
            };
            node_vars.push(var);
        }
        Encoding { node_vars }
    }

    /// Encodes `aig` with fresh input variables, returning them too.
    pub fn new(solver: &mut Solver, aig: &Aig) -> (Encoding, Vec<Var>) {
        let inputs: Vec<Var> = (0..aig.num_inputs()).map(|_| solver.new_var()).collect();
        let enc = Encoding::with_inputs(solver, aig, &inputs);
        (enc, inputs)
    }

    /// The solver literal corresponding to an AIG literal.
    pub fn sat_lit(&self, lit: Lit) -> SatLit {
        lit_to_sat(&self.node_vars, lit)
    }
}

fn lit_to_sat(node_vars: &[Var], lit: Lit) -> SatLit {
    node_vars[lit.node().index()].lit(lit.is_complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    #[test]
    fn encoding_agrees_with_evaluation() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.xor(a, b);
        let y = aig.mux(c, x, a);
        aig.add_output("y", y);

        // For every input pattern, assert the inputs and check the forced
        // output value matches the evaluator.
        for p in 0..8u32 {
            let mut solver = Solver::new();
            let (enc, inputs) = Encoding::new(&mut solver, &aig);
            let bits: Vec<bool> = (0..3).map(|i| p >> i & 1 != 0).collect();
            let want = aig.evaluate(&bits)[0];
            let assumptions: Vec<SatLit> = inputs
                .iter()
                .zip(&bits)
                .map(|(&v, &bit)| v.lit(!bit))
                .collect();
            // Force output to the complement of the expected value: UNSAT.
            let mut with_bad = assumptions.clone();
            with_bad.push(if want {
                !enc.sat_lit(y)
            } else {
                enc.sat_lit(y)
            });
            assert_eq!(
                solver.solve_with_assumptions(&with_bad),
                SatResult::Unsat,
                "pattern {p:03b}"
            );
            // Force the expected value: SAT.
            let mut with_good = assumptions;
            with_good.push(if want {
                enc.sat_lit(y)
            } else {
                !enc.sat_lit(y)
            });
            assert_eq!(solver.solve_with_assumptions(&with_good), SatResult::Sat);
        }
    }

    #[test]
    fn constant_node_is_false() {
        let mut aig = Aig::new("t");
        let _a = aig.add_input("a");
        aig.add_output("zero", Lit::FALSE);
        let mut solver = Solver::new();
        let (enc, _inputs) = Encoding::new(&mut solver, &aig);
        assert_eq!(
            solver.solve_with_assumptions(&[enc.sat_lit(Lit::FALSE)]),
            SatResult::Unsat
        );
        assert_eq!(
            solver.solve_with_assumptions(&[enc.sat_lit(Lit::TRUE)]),
            SatResult::Sat
        );
    }

    #[test]
    fn shared_inputs_couple_two_encodings() {
        // Encode x = a&b twice over shared inputs: the two outputs can
        // never differ.
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("x", x);

        let mut solver = Solver::new();
        let (enc1, inputs) = Encoding::new(&mut solver, &aig);
        let enc2 = Encoding::with_inputs(&mut solver, &aig, &inputs);
        // Ask for a difference.
        assert_eq!(
            solver.solve_with_assumptions(&[enc1.sat_lit(x), !enc2.sat_lit(x)]),
            SatResult::Unsat
        );
    }
}
