//! Rebuilding: compaction, sweeping, and node substitution.
//!
//! ALSRAC never mutates AND nodes in place. A local approximate change first
//! *appends* the replacement logic to the graph (referencing existing
//! divisors), then asks for a rebuilt graph in which the target node is
//! substituted by the replacement literal. The rebuild walks the output
//! cones, re-applies structural hashing and constant folding, drops dangling
//! nodes, and re-checks acyclicity — so the result is always a valid,
//! compacted AIG.

use std::collections::HashMap;

use crate::{Aig, Lit, Node, NodeId, RebuildError};

enum Task {
    Visit(NodeId),
    Finish(NodeId),
}

const UNVISITED: u8 = 0;
const IN_PROGRESS: u8 = 1;
const DONE: u8 = 2;

impl Aig {
    /// Rebuilds the graph with every node in `substitutions` replaced by its
    /// target literal.
    ///
    /// The rebuilt graph contains only logic reachable from the primary
    /// outputs (dangling nodes are swept), is freshly structurally hashed,
    /// and keeps the inputs and output names of `self`. Substitutions chain:
    /// if `a -> lit(b)` and `b -> c`, then `a` ends up implemented by `c`'s
    /// replacement. Inputs can be substituted as well (the input node is
    /// still declared, but its logic no longer drives anything).
    ///
    /// # Errors
    ///
    /// * [`RebuildError::Cycle`] if a substitution makes a node depend on
    ///   itself.
    /// * [`RebuildError::SubstitutionOutOfBounds`] if a target literal
    ///   references a node outside the graph.
    ///
    /// # Example
    ///
    /// ```
    /// use std::collections::HashMap;
    /// use alsrac_aig::Aig;
    ///
    /// # fn main() -> Result<(), alsrac_aig::RebuildError> {
    /// let mut aig = Aig::new("t");
    /// let a = aig.add_input("a");
    /// let b = aig.add_input("b");
    /// let x = aig.xor(a, b);
    /// aig.add_output("y", x);
    ///
    /// // Replace the XOR by a plain OR (an approximate change). The map is
    /// // keyed by *node*, so compensate for the polarity of `x`.
    /// let replacement = aig.or(a, b).complement_if(x.is_complement());
    /// let approx = aig.rebuilt_with_substitutions(
    ///     &HashMap::from([(x.node(), replacement)]),
    /// )?;
    /// assert_eq!(approx.evaluate(&[true, true]), vec![true]); // was false
    /// # Ok(())
    /// # }
    /// ```
    pub fn rebuilt_with_substitutions(
        &self,
        substitutions: &HashMap<NodeId, Lit>,
    ) -> Result<Aig, RebuildError> {
        for (&node, &lit) in substitutions {
            if lit.node().index() >= self.num_nodes() {
                return Err(RebuildError::SubstitutionOutOfBounds { node });
            }
        }

        let mut out = Aig::new(self.name().to_string());
        // `map[old]` is the literal of `out` that old node `old` resolves
        // to, set once the node is finished.
        let mut map: Vec<Option<Lit>> = vec![None; self.num_nodes()];
        map[NodeId::CONST.index()] = Some(Lit::FALSE);
        for (pos, &input) in self.inputs().iter().enumerate() {
            let lit = out.add_input(self.input_name(pos).to_string());
            // A substituted input is still declared but resolves elsewhere.
            if !substitutions.contains_key(&input) {
                map[input.index()] = Some(lit);
            }
        }

        let mut state = vec![UNVISITED; self.num_nodes()];
        for i in 0..self.num_nodes() {
            if map[i].is_some() {
                state[i] = DONE;
            }
        }

        let mut stack = Vec::new();
        for output in self.outputs() {
            stack.push(Task::Visit(output.lit.node()));
            while let Some(task) = stack.pop() {
                match task {
                    Task::Visit(id) => match state[id.index()] {
                        DONE => {}
                        IN_PROGRESS => return Err(RebuildError::Cycle { node: id }),
                        _ => {
                            state[id.index()] = IN_PROGRESS;
                            stack.push(Task::Finish(id));
                            if let Some(&target) = substitutions.get(&id) {
                                stack.push(Task::Visit(target.node()));
                            } else if let Node::And { f0, f1 } = *self.node(id) {
                                stack.push(Task::Visit(f0.node()));
                                stack.push(Task::Visit(f1.node()));
                            }
                        }
                    },
                    Task::Finish(id) => {
                        let lit = if let Some(&target) = substitutions.get(&id) {
                            let mapped = map[target.node().index()]
                                .expect("substitution target visited before finish");
                            mapped.complement_if(target.is_complement())
                        } else {
                            match *self.node(id) {
                                Node::Const => Lit::FALSE,
                                Node::Input { .. } => {
                                    // Unsubstituted inputs were premapped; a
                                    // substituted input never reaches here.
                                    unreachable!("input not premapped")
                                }
                                Node::And { f0, f1 } => {
                                    let a = map[f0.node().index()]
                                        .expect("fanin visited before finish")
                                        .complement_if(f0.is_complement());
                                    let b = map[f1.node().index()]
                                        .expect("fanin visited before finish")
                                        .complement_if(f1.is_complement());
                                    out.and(a, b)
                                }
                            }
                        };
                        map[id.index()] = Some(lit);
                        state[id.index()] = DONE;
                    }
                }
            }
        }

        for output in self.outputs() {
            let mapped = map[output.lit.node().index()].expect("output cone visited");
            out.add_output(
                output.name.clone(),
                mapped.complement_if(output.lit.is_complement()),
            );
        }
        Ok(out)
    }

    /// Rebuilds the graph with no substitutions: sweeps dangling nodes,
    /// re-applies structural hashing and constant folding, and compacts node
    /// ids.
    ///
    /// Equivalent to ABC's `sweep` for a combinational AIG.
    pub fn cleaned(&self) -> Aig {
        self.rebuilt_with_substitutions(&HashMap::new())
            .expect("empty substitution cannot introduce cycles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_drops_dangling_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let keep = aig.and(a, b);
        let _dangling = aig.and(a, !b);
        aig.add_output("y", keep);
        assert_eq!(aig.num_ands(), 2);
        let clean = aig.cleaned();
        assert_eq!(clean.num_ands(), 1);
        assert_eq!(clean.num_inputs(), 2);
        assert_eq!(clean.evaluate(&[true, true]), vec![true]);
        assert_eq!(clean.evaluate(&[true, false]), vec![false]);
    }

    #[test]
    fn clean_preserves_names() {
        let mut aig = Aig::new("named");
        let a = aig.add_input("alpha");
        aig.add_output("omega", !a);
        let clean = aig.cleaned();
        assert_eq!(clean.name(), "named");
        assert_eq!(clean.input_name(0), "alpha");
        assert_eq!(clean.outputs()[0].name, "omega");
        assert_eq!(clean.evaluate(&[false]), vec![true]);
    }

    #[test]
    fn substitution_rewires_fanouts() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.xor(a, b);
        let y = aig.and(x, c);
        aig.add_output("y", y);
        // Substitute the XOR with just `a`. Substitution targets the *node*,
        // so compensate for the polarity of the literal xor() handed back.
        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([(
                x.node(),
                a.complement_if(x.is_complement()),
            )]))
            .expect("no cycle");
        // Now y = a & c.
        assert_eq!(rebuilt.evaluate(&[true, true, true]), vec![true]);
        assert_eq!(rebuilt.evaluate(&[false, true, true]), vec![false]);
        // The XOR cone is gone.
        assert_eq!(rebuilt.num_ands(), 1);
    }

    #[test]
    fn substitution_with_complement_target() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y", x);
        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([(x.node(), !a)]))
            .expect("no cycle");
        assert_eq!(rebuilt.evaluate(&[true, false]), vec![false]);
        assert_eq!(rebuilt.evaluate(&[false, false]), vec![true]);
        assert_eq!(rebuilt.num_ands(), 0);
    }

    #[test]
    fn substitution_to_constant() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let y = aig.or(x, a);
        aig.add_output("y", y);
        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([(x.node(), Lit::TRUE)]))
            .expect("no cycle");
        // y = 1 | a = 1.
        assert_eq!(rebuilt.evaluate(&[false, false]), vec![true]);
        assert_eq!(rebuilt.num_ands(), 0);
    }

    #[test]
    fn self_cycle_is_detected() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let y = aig.and(x, a); // y depends on x
        aig.add_output("y", y);
        // x := y creates x -> y -> x.
        let err = aig
            .rebuilt_with_substitutions(&HashMap::from([(x.node(), y)]))
            .expect_err("cycle");
        assert!(matches!(err, RebuildError::Cycle { .. }));
    }

    #[test]
    fn out_of_bounds_substitution_is_rejected() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("y", a);
        let bogus = NodeId::new(1000).lit();
        let err = aig
            .rebuilt_with_substitutions(&HashMap::from([(a.node(), bogus)]))
            .expect_err("out of bounds");
        assert!(matches!(err, RebuildError::SubstitutionOutOfBounds { .. }));
    }

    #[test]
    fn chained_substitutions_resolve() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b);
        let y = aig.xor(x, c);
        aig.add_output("y", y);
        // node(y) := x, node(x) := !c; the output reads node(y) through the
        // polarity xor() returned, so the output ends up as !c overall.
        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([
                (y.node(), x.complement_if(y.is_complement())),
                (x.node(), !c),
            ]))
            .expect("no cycle");
        assert_eq!(rebuilt.evaluate(&[true, true, false]), vec![true]);
        assert_eq!(rebuilt.evaluate(&[true, true, true]), vec![false]);
        assert_eq!(rebuilt.num_ands(), 0);
    }

    #[test]
    fn substituting_an_input_keeps_it_declared() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y", x);
        // Tie input a to constant true.
        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([(a.node(), Lit::TRUE)]))
            .expect("no cycle");
        assert_eq!(rebuilt.num_inputs(), 2);
        // y = b now.
        assert_eq!(rebuilt.evaluate(&[false, true]), vec![true]);
        assert_eq!(rebuilt.evaluate(&[false, false]), vec![false]);
    }

    #[test]
    fn rebuild_restrashes_merged_structures() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b);
        let y = aig.and(c, b);
        let top = aig.or(x, y);
        aig.add_output("y", top);
        // Substituting c := a makes x and y structurally identical; the
        // rebuild must merge them.
        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([(c.node(), a)]))
            .expect("no cycle");
        // or(x, x) folds to x: a single AND remains.
        assert_eq!(rebuilt.num_ands(), 1);
    }
}
