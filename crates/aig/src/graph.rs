//! The [`Aig`] graph structure and its construction API.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::{FxHasher, Lit, NodeId};

/// One node of an [`Aig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// The constant-false node (always node 0).
    Const,
    /// A primary input; `index` is its position in the input list.
    Input {
        /// Position of this input in [`Aig::inputs`].
        index: u32,
    },
    /// A two-input AND gate over two literals, normalized so `f0 < f1`.
    And {
        /// First (smaller) fanin literal.
        f0: Lit,
        /// Second (larger) fanin literal.
        f1: Lit,
    },
}

impl Node {
    /// Returns `true` if this node is an AND gate.
    #[inline]
    pub fn is_and(&self) -> bool {
        matches!(self, Node::And { .. })
    }

    /// Returns the fanin literals if this node is an AND gate.
    #[inline]
    pub fn fanins(&self) -> Option<(Lit, Lit)> {
        match *self {
            Node::And { f0, f1 } => Some((f0, f1)),
            _ => None,
        }
    }
}

/// A named primary output driven by a literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// Output name (used by BLIF writers and reports).
    pub name: String,
    /// Driving literal.
    pub lit: Lit,
}

/// An AND-inverter graph.
///
/// See the [crate-level documentation](crate) for the invariants. All
/// construction goes through [`Aig::add_input`], [`Aig::and`] and the derived
/// gate helpers ([`Aig::or`], [`Aig::xor`], [`Aig::mux`], …), which maintain
/// structural hashing and topological order automatically.
#[derive(Clone)]
pub struct Aig {
    name: String,
    nodes: Vec<Node>,
    /// Structural hashing: normalized (f0.raw, f1.raw) -> node index.
    strash: HashMap<(u32, u32), u32, FxHasher>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<Output>,
}

impl Aig {
    /// Creates an empty graph containing only the constant node.
    pub fn new(name: impl Into<String>) -> Aig {
        Aig {
            name: name.into(),
            nodes: vec![Node::Const],
            strash: HashMap::default(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Returns the circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes including the constant and the inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes (the conventional "AIG size").
    pub fn num_ands(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_and()).count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Returns the node stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the primary input nodes in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Returns the name of input `position`.
    pub fn input_name(&self, position: usize) -> &str {
        &self.input_names[position]
    }

    /// Returns the primary outputs in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Returns the literals driving the primary outputs, in order.
    pub fn output_lits(&self) -> Vec<Lit> {
        self.outputs.iter().map(|o| o.lit).collect()
    }

    /// Iterates over all node ids in topological order (fanins first).
    pub fn iter_nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over the ids of the AND nodes in topological order.
    pub fn iter_ands(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_and())
            .map(|(i, _)| NodeId::new(i))
    }

    /// Appends a new primary input and returns its (positive) literal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node::Input {
            index: self.inputs.len() as u32,
        });
        self.inputs.push(id);
        self.input_names.push(name.into());
        id.lit()
    }

    /// Appends `count` primary inputs named `{prefix}{i}` and returns their
    /// literals.
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Lit> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}{i}")))
            .collect()
    }

    /// Declares `lit` as a primary output with the given name.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) {
        debug_assert!(lit.node().index() < self.nodes.len(), "dangling output");
        self.outputs.push(Output {
            name: name.into(),
            lit,
        });
    }

    /// Replaces the driver of output `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds.
    pub fn set_output_lit(&mut self, position: usize, lit: Lit) {
        self.outputs[position].lit = lit;
    }

    /// Returns the AND of two literals, creating a node only when necessary.
    ///
    /// Applies constant folding (`x & 0`, `x & 1`, `x & x`, `x & !x`) and
    /// structural hashing, so the result is canonical for the pair.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial folds.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (f0, f1) = if a.raw() < b.raw() { (a, b) } else { (b, a) };
        let key = (f0.raw(), f1.raw());
        match self.strash.entry(key) {
            Entry::Occupied(e) => NodeId::new(*e.get() as usize).lit(),
            Entry::Vacant(e) => {
                let id = NodeId::new(self.nodes.len());
                self.nodes.push(Node::And { f0, f1 });
                e.insert(id.index() as u32);
                id.lit()
            }
        }
    }

    /// Makes room for `ands` more AND nodes, so a graph rebuilt to a known
    /// bound allocates its node table and strash map once.
    pub(crate) fn reserve_ands(&mut self, ands: usize) {
        self.nodes.reserve(ands);
        self.strash.reserve(ands);
    }

    /// Returns the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns the XOR of two literals (two-level AND realization).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let p = self.and(a, !b);
        let q = self.and(!a, b);
        self.or(p, q)
    }

    /// Returns the XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Returns `if sel { t } else { e }`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let p = self.and(sel, t);
        let q = self.and(!sel, e);
        self.or(p, q)
    }

    /// Returns the AND of all literals in `lits` (true for an empty slice),
    /// built as a balanced tree.
    pub fn and_all(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Aig::and)
    }

    /// Returns the OR of all literals in `lits` (false for an empty slice),
    /// built as a balanced tree.
    pub fn or_all(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::or)
    }

    /// Returns the XOR of all literals in `lits` (false for an empty slice).
    pub fn xor_all(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        unit: Lit,
        mut op: impl FnMut(&mut Aig, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits {
            [] => unit,
            [single] => *single,
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(match pair {
                            [a, b] => op(self, *a, *b),
                            [a] => *a,
                            _ => unreachable!(),
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Computes the logic level (depth) of every node.
    ///
    /// Inputs and the constant have level 0; an AND node has level
    /// `1 + max(level(f0), level(f1))`.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::And { f0, f1 } = node {
                levels[i] = 1 + levels[f0.node().index()].max(levels[f1.node().index()]);
            }
        }
        levels
    }

    /// Returns the maximum level over the primary outputs (circuit depth).
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.lit.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the circuit on a single input assignment.
    ///
    /// This is the semantic reference evaluator used by tests; the
    /// `alsrac-sim` crate provides the fast 64-way parallel version.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} input values, got {}",
            self.inputs.len(),
            inputs.len()
        );
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match *node {
                Node::Const => false,
                Node::Input { index } => inputs[index as usize],
                Node::And { f0, f1 } => {
                    let v0 = values[f0.node().index()] ^ f0.is_complement();
                    let v1 = values[f1.node().index()] ^ f1.is_complement();
                    v0 && v1
                }
            };
        }
        self.outputs
            .iter()
            .map(|o| values[o.lit.node().index()] ^ o.lit.is_complement())
            .collect()
    }

    /// Evaluates the circuit exhaustively and returns, for each output, a
    /// bit-vector of `2^num_inputs` result bits (input pattern `p` at bit
    /// position `p`, inputs interpreted LSB-first).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than 20 inputs (the table would exceed
    /// a million entries per output).
    pub fn evaluate_exhaustive(&self) -> Vec<Vec<u64>> {
        let n = self.inputs.len();
        assert!(n <= 20, "exhaustive evaluation limited to 20 inputs");
        let patterns = 1usize << n;
        let words = patterns.div_ceil(64);
        let mut outs = vec![vec![0u64; words]; self.outputs.len()];
        let mut assignment = vec![false; n];
        for p in 0..patterns {
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = p >> i & 1 != 0;
            }
            for (o, value) in self.evaluate(&assignment).into_iter().enumerate() {
                if value {
                    outs[o][p / 64] |= 1 << (p % 64);
                }
            }
        }
        outs
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig(\"{}\": {} inputs, {} outputs, {} ands, depth {})",
            self.name,
            self.num_inputs(),
            self.num_outputs(),
            self.num_ands(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_circuit() -> Aig {
        let mut aig = Aig::new("xor2");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output("y", x);
        aig
    }

    #[test]
    fn constant_folds() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn fanins_are_normalized() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(b, a);
        let (f0, f1) = aig.node(x.node()).fanins().expect("and node");
        assert!(f0.raw() < f1.raw());
    }

    #[test]
    fn xor_truth_table() {
        let aig = xor_circuit();
        assert_eq!(aig.evaluate(&[false, false]), vec![false]);
        assert_eq!(aig.evaluate(&[true, false]), vec![true]);
        assert_eq!(aig.evaluate(&[false, true]), vec![true]);
        assert_eq!(aig.evaluate(&[true, true]), vec![false]);
    }

    #[test]
    fn mux_selects() {
        let mut aig = Aig::new("mux");
        let s = aig.add_input("s");
        let t = aig.add_input("t");
        let e = aig.add_input("e");
        let m = aig.mux(s, t, e);
        aig.add_output("y", m);
        for s_v in [false, true] {
            for t_v in [false, true] {
                for e_v in [false, true] {
                    let want = if s_v { t_v } else { e_v };
                    assert_eq!(aig.evaluate(&[s_v, t_v, e_v]), vec![want]);
                }
            }
        }
    }

    #[test]
    fn and_all_empty_is_true() {
        let mut aig = Aig::new("t");
        assert_eq!(aig.and_all(&[]), Lit::TRUE);
        assert_eq!(aig.or_all(&[]), Lit::FALSE);
        assert_eq!(aig.xor_all(&[]), Lit::FALSE);
    }

    #[test]
    fn and_all_matches_semantics() {
        let mut aig = Aig::new("t");
        let lits = aig.add_inputs("x", 5);
        let all = aig.and_all(&lits);
        let any = aig.or_all(&lits);
        let parity = aig.xor_all(&lits);
        aig.add_output("all", all);
        aig.add_output("any", any);
        aig.add_output("parity", parity);
        for p in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| p >> i & 1 != 0).collect();
            let out = aig.evaluate(&bits);
            assert_eq!(out[0], bits.iter().all(|&b| b));
            assert_eq!(out[1], bits.iter().any(|&b| b));
            assert_eq!(out[2], bits.iter().filter(|&&b| b).count() % 2 == 1);
        }
    }

    #[test]
    fn levels_and_depth() {
        let aig = xor_circuit();
        let levels = aig.levels();
        assert_eq!(levels[0], 0);
        // xor of two inputs = 3 ands, depth 2.
        assert_eq!(aig.depth(), 2);
        assert_eq!(aig.num_ands(), 3);
    }

    #[test]
    fn exhaustive_matches_single_evaluation() {
        let aig = xor_circuit();
        let table = aig.evaluate_exhaustive();
        for p in 0..4usize {
            let bits = [p & 1 != 0, p & 2 != 0];
            let want = aig.evaluate(&bits)[0];
            assert_eq!(table[0][0] >> p & 1 != 0, want);
        }
    }

    #[test]
    fn topological_invariant_holds() {
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 4);
        let s = aig.xor_all(&xs);
        aig.add_output("s", s);
        for id in aig.iter_ands() {
            let (f0, f1) = aig.node(id).fanins().expect("and");
            assert!(f0.node() < id);
            assert!(f1.node() < id);
        }
    }

    #[test]
    #[should_panic(expected = "expected 2 input values")]
    fn evaluate_validates_arity() {
        let aig = xor_circuit();
        aig.evaluate(&[true]);
    }
}
