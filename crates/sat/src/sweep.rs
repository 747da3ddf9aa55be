//! SAT sweeping: rebuild an AIG with its provably equal nodes merged.
//!
//! Simulation proposes, SAT confirms. Sweeping is how a
//! [`Miter`](crate::miter::Miter) gets small before its first query:
//!
//! 1. Rebuild the AIG in topological order through [`Aig::and`], so
//!    structural hashing shares whatever has become syntactically equal,
//!    and Tseitin-encode every new AND into one incremental solver.
//! 2. Simulate each new AND on 1,024 random patterns from a constant seed
//!    as it is built. Its phase-normalized simulation words are its
//!    signature.
//! 3. For each new AND, try the earlier unmerged nodes with the same
//!    signature, oldest first; constant 0 is one of them. Two assumption
//!    solves, `x ∧ ¬y` and then `¬x ∧ y`, each under at most 100
//!    conflicts, decide a pair:
//!    * both UNSAT: the node is merged. The solver gets the two
//!      equivalence clauses, and every later node is built on the earlier
//!      one;
//!    * SAT: the model is a counterexample. Its value at every node
//!      extends every signature by one bit, which tells the pair apart
//!      (with every other pair that input separates) before the next
//!      candidate is tried;
//!    * Unknown: no merge.
//!
//! Nodes merge only after an UNSAT proof, so the rebuilt AIG computes the
//! same outputs as its input and every later query on the solver gets the
//! same answer it would without the sweep. Budgets only decide how much
//! gets merged. Without counterexample refinement, near-constant nodes
//! (a carry chain is 0 on almost every random pattern) crowd into one
//! class and the sweep spends its time refuting the same kind of pair.

use std::collections::HashMap;

use alsrac_aig::{Aig, Lit, Node, NodeId};
use alsrac_rt::budget::Budget;
use alsrac_sim::PatternBuffer;

use crate::{SatLit, SatResult, Solver, Var};

/// Random patterns behind the signatures.
const PATTERNS: usize = 1024;
/// Simulation words per node.
const WORDS: usize = PATTERNS / 64;
/// Seed of those patterns. A constant, so a sweep is a pure function of
/// its AIG.
const PATTERN_SEED: u64 = 0x5eed_5a75;
/// Conflict limit of each of the two solves that prove a pair equal. A
/// pair the solver cannot settle this cheaply stays unmerged: the query
/// that follows still sees exact logic, only less of it shared.
const PROOF_CONFLICTS: u64 = 100;

/// What one sweep did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Nodes merged into an earlier node after an UNSAT proof.
    pub merges: u64,
    /// Candidate pairs a counterexample told apart.
    pub refuted: u64,
}

/// A swept AIG, Tseitin-encoded into an incremental solver.
pub(crate) struct Swept {
    /// Every AND of the rebuilt AIG plus the equivalence clauses of every
    /// merge. No budget is attached.
    pub solver: Solver,
    /// Solver variables of the primary inputs, in input order.
    pub inputs: Vec<Var>,
    /// Solver literals of the swept AIG's outputs, in output order.
    pub outputs: Vec<SatLit>,
    pub stats: SweepStats,
    /// The rebuilt AIG, whose outputs are the swept outputs.
    #[cfg(test)]
    pub aig: Aig,
}

/// Sweeps `aig` (see the [module docs](self)).
///
/// The proofs run under `budget`, with its conflict cap lowered to
/// [`PROOF_CONFLICTS`]; an Unknown answer skips that merge. Once the
/// budget's cancel token or deadline fires, the sweep stops proving and
/// only rebuilds, so the result stays exact, just less swept.
pub(crate) fn sweep(aig: &Aig, budget: &Budget) -> Swept {
    let patterns = PatternBuffer::random(aig.num_inputs(), PATTERNS, PATTERN_SEED);
    let mut sweeper = Sweeper::new(budget);
    // Swept literal of every node of `aig`.
    let mut map: Vec<Lit> = Vec::with_capacity(aig.num_nodes());
    for id in aig.iter_nodes() {
        let lit = match *aig.node(id) {
            Node::Const => Lit::FALSE,
            Node::Input { index } => sweeper.add_input(patterns.input_words(index as usize)),
            Node::And { f0, f1 } => {
                let lift = |f: Lit| map[f.node().index()].complement_if(f.is_complement());
                sweeper.add_and(lift(f0), lift(f1))
            }
        };
        map.push(lit);
    }
    let outputs: Vec<Lit> = aig
        .outputs()
        .iter()
        .map(|out| map[out.lit.node().index()].complement_if(out.lit.is_complement()))
        .collect();
    sweeper.finish(&outputs)
}

struct Sweeper<'b> {
    /// The rebuilt AIG.
    aig: Aig,
    solver: Solver,
    inputs: Vec<Var>,
    /// Per rebuilt node: its solver variable.
    vars: Vec<Var>,
    /// Per rebuilt node: itself, or the earlier node it was merged into.
    repr: Vec<Lit>,
    /// Per rebuilt node, [`WORDS`] words: its values on the random patterns.
    sim: Vec<u64>,
    /// Per rebuilt node, `cex_words` words: its value under each
    /// counterexample (bits at and above `num_cex` are junk).
    cex: Vec<u64>,
    cex_words: usize,
    num_cex: usize,
    /// Unmerged rebuilt nodes by signature key, oldest first.
    classes: HashMap<u64, Vec<u32>>,
    budget: &'b Budget,
    /// Cleared once the budget's cancel token or deadline fires.
    proving: bool,
    stats: SweepStats,
}

impl<'b> Sweeper<'b> {
    fn new(budget: &'b Budget) -> Sweeper<'b> {
        let mut solver = Solver::new();
        let constant = solver.new_var();
        solver.add_clause(&[constant.negative()]);
        let mut proof_budget = budget.clone();
        proof_budget.sat.max_conflicts = Some(
            budget
                .sat
                .max_conflicts
                .map_or(PROOF_CONFLICTS, |cap| cap.min(PROOF_CONFLICTS)),
        );
        solver.set_budget(proof_budget);
        let mut sweeper = Sweeper {
            aig: Aig::new("swept"),
            solver,
            inputs: Vec::new(),
            vars: vec![constant],
            repr: vec![Lit::FALSE],
            sim: vec![0; WORDS],
            cex: Vec::new(),
            cex_words: 0,
            num_cex: 0,
            classes: HashMap::new(),
            budget,
            proving: true,
            stats: SweepStats::default(),
        };
        sweeper.classes.insert(sweeper.key(0), vec![0]);
        sweeper
    }

    fn finish(mut self, outputs: &[Lit]) -> Swept {
        self.solver.clear_budget();
        #[cfg(test)]
        for (i, &lit) in outputs.iter().enumerate() {
            self.aig.add_output(format!("o{i}"), lit);
        }
        Swept {
            outputs: outputs.iter().map(|&lit| self.sat_lit(lit)).collect(),
            solver: self.solver,
            inputs: self.inputs,
            stats: self.stats,
            #[cfg(test)]
            aig: self.aig,
        }
    }

    fn sat_lit(&self, lit: Lit) -> SatLit {
        self.vars[lit.node().index()].lit(lit.is_complement())
    }

    /// Simulation words of a rebuilt node.
    fn sim_words(&self, node: usize) -> &[u64] {
        &self.sim[node * WORDS..(node + 1) * WORDS]
    }

    /// Whether a rebuilt node is 1 on the first pattern.
    fn phase(&self, node: usize) -> bool {
        self.sim[node * WORDS] & 1 != 0
    }

    /// Signature key: a hash of the phase-normalized simulation words.
    fn key(&self, node: usize) -> u64 {
        let flip = mask(self.phase(node));
        self.sim_words(node).iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w ^ flip).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }

    /// Appends a rebuilt node; its simulation and counterexample words
    /// are filled in by the caller.
    fn push_node(&mut self, lit: Lit, var: Var) {
        self.vars.push(var);
        self.repr.push(lit);
        self.sim.resize(self.sim.len() + WORDS, 0);
        self.cex.resize(self.cex.len() + self.cex_words, 0);
    }

    fn add_input(&mut self, words: &[u64]) -> Lit {
        // Counterexample bits come from models, which a later input would
        // miss: the miter declares every input before its first AND.
        debug_assert_eq!(self.num_cex, 0, "inputs must precede the first proof");
        let lit = self.aig.add_input(format!("i{}", self.inputs.len()));
        let var = self.solver.new_var();
        self.inputs.push(var);
        self.push_node(lit, var);
        let node = lit.node().index();
        self.sim[node * WORDS..(node + 1) * WORDS].copy_from_slice(words);
        self.classes
            .entry(self.key(node))
            .or_default()
            .push(node as u32);
        lit
    }

    fn add_and(&mut self, a: Lit, b: Lit) -> Lit {
        let before = self.aig.num_nodes();
        let lit = self.aig.and(a, b);
        if self.aig.num_nodes() == before {
            // Folded, or hashed onto a node that may since have merged.
            return self.repr[lit.node().index()].complement_if(lit.is_complement());
        }
        let var = self.solver.new_var();
        let (sa, sb) = (self.sat_lit(a), self.sat_lit(b));
        self.solver.add_clause(&[var.negative(), sa]);
        self.solver.add_clause(&[var.negative(), sb]);
        self.solver.add_clause(&[var.positive(), !sa, !sb]);
        self.push_node(lit, var);
        let node = lit.node().index();
        let (ma, mb) = (mask(a.is_complement()), mask(b.is_complement()));
        for w in 0..WORDS {
            let value = (self.sim[a.node().index() * WORDS + w] ^ ma)
                & (self.sim[b.node().index() * WORDS + w] ^ mb);
            self.sim[node * WORDS + w] = value;
        }
        for w in 0..self.cex_words {
            let value = (self.cex[a.node().index() * self.cex_words + w] ^ ma)
                & (self.cex[b.node().index() * self.cex_words + w] ^ mb);
            self.cex[node * self.cex_words + w] = value;
        }
        let key = self.key(node);
        let mut class = self.classes.remove(&key).unwrap_or_default();
        let merged = if self.proving {
            self.find_equal(node, &class)
        } else {
            None
        };
        let result = match merged {
            Some(target) => {
                self.repr[node] = target;
                target
            }
            None => {
                class.push(node as u32);
                lit
            }
        };
        self.classes.insert(key, class);
        result
    }

    /// Whether `node` and `other` (complemented when `flip`) agree on every
    /// simulation pattern and every counterexample.
    fn same_signature(&self, node: usize, other: usize, flip: bool) -> bool {
        let mask = mask(flip);
        let (a, b) = (self.sim_words(node), self.sim_words(other));
        if a.iter().zip(b).any(|(&x, &y)| x != y ^ mask) {
            return false;
        }
        (0..self.cex_words).all(|w| {
            let valid = match self.num_cex - 64 * w {
                n if n >= 64 => u64::MAX,
                n => (1u64 << n) - 1,
            };
            let x = self.cex[node * self.cex_words + w];
            let y = self.cex[other * self.cex_words + w];
            (x ^ y ^ mask) & valid == 0
        })
    }

    /// Tries the candidates of `class` against the new `node`, oldest
    /// first; returns the literal it was proven equal to.
    fn find_equal(&mut self, node: usize, class: &[u32]) -> Option<Lit> {
        let x = self.vars[node].positive();
        for &other in class {
            let other = other as usize;
            let flip = self.phase(node) != self.phase(other);
            if !self.same_signature(node, other, flip) {
                continue;
            }
            let y = self.vars[other].lit(flip);
            let result = match self.solver.solve_with_assumptions(&[x, !y]) {
                SatResult::Unsat => self.solver.solve_with_assumptions(&[!x, y]),
                other => other,
            };
            match result {
                SatResult::Unsat => {
                    self.solver.add_clause(&[!x, y]);
                    self.solver.add_clause(&[x, !y]);
                    self.stats.merges += 1;
                    return Some(Lit::new(NodeId::new(other), flip));
                }
                SatResult::Sat => {
                    self.add_counterexample();
                    self.stats.refuted += 1;
                }
                SatResult::Unknown => {
                    self.proving = self.budget.interrupted().is_none();
                    return None;
                }
            }
        }
        None
    }

    /// Records the current model as one more counterexample bit on every
    /// rebuilt node. A SAT model assigns every variable, and the Tseitin
    /// clauses make each node's value its value under the model's inputs.
    fn add_counterexample(&mut self) {
        if self.num_cex == 64 * self.cex_words {
            let words = self.cex_words + 1;
            let mut grown = vec![0u64; self.vars.len() * words];
            for (node, row) in grown.chunks_exact_mut(words).enumerate() {
                row[..self.cex_words]
                    .copy_from_slice(&self.cex[node * self.cex_words..(node + 1) * self.cex_words]);
            }
            self.cex = grown;
            self.cex_words = words;
        }
        // Overwrite, not OR: bits at and above `num_cex` hold junk.
        let (w, bit) = (self.num_cex / 64, self.num_cex % 64);
        for (node, &var) in self.vars.iter().enumerate() {
            let word = &mut self.cex[node * self.cex_words + w];
            *word = *word & !(1u64 << bit) | u64::from(self.solver.model_value(var)) << bit;
        }
        self.num_cex += 1;
    }
}

/// All ones when `complement`, else zero: XOR it in to complement a word.
fn mask(complement: bool) -> u64 {
    if complement {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_keeps_twins_findable_among_many_near_constant_nodes() {
        // 96 random minterms over 14 inputs, each built twice (a chain and
        // a balanced tree), all of them outputs. Random patterns rarely
        // hit a minterm, so each starts in the class of constant 0 and
        // needs its own counterexample (more than a word of them); the
        // twins must still find each other, and nothing unequal may merge.
        let n = 14;
        let mut rng = alsrac_rt::Rng::from_seed(3);
        let mut aig = Aig::new("minterms");
        let inputs = aig.add_inputs("x", n);
        for i in 0..96 {
            let minterm = rng.next_u64();
            let lits: Vec<Lit> = (0..n)
                .map(|b| inputs[b].complement_if(minterm >> b & 1 == 0))
                .collect();
            let chain = lits.iter().fold(Lit::TRUE, |acc, &l| aig.and(acc, l));
            let tree = aig.and_all(&lits);
            aig.add_output(format!("c{i}"), chain);
            aig.add_output(format!("t{i}"), tree);
        }
        let swept = sweep(&aig, &Budget::unlimited());
        assert!(swept.stats.refuted > 64, "{:?}", swept.stats);
        assert!(swept.stats.merges >= 96, "{:?}", swept.stats);
        assert_eq!(swept.aig.evaluate_exhaustive(), aig.evaluate_exhaustive());
        for pair in swept.outputs.chunks(2) {
            assert_eq!(pair[0], pair[1], "twins share one solver literal");
        }
    }
}
