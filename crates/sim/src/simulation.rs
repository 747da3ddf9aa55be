//! Whole-graph bit-parallel simulation.

use alsrac_aig::{Aig, Lit, Node, NodeId};

use crate::{kernel, PatternBuffer};

/// The simulated values of every node of an [`Aig`] under a
/// [`PatternBuffer`].
///
/// Values are stored per node in positive polarity; [`Simulation::lit_word`]
/// applies edge complements on the fly. The layout is a flat
/// `nodes × words` matrix for cache-friendly sweeps.
#[derive(Clone, Debug)]
pub struct Simulation {
    num_words: usize,
    num_patterns: usize,
    /// `values[node * num_words + w]`.
    values: Vec<u64>,
}

/// Flattened primary-output words: all outputs of one simulation in a
/// single `outputs × words` allocation (`words[po * num_words + w]`).
///
/// Replaces the old nested `Vec<Vec<u64>>` shape: the flow compares output
/// words once per candidate, so the buffer is built and read on hot paths
/// and one allocation (instead of `num_outputs + 1`) matters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputWords {
    num_outputs: usize,
    num_words: usize,
    words: Vec<u64>,
}

impl OutputWords {
    /// An all-zero buffer of the given shape.
    pub fn zeroed(num_outputs: usize, num_words: usize) -> OutputWords {
        OutputWords {
            num_outputs,
            num_words,
            words: vec![0u64; num_outputs * num_words],
        }
    }

    /// Builds a buffer from one row of words per output (test convenience;
    /// rows must all have the same length).
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<u64>]) -> OutputWords {
        let num_words = rows.first().map_or(0, Vec::len);
        let mut words = Vec::with_capacity(rows.len() * num_words);
        for row in rows {
            assert_eq!(row.len(), num_words, "ragged output rows");
            words.extend_from_slice(row);
        }
        OutputWords {
            num_outputs: rows.len(),
            num_words,
            words,
        }
    }

    /// Number of outputs covered.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of words per output.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// The packed words of output `po`.
    #[inline]
    pub fn po(&self, po: usize) -> &[u64] {
        &self.words[po * self.num_words..(po + 1) * self.num_words]
    }

    /// Mutable words of output `po`.
    #[inline]
    pub fn po_mut(&mut self, po: usize) -> &mut [u64] {
        &mut self.words[po * self.num_words..(po + 1) * self.num_words]
    }

    /// Word `w` of output `po`.
    #[inline]
    pub fn word(&self, po: usize, w: usize) -> u64 {
        self.words[po * self.num_words + w]
    }
}

impl Simulation {
    /// Simulates `aig` on `patterns` in one topological sweep.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's input count differs from the graph's.
    pub fn new(aig: &Aig, patterns: &PatternBuffer) -> Simulation {
        assert_eq!(
            patterns.num_inputs(),
            aig.num_inputs(),
            "pattern buffer has {} inputs, graph has {}",
            patterns.num_inputs(),
            aig.num_inputs()
        );
        let num_words = patterns.num_words();
        let mut values = vec![0u64; aig.num_nodes() * num_words];
        for id in aig.iter_nodes() {
            let base = id.index() * num_words;
            match *aig.node(id) {
                Node::Const => {}
                Node::Input { index } => {
                    values[base..base + num_words]
                        .copy_from_slice(patterns.input_words(index as usize));
                }
                Node::And { f0, f1 } => {
                    let m0 = if f0.is_complement() { u64::MAX } else { 0 };
                    let m1 = if f1.is_complement() { u64::MAX } else { 0 };
                    let b0 = f0.node().index() * num_words;
                    let b1 = f1.node().index() * num_words;
                    // Fanin indices are strictly below the node index
                    // (topological construction), so splitting the arena at
                    // `base` yields disjoint source/destination rows.
                    let (lo, hi) = values.split_at_mut(base);
                    kernel::and_into(
                        &mut hi[..num_words],
                        &lo[b0..b0 + num_words],
                        &lo[b1..b1 + num_words],
                        m0,
                        m1,
                    );
                }
            }
        }
        // Telemetry: simulation volume is the flow's dominant cost driver,
        // so the sweep count and word throughput are worth a counter each.
        alsrac_rt::trace::add("simulations", 1);
        alsrac_rt::trace::add("sim_node_words", (aig.num_nodes() * num_words) as u64);
        Simulation {
            num_words,
            num_patterns: patterns.num_patterns(),
            values,
        }
    }

    /// Number of 64-pattern words per node.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Number of valid patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of nodes simulated (the node count of the simulated graph).
    pub fn num_nodes(&self) -> usize {
        self.values.len() / self.num_words
    }

    /// The packed values of `node` (positive polarity).
    pub fn node_words(&self, node: NodeId) -> &[u64] {
        let base = node.index() * self.num_words;
        &self.values[base..base + self.num_words]
    }

    /// Word `w` of `node` in positive polarity.
    #[inline]
    pub fn node_word(&self, node: NodeId, w: usize) -> u64 {
        self.values[node.index() * self.num_words + w]
    }

    /// Word `w` of a literal, with the complement applied.
    ///
    /// Note the complement flips *all 64 lanes*; callers working with a
    /// partial final word must mask with the buffer's
    /// [`word_mask`](PatternBuffer::word_mask).
    #[inline]
    pub fn lit_word(&self, lit: Lit, w: usize) -> u64 {
        let v = self.node_word(lit.node(), w);
        if lit.is_complement() {
            !v
        } else {
            v
        }
    }

    /// Value of `lit` under pattern `p`.
    pub fn lit_bit(&self, lit: Lit, p: usize) -> bool {
        (self.lit_word(lit, p / 64) >> (p % 64)) & 1 != 0
    }

    /// Word `w` of primary output `po` of `aig` (the graph the simulation
    /// was built from).
    pub fn output_word(&self, aig: &Aig, po: usize, w: usize) -> u64 {
        self.lit_word(aig.outputs()[po].lit, w)
    }

    /// Collects all output words into one flat allocation.
    pub fn output_words(&self, aig: &Aig) -> OutputWords {
        let mut out = OutputWords::zeroed(aig.num_outputs(), self.num_words);
        for (po, output) in aig.outputs().iter().enumerate() {
            let lit = output.lit;
            let base = lit.node().index() * self.num_words;
            let row = out.po_mut(po);
            if lit.is_complement() {
                kernel::not_into(row, &self.values[base..base + self.num_words]);
            } else {
                row.copy_from_slice(&self.values[base..base + self.num_words]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternBuffer;

    fn adder_bit() -> Aig {
        let mut aig = Aig::new("fa");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let cin = aig.add_input("cin");
        let axb = aig.xor(a, b);
        let sum = aig.xor(axb, cin);
        let ab = aig.and(a, b);
        let cx = aig.and(cin, axb);
        let cout = aig.or(ab, cx);
        aig.add_output("sum", sum);
        aig.add_output("cout", cout);
        aig
    }

    #[test]
    fn matches_reference_evaluator_exhaustively() {
        let aig = adder_bit();
        let patterns = PatternBuffer::exhaustive(3);
        let sim = Simulation::new(&aig, &patterns);
        for p in 0..8 {
            let bits: Vec<bool> = (0..3).map(|i| patterns.get(i, p)).collect();
            let want = aig.evaluate(&bits);
            for (po, &w) in want.iter().enumerate() {
                assert_eq!(
                    sim.lit_bit(aig.outputs()[po].lit, p),
                    w,
                    "pattern {p}, output {po}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_on_random_patterns() {
        let aig = adder_bit();
        let patterns = PatternBuffer::random(3, 200, 99);
        let sim = Simulation::new(&aig, &patterns);
        for p in (0..200).step_by(7) {
            let bits: Vec<bool> = (0..3).map(|i| patterns.get(i, p)).collect();
            let want = aig.evaluate(&bits);
            for (po, &wv) in want.iter().enumerate() {
                assert_eq!(sim.lit_bit(aig.outputs()[po].lit, p), wv);
            }
        }
    }

    #[test]
    fn constant_node_is_all_zero() {
        let mut aig = Aig::new("t");
        let _a = aig.add_input("a");
        aig.add_output("zero", alsrac_aig::Lit::FALSE);
        aig.add_output("one", alsrac_aig::Lit::TRUE);
        let patterns = PatternBuffer::random(1, 64, 3);
        let sim = Simulation::new(&aig, &patterns);
        assert_eq!(sim.output_word(&aig, 0, 0), 0);
        assert_eq!(sim.output_word(&aig, 1, 0), u64::MAX);
    }

    #[test]
    fn lit_word_applies_complement() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("y", !a);
        let patterns = PatternBuffer::exhaustive(1);
        let sim = Simulation::new(&aig, &patterns);
        assert_eq!(sim.lit_word(a, 0) & 0b11, 0b10);
        assert_eq!(sim.lit_word(!a, 0) & 0b11, 0b01);
    }

    #[test]
    fn output_words_shape() {
        let aig = adder_bit();
        let patterns = PatternBuffer::random(3, 130, 5);
        let sim = Simulation::new(&aig, &patterns);
        assert_eq!(sim.num_nodes(), aig.num_nodes());
        let outs = sim.output_words(&aig);
        assert_eq!(outs.num_outputs(), 2);
        assert_eq!(outs.num_words(), 3); // ceil(130/64)
        for po in 0..2 {
            for w in 0..3 {
                assert_eq!(outs.word(po, w), sim.output_word(&aig, po, w));
            }
        }
    }

    #[test]
    fn output_words_applies_output_complements() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("pos", a);
        aig.add_output("neg", !a);
        let patterns = PatternBuffer::exhaustive(1);
        let sim = Simulation::new(&aig, &patterns);
        let outs = sim.output_words(&aig);
        assert_eq!(outs.word(0, 0) & 0b11, 0b10);
        assert_eq!(outs.word(1, 0) & 0b11, 0b01);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1u64, 2], vec![3, 4]];
        let out = OutputWords::from_rows(&rows);
        assert_eq!(out.num_outputs(), 2);
        assert_eq!(out.num_words(), 2);
        assert_eq!(out.po(0), &[1, 2]);
        assert_eq!(out.po(1), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "inputs")]
    fn validates_input_arity() {
        let aig = adder_bit();
        let patterns = PatternBuffer::random(2, 64, 1);
        Simulation::new(&aig, &patterns);
    }
}
