//! Truth tables of AIG cones.
//!
//! Rewriting, refactoring, and both technology mappers need the local
//! function a node computes over a chosen cut. [`CutEvaluator`] walks the
//! cone once and sweeps its interior word-parallel, building tables for the
//! cone's nodes only.

use alsrac_aig::{Aig, Lit, Node, NodeId};

use crate::Tt;

/// Evaluates the function of a node over a cut. Per-node marks are
/// epoch-stamped and kept across calls (the [`alsrac_aig::MffcScratch`]
/// idiom), so a call costs time in proportion to the cone, not the graph,
/// and allocates nothing once warm apart from the table that
/// [`CutEvaluator::tt`] returns. One evaluator may serve any number of
/// graphs.
///
/// Leaf `i` is variable `i`. The constant node reads 0 unless it is listed
/// as a leaf; a root that is itself a leaf gives its projection. A cone
/// that reaches an input that is not a leaf gives `None`: the leaves are
/// not a cut of the root.
///
/// ```
/// use alsrac_aig::Aig;
/// use alsrac_truthtable::{CutEvaluator, Tt};
///
/// let mut aig = Aig::new("t");
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let x = aig.xor(a, b);
/// let mut eval = CutEvaluator::new();
/// let tt = eval.tt(&aig, x, &[a.node(), b.node()]).expect("valid cut");
/// assert_eq!(tt, Tt::var(0, 2).xor(&Tt::var(1, 2)));
/// assert_eq!(eval.word(&aig, x, &[a.node(), b.node()]), Some(0b0110));
/// assert_eq!(eval.interior().len(), 3); // an XOR is three ANDs
/// ```
#[derive(Clone, Debug, Default)]
pub struct CutEvaluator {
    /// `stamp[i] == epoch`: node `i` is in the current cone, and its table
    /// is slot `slot[i]` of `words`.
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    interior: Vec<NodeId>,
    /// The current cone's tables: the constant, the leaves, the interior.
    words: Vec<u64>,
}

impl CutEvaluator {
    /// An empty evaluator; sized lazily on first use.
    pub fn new() -> CutEvaluator {
        CutEvaluator::default()
    }

    /// The function of `root` over at most 6 `leaves` as one word, as
    /// [`Tt::to_bits`] returns it.
    pub fn word(&mut self, aig: &Aig, root: Lit, leaves: &[NodeId]) -> Option<u64> {
        assert!(leaves.len() <= 6, "a word holds at most 6 variables");
        self.evaluate(aig, root, leaves)?;
        Some(self.lit_word(root, 0, 1) & Tt::tail_mask(leaves.len()))
    }

    /// The function of `root` over at most [`MAX_VARS`](crate::MAX_VARS)
    /// `leaves`.
    pub fn tt(&mut self, aig: &Aig, root: Lit, leaves: &[NodeId]) -> Option<Tt> {
        let width = self.evaluate(aig, root, leaves)?;
        let words = (0..width).map(|j| self.lit_word(root, j, width));
        Some(Tt::from_words(leaves.len(), words))
    }

    /// The interior AND nodes of the cone last evaluated to `Some`, in
    /// ascending (topological) order; empty when the root is a leaf.
    pub fn interior(&self) -> &[NodeId] {
        &self.interior
    }

    /// Builds the tables of the cone of `root` over `leaves` and returns
    /// their width in words.
    fn evaluate(&mut self, aig: &Aig, root: Lit, leaves: &[NodeId]) -> Option<usize> {
        let width = Tt::words_for(leaves.len());
        if self.stamp.len() < aig.num_nodes() {
            self.stamp.resize(aig.num_nodes(), 0);
            self.slot.resize(aig.num_nodes(), 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        // Slot 0 is the constant, reading 0, unless a leaf takes it over;
        // slot `1 + i` is leaf `i`, the projection of variable `i`.
        self.words.clear();
        self.words.resize(width, 0);
        let slotted = std::iter::once(NodeId::CONST).chain(leaves.iter().copied());
        for (slot, node) in (0..).zip(slotted) {
            self.stamp[node.index()] = epoch;
            self.slot[node.index()] = slot;
        }
        for var in 0..leaves.len() {
            self.words.extend((0..width).map(|j| Tt::var_word(var, j)));
        }

        self.interior.clear();
        self.stack.clear();
        self.stack.push(root.node());
        while let Some(id) = self.stack.pop() {
            if std::mem::replace(&mut self.stamp[id.index()], epoch) == epoch {
                continue;
            }
            let Node::And { f0, f1 } = *aig.node(id) else {
                return None;
            };
            self.interior.push(id);
            self.stack.extend([f0.node(), f1.node()]);
        }
        // Fanins precede their fanouts, so ascending order fills every
        // fanin's table before it is read.
        self.interior.sort_unstable();
        for (slot, &id) in (1 + leaves.len() as u32..).zip(&self.interior) {
            self.slot[id.index()] = slot;
            let [f0, f1] = aig.and_fanins(id);
            for j in 0..width {
                let word = self.lit_word(f0, j, width) & self.lit_word(f1, j, width);
                self.words.push(word);
            }
        }
        Some(width)
    }

    /// Word `j` of the table of `lit`, whose node is in the current cone.
    fn lit_word(&self, lit: Lit, j: usize, width: usize) -> u64 {
        let word = self.words[self.slot[lit.node().index()] as usize * width + j];
        word ^ 0u64.wrapping_sub(u64::from(lit.is_complement()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cone_tt(aig: &Aig, root: Lit, leaves: &[NodeId]) -> Option<Tt> {
        CutEvaluator::new().tt(aig, root, leaves)
    }

    #[test]
    fn majority_cone() {
        let mut aig = Aig::new("maj");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let ca = aig.and(c, a);
        let o1 = aig.or(ab, bc);
        let maj = aig.or(o1, ca);
        aig.add_output("m", maj);
        let tt = cone_tt(&aig, maj, &[a.node(), b.node(), c.node()]).expect("cut");
        let want = Tt::from_fn(3, |p| (p as u32).count_ones() >= 2);
        assert_eq!(tt, want);
    }

    #[test]
    fn complemented_root() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let tt = cone_tt(&aig, !x, &[a.node(), b.node()]).expect("cut");
        assert_eq!(tt, Tt::var(0, 2).and(&Tt::var(1, 2)).not());
    }

    #[test]
    fn intermediate_leaf() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b);
        let y = aig.and(x, c);
        // Cut {x, c}: y = var0 & var1.
        let tt = cone_tt(&aig, y, &[x.node(), c.node()]).expect("cut");
        assert_eq!(tt, Tt::var(0, 2).and(&Tt::var(1, 2)));
    }

    #[test]
    fn invalid_cut_returns_none() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        assert!(cone_tt(&aig, x, &[a.node()]).is_none());
    }

    #[test]
    fn constant_fanin_is_implicit() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("y", a);
        // Root literal is the constant itself.
        let tt = cone_tt(&aig, Lit::TRUE, &[a.node()]).expect("cut");
        assert!(tt.is_const1());
    }

    #[test]
    fn root_equal_to_leaf() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let tt = cone_tt(&aig, x, &[x.node()]).expect("trivial cut");
        assert_eq!(tt, Tt::var(0, 1));
    }

    /// y = (a & b) | (b & c); extra dangling node d = a & c.
    fn sample() -> (Aig, [NodeId; 6]) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let y = aig.or(ab, bc);
        aig.and(a, c);
        aig.add_output("y", y);
        (aig, [a, b, c, ab, bc, y].map(Lit::node))
    }

    #[test]
    fn interior_of_a_valid_cut() {
        let (aig, [a, b, c, ab, bc, y]) = sample();
        let mut eval = CutEvaluator::new();
        assert!(eval.word(&aig, y.lit(), &[a, b, c]).is_some());
        assert_eq!(eval.interior(), [ab, bc, y]);
    }

    #[test]
    fn non_cut_is_rejected() {
        let (aig, [a, .., y]) = sample();
        // Leaving out b and c means the walk escapes to inputs not in the cut.
        assert_eq!(CutEvaluator::new().word(&aig, y.lit(), &[a]), None);
    }

    #[test]
    fn root_as_leaf_has_no_interior() {
        let (aig, [a, b, c, ab, ..]) = sample();
        let mut eval = CutEvaluator::new();
        assert!(eval.word(&aig, ab.lit(), &[a, b, c]).is_some());
        assert!(eval.word(&aig, ab.lit(), &[ab]).is_some());
        assert!(eval.interior().is_empty());
    }

    #[test]
    fn wide_cuts_match_the_table_algebra() {
        // An 8-input XOR over 8 leaves: two words per table.
        let mut aig = Aig::new("t");
        let xs = aig.add_inputs("x", 8);
        let root = aig.xor_all(&xs);
        let leaves: Vec<NodeId> = xs.iter().map(|x| x.node()).collect();
        let want = (0..8).fold(Tt::zero(8), |acc, i| acc.xor(&Tt::var(i, 8)));
        let mut eval = CutEvaluator::new();
        assert_eq!(eval.tt(&aig, root, &leaves), Some(want.clone()));
        assert_eq!(eval.tt(&aig, !root, &leaves), Some(want.not()));
        // The same evaluator then serves a narrow cut of the same graph.
        assert_eq!(eval.word(&aig, xs[0], &leaves[..1]), Some(0b10));
    }
}
