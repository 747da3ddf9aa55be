//! K-feasible cut enumeration.
//!
//! A *cut* of a node is a set of nodes (leaves) such that every path from
//! the primary inputs to the node passes through a leaf; a cut is
//! k-feasible when it has at most k leaves. Cuts are the working unit of
//! both rewriting (4-feasible cuts re-synthesized from their truth table)
//! and technology mapping (6-feasible cuts become LUTs; 4-feasible cuts are
//! matched against standard cells).
//!
//! The enumeration is the standard bottom-up merge with per-node priority
//! pruning: each node keeps its trivial cut `{node}` plus up to
//! `max_cuts` smallest merged cuts, with dominated cuts (supersets of
//! another kept cut) filtered out.

use crate::{Aig, Node, NodeId};

/// A sorted set of leaf nodes forming a cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: Vec<NodeId>,
}

impl Cut {
    /// The trivial cut of a node: the node itself.
    pub fn trivial(node: NodeId) -> Cut {
        Cut { leaves: vec![node] }
    }

    /// The leaves in ascending id order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// `true` for the (never-produced) empty cut.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Merges two sorted leaf sets; `None` if the union exceeds `k`.
    fn merge(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
        let mut leaves = Vec::with_capacity(k);
        let (mut i, mut j) = (0, 0);
        while i < a.leaves.len() || j < b.leaves.len() {
            let next = match (a.leaves.get(i), b.leaves.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if leaves.len() == k {
                return None;
            }
            leaves.push(next);
        }
        Some(Cut { leaves })
    }

    /// `true` if `self`'s leaves are a subset of `other`'s (so `self`
    /// dominates `other`).
    fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() {
            return false;
        }
        let mut j = 0;
        for &leaf in &self.leaves {
            while j < other.leaves.len() && other.leaves[j] < leaf {
                j += 1;
            }
            if j == other.leaves.len() || other.leaves[j] != leaf {
                return false;
            }
            j += 1;
        }
        true
    }
}

/// All kept cuts of one node. The trivial cut is always `cuts()[0]`.
#[derive(Clone, Debug, Default)]
pub struct CutSet {
    cuts: Vec<Cut>,
}

impl CutSet {
    /// The kept cuts, trivial first.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// The non-trivial cuts.
    pub fn nontrivial(&self) -> &[Cut] {
        &self.cuts[1.min(self.cuts.len())..]
    }
}

impl Aig {
    /// Enumerates up to `max_cuts` k-feasible cuts per node.
    ///
    /// Returns one [`CutSet`] per node id. The constant node gets only its
    /// trivial cut; inputs get their trivial cut; AND nodes get the trivial
    /// cut plus merged, dominance-filtered cuts preferring fewer leaves.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `max_cuts == 0`.
    pub fn enumerate_cuts(&self, k: usize, max_cuts: usize) -> Vec<CutSet> {
        assert!(k >= 2, "cut size must be at least 2");
        assert!(max_cuts > 0, "must keep at least one cut");
        let mut sets: Vec<CutSet> = Vec::with_capacity(self.num_nodes());
        for id in self.iter_nodes() {
            let set = match *self.node(id) {
                Node::Const | Node::Input { .. } => CutSet {
                    cuts: vec![Cut::trivial(id)],
                },
                Node::And { f0, f1 } => {
                    let mut merged: Vec<Cut> = Vec::new();
                    let set0 = &sets[f0.node().index()];
                    let set1 = &sets[f1.node().index()];
                    for c0 in &set0.cuts {
                        for c1 in &set1.cuts {
                            let Some(cut) = Cut::merge(c0, c1, k) else {
                                continue;
                            };
                            if merged.iter().any(|m| m.dominates(&cut)) {
                                continue;
                            }
                            merged.retain(|m| !cut.dominates(m));
                            merged.push(cut);
                        }
                    }
                    merged.sort_by_key(Cut::len);
                    merged.truncate(max_cuts.saturating_sub(1));
                    let mut cuts = vec![Cut::trivial(id)];
                    cuts.extend(merged);
                    CutSet { cuts }
                }
            };
            sets.push(set);
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Aig, crate::Lit, crate::Lit, crate::Lit, crate::Lit) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.and(a, b);
        let y = aig.and(x, c);
        aig.add_output("y", y);
        (aig, a, b, c, y)
    }

    #[test]
    fn trivial_cut_comes_first() {
        let (aig, ..) = sample();
        let sets = aig.enumerate_cuts(4, 8);
        for id in aig.iter_nodes() {
            let set = &sets[id.index()];
            assert_eq!(set.cuts()[0], Cut::trivial(id));
        }
    }

    #[test]
    fn top_node_sees_input_cut() {
        let (aig, a, b, c, y) = sample();
        let sets = aig.enumerate_cuts(4, 8);
        let top = &sets[y.node().index()];
        let expect = vec![a.node(), b.node(), c.node()];
        assert!(
            top.cuts()
                .iter()
                .any(|cut| cut.leaves() == expect.as_slice()),
            "missing {expect:?} in {top:?}"
        );
    }

    #[test]
    fn k_limit_is_respected() {
        let mut aig = Aig::new("wide");
        let xs = aig.add_inputs("x", 8);
        let root = aig.and_all(&xs);
        aig.add_output("y", root);
        for k in [2, 3, 4, 6] {
            let sets = aig.enumerate_cuts(k, 32);
            for id in aig.iter_ands() {
                for cut in sets[id.index()].cuts() {
                    assert!(cut.len() <= k.max(1), "k={k}, cut {cut:?}");
                }
            }
        }
    }

    #[test]
    fn dominated_cuts_are_removed() {
        let (aig, _a, _b, c, y) = sample();
        let sets = aig.enumerate_cuts(4, 16);
        // {x, c} is dominated by nothing, but any cut that is a superset of
        // another kept cut must not appear.
        let top = &sets[y.node().index()];
        for (i, ci) in top.cuts().iter().enumerate() {
            for (j, cj) in top.cuts().iter().enumerate() {
                if i != j {
                    assert!(
                        !(ci.dominates(cj) && cj.len() > ci.len()),
                        "cut {cj:?} dominated by {ci:?}"
                    );
                }
            }
        }
        let _ = c;
    }

    #[test]
    fn max_cuts_bounds_set_size() {
        let mut aig = Aig::new("wide");
        let xs = aig.add_inputs("x", 10);
        let root = aig.and_all(&xs);
        aig.add_output("y", root);
        let sets = aig.enumerate_cuts(4, 3);
        for id in aig.iter_nodes() {
            assert!(sets[id.index()].cuts().len() <= 3);
        }
    }

    #[test]
    fn merge_deduplicates_shared_leaves() {
        let a = Cut {
            leaves: vec![NodeId::new(1), NodeId::new(2)],
        };
        let b = Cut {
            leaves: vec![NodeId::new(2), NodeId::new(3)],
        };
        let m = Cut::merge(&a, &b, 4).expect("fits");
        assert_eq!(m.leaves().len(), 3);
        assert!(Cut::merge(&a, &b, 2).is_none());
    }
}
