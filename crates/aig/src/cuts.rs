//! Node sets and k-feasible cut enumeration.
//!
//! A *cut* of a node is a set of nodes (leaves) such that every path from
//! the primary inputs to the node passes through a leaf; a cut is
//! k-feasible when it has at most k leaves. Cuts are the working unit of
//! both rewriting (4-feasible cuts re-synthesized from their truth table)
//! and technology mapping (6-feasible cuts become LUTs; 4-feasible cuts are
//! matched against standard cells).
//!
//! The enumeration is the standard bottom-up merge with per-node priority
//! pruning: each node keeps up to `max_cuts - 1` smallest merged cuts, with
//! dominated cuts (supersets of another kept cut) filtered out. The trivial
//! cut `{node}` is implied rather than stored: a fanin's `{fanin}` joins
//! the merge ahead of its stored cuts. As in ABC, every set in the merge
//! carries a 64-bit signature (bit `id % 64` of each node), which rejects
//! most oversized unions and most subset tests in one operation.
//!
//! A cut's leaves and a node's resubstitution divisors are both the support
//! of a replacement function, so both are held as a [`NodeSet`].

use std::ops::Deref;

use crate::{Aig, Node, NodeId};

/// Up to [`NodeSet::CAPACITY`] distinct nodes in ascending order, held
/// inline, so a set is `Copy` and costs no allocation. Reads as a
/// `[NodeId]` slice through `Deref`. Unused slots hold the constant node,
/// so the derived equality compares sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSet {
    len: u8,
    nodes: [NodeId; NodeSet::CAPACITY],
}

impl NodeSet {
    /// Most nodes in one set: the largest cut enumerated (a 6-LUT's
    /// inputs), and the most leaves one 64-bit truth table covers.
    pub const CAPACITY: usize = 6;

    const EMPTY: NodeSet = NodeSet {
        len: 0,
        nodes: [NodeId::CONST; NodeSet::CAPACITY],
    };

    /// The set of the given nodes, which must be strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`NodeSet::CAPACITY`] nodes.
    pub fn new(sorted: &[NodeId]) -> NodeSet {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "{sorted:?}");
        let mut set = NodeSet::EMPTY;
        set.nodes[..sorted.len()].copy_from_slice(sorted);
        set.len = sorted.len() as u8;
        set
    }

    /// The union of two sets; `None` if it has more than `k` nodes.
    fn union(&self, other: &NodeSet, k: usize) -> Option<NodeSet> {
        let (a, b) = (&**self, &**other);
        let mut set = NodeSet::EMPTY;
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else {
                if i < a.len() && a[i] == b[j] {
                    i += 1;
                }
                j += 1;
                b[j - 1]
            };
            if usize::from(set.len) == k {
                return None;
            }
            set.nodes[usize::from(set.len)] = next;
            set.len += 1;
        }
        Some(set)
    }

    /// The OR of `1 << (id % 64)` over the nodes. A subset's signature is
    /// a subset of the superset's, and a set of `n` nodes sets at most `n`
    /// bits.
    fn signature(&self) -> u64 {
        self.iter().fold(0, |sig, n| sig | 1 << (n.index() % 64))
    }

    /// `true` if every node of `self` is in `other`.
    fn is_subset(&self, other: &NodeSet) -> bool {
        if self.len > other.len {
            return false;
        }
        let mut rest = other.iter();
        self.iter().all(|n| rest.find(|m| *m >= n) == Some(n))
    }
}

impl Deref for NodeSet {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.nodes[..usize::from(self.len)]
    }
}

/// Every node's kept cuts in one flat table, fewest leaves first per node.
/// The trivial cut `{node}` is not stored, so inputs and the constant have
/// no cuts.
#[derive(Debug)]
pub struct CutTable {
    /// Node `i`'s cuts are `cuts[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    cuts: Vec<NodeSet>,
}

impl CutTable {
    /// The kept cuts of `node`, fewest leaves first.
    pub fn cuts(&self, node: NodeId) -> &[NodeSet] {
        &self.cuts[self.offsets[node.index()]..self.offsets[node.index() + 1]]
    }
}

impl Aig {
    /// Enumerates up to `max_cuts - 1` k-feasible cuts per AND node, the
    /// trivial cut aside.
    ///
    /// Each AND node merges every cut of its first fanin (its `{fanin}`
    /// first) with every cut of its second, drops the cuts over `k` leaves
    /// and those that are supersets of another, and keeps the smallest,
    /// ties in merge order.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, if `k` exceeds [`NodeSet::CAPACITY`] (6), or if
    /// `max_cuts == 0`.
    pub fn enumerate_cuts(&self, k: usize, max_cuts: usize) -> CutTable {
        assert!(k >= 2, "cut size must be at least 2");
        assert!(
            k <= NodeSet::CAPACITY,
            "cut size {k} exceeds the limit of {} leaves",
            NodeSet::CAPACITY
        );
        assert!(max_cuts > 0, "must keep at least one cut");
        let mut table = CutTable {
            offsets: Vec::with_capacity(self.num_nodes() + 1),
            cuts: Vec::new(),
        };
        table.offsets.push(0);
        // Each fanin's cuts with their signatures, `{fanin}` first, and the
        // surviving merged cuts of the current node, kept ordered by size
        // and, within a size, by merge order. All three are reused across
        // nodes.
        let mut cuts0: Vec<(NodeSet, u64)> = Vec::new();
        let mut cuts1: Vec<(NodeSet, u64)> = Vec::new();
        let mut merged: Vec<(NodeSet, u64)> = Vec::new();
        let signed_cuts_of = |table: &CutTable, n: NodeId, cuts: &mut Vec<(NodeSet, u64)>| {
            cuts.clear();
            cuts.push((NodeSet::new(&[n]), 1 << (n.index() % 64)));
            cuts.extend(table.cuts(n).iter().map(|&c| (c, c.signature())));
        };
        for id in self.iter_nodes() {
            if let Node::And { f0, f1 } = *self.node(id) {
                signed_cuts_of(&table, f0.node(), &mut cuts0);
                signed_cuts_of(&table, f1.node(), &mut cuts1);
                merged.clear();
                for (c0, s0) in &cuts0 {
                    for (c1, s1) in &cuts1 {
                        // Both filters below are necessary conditions, so
                        // they only skip work whose answer is known.
                        let sig = s0 | s1;
                        if sig.count_ones() as usize > k {
                            continue;
                        }
                        let Some(cut) = c0.union(c1, k) else {
                            continue;
                        };
                        if merged
                            .iter()
                            .any(|(m, ms)| ms & !sig == 0 && m.is_subset(&cut))
                        {
                            continue;
                        }
                        merged.retain(|(m, ms)| sig & !ms != 0 || !cut.is_subset(m));
                        let at = merged.partition_point(|(m, _)| m.len() <= cut.len());
                        merged.insert(at, (cut, sig));
                    }
                }
                let kept = merged.len().min(max_cuts - 1);
                table
                    .cuts
                    .extend(merged[..kept].iter().map(|&(cut, _)| cut));
            }
            table.offsets.push(table.cuts.len());
        }
        table
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

    fn set(ids: &[usize]) -> NodeSet {
        NodeSet::new(&ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>())
    }

    #[test]
    fn only_and_nodes_have_cuts() {
        let (aig, a, b, _c, y) = sample();
        let table = aig.enumerate_cuts(4, 8);
        for id in [NodeId::CONST, a.node(), b.node()] {
            assert!(table.cuts(id).is_empty(), "{id}");
        }
        assert!(!table.cuts(y.node()).is_empty());
    }

    #[test]
    fn top_node_sees_input_cut() {
        let (aig, a, b, c, y) = sample();
        let table = aig.enumerate_cuts(4, 8);
        let top = table.cuts(y.node());
        let expect = [a.node(), b.node(), c.node()];
        assert!(
            top.iter().any(|cut| **cut == expect),
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
            let table = aig.enumerate_cuts(k, 32);
            for id in aig.iter_ands() {
                for cut in table.cuts(id) {
                    assert!(cut.len() <= k, "k={k}, cut {cut:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "limit of 6 leaves")]
    fn k_over_the_set_capacity_panics() {
        let (aig, ..) = sample();
        aig.enumerate_cuts(7, 12);
    }

    #[test]
    fn dominated_cuts_are_removed() {
        let mut aig = Aig::new("wide");
        let xs = aig.add_inputs("x", 6);
        let root = aig.and_all(&xs);
        aig.add_output("y", root);
        let table = aig.enumerate_cuts(4, 16);
        for id in aig.iter_ands() {
            let cuts = table.cuts(id);
            for (i, ci) in cuts.iter().enumerate() {
                for (j, cj) in cuts.iter().enumerate() {
                    assert!(i == j || !ci.is_subset(cj), "{cj:?} dominated by {ci:?}");
                }
            }
        }
    }

    #[test]
    fn max_cuts_bounds_set_size() {
        let mut aig = Aig::new("wide");
        let xs = aig.add_inputs("x", 10);
        let root = aig.and_all(&xs);
        aig.add_output("y", root);
        let table = aig.enumerate_cuts(4, 3);
        for id in aig.iter_nodes() {
            assert!(table.cuts(id).len() <= 2);
        }
    }

    #[test]
    fn colliding_signatures_change_no_cut() {
        // 70 inputs, so ids pass 64: input `xs[i]` is node i + 1, nodes 1
        // and 65 share signature bit 1, and nodes 10 and 74 bit 10.
        let mut aig = Aig::new("wide ids");
        let xs = aig.add_inputs("x", 70);
        let a = aig.and(xs[64], xs[5]);
        let b = aig.and(xs[0], xs[5]);
        let g = aig.and(a, b);
        let c = aig.and(xs[64], xs[9]);
        let h = aig.and(xs[0], c);
        aig.add_output("g", g);
        aig.add_output("h", h);
        assert_eq!([a, b, c].map(|l| l.node().index()), [71, 72, 74]);
        // {6, 65} ∪ {1, 6} sets only bits 1 and 6, but has 3 nodes, so the
        // union, not the signature, rejects it at k = 2.
        let table = aig.enumerate_cuts(2, 8);
        assert_eq!(table.cuts(g.node()), [set(&[71, 72])]);
        let table = aig.enumerate_cuts(4, 8);
        // The signature of {1, 6, 65} is a subset of those of the earlier
        // {1, 6, 71} and {6, 65, 72}, and neither set contains it.
        assert_eq!(
            table.cuts(g.node()),
            [
                set(&[71, 72]),
                set(&[1, 6, 71]),
                set(&[6, 65, 72]),
                set(&[1, 6, 65])
            ]
        );
        // The signature of the earlier {1, 74} is a subset of that of
        // {1, 10, 65}, which does not contain it.
        assert_eq!(table.cuts(h.node()), [set(&[1, 74]), set(&[1, 10, 65])]);
    }

    #[test]
    fn union_deduplicates_shared_nodes() {
        let (a, b) = (set(&[1, 2]), set(&[2, 3]));
        assert_eq!(a.union(&b, 4), Some(set(&[1, 2, 3])));
        assert_eq!(b.union(&a, 3), Some(set(&[1, 2, 3])));
        assert_eq!(a.union(&a, 2), Some(a));
        assert!(a.union(&b, 2).is_none());
    }

    #[test]
    fn subsets_are_recognized() {
        assert!(set(&[2]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[1, 3]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[1, 3]).is_subset(&set(&[1, 3])));
        assert!(!set(&[1, 4]).is_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 2, 3]).is_subset(&set(&[1, 3])));
    }
}
