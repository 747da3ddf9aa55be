//! Literals and node identifiers.

use std::fmt;

/// Index of a node in an [`Aig`](crate::Aig) node table.
///
/// Node 0 is always the constant-false node. Indices are dense and assigned
/// in topological order: the fanins of an AND node always have smaller
/// indices than the node itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant node (index 0).
    pub const CONST: NodeId = NodeId(0);

    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }

    /// Returns the raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive (non-complemented) literal of this node.
    #[inline]
    pub fn lit(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A literal: a reference to an AIG node together with a complement flag.
///
/// The representation packs `node_index << 1 | complement` into a `u32`,
/// mirroring the encoding used by ABC and the AIGER format. Two literals are
/// equal iff they refer to the same node with the same polarity.
///
/// ```
/// use alsrac_aig::{Lit, NodeId};
///
/// let x = NodeId::new(3).lit();
/// assert_eq!(!x, Lit::new(NodeId::new(3), true));
/// assert_eq!(!!x, x);
/// assert_eq!(Lit::FALSE, !Lit::TRUE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal (node 0, no complement).
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: Lit = Lit(1);

    /// Creates a literal from a node and a complement flag.
    #[inline]
    pub fn new(node: NodeId, complement: bool) -> Lit {
        Lit(node.0 << 1 | complement as u32)
    }

    /// Creates a literal from its raw packed encoding (`node << 1 | compl`).
    #[inline]
    pub fn from_raw(raw: u32) -> Lit {
        Lit(raw)
    }

    /// Returns the raw packed encoding.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Returns the node this literal refers to.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Returns `true` if the literal carries a complement marker.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns this literal complemented iff `condition` holds.
    ///
    /// This is the common "xor polarity" operation when propagating
    /// complement markers through a rebuild.
    #[inline]
    pub fn complement_if(self, condition: bool) -> Lit {
        Lit(self.0 ^ condition as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl From<NodeId> for Lit {
    #[inline]
    fn from(node: NodeId) -> Lit {
        node.lit()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.0 >> 1)
        } else {
            write!(f, "n{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_node_zero() {
        assert_eq!(Lit::FALSE.node(), NodeId::CONST);
        assert_eq!(Lit::TRUE.node(), NodeId::CONST);
        assert!(!Lit::FALSE.is_complement());
        assert!(Lit::TRUE.is_complement());
    }

    #[test]
    fn not_toggles_complement() {
        let a = NodeId::new(7).lit();
        assert!(!a.is_complement());
        assert!((!a).is_complement());
        assert_eq!(!!a, a);
        assert_eq!((!a).node(), a.node());
    }

    #[test]
    fn complement_if_matches_not() {
        let a = NodeId::new(5).lit();
        assert_eq!(a.complement_if(false), a);
        assert_eq!(a.complement_if(true), !a);
    }

    #[test]
    fn raw_round_trip() {
        for raw in [0u32, 1, 2, 3, 100, 101] {
            assert_eq!(Lit::from_raw(raw).raw(), raw);
        }
    }

    #[test]
    fn ordering_groups_polarities_of_same_node() {
        let a = NodeId::new(2).lit();
        let b = NodeId::new(3).lit();
        assert!(a < !a);
        assert!(!a < b);
    }

    #[test]
    fn debug_format_is_informative() {
        let a = NodeId::new(4).lit();
        assert_eq!(format!("{a:?}"), "n4");
        assert_eq!(format!("{:?}", !a), "!n4");
        assert_eq!(format!("{}", NodeId::new(4)), "n4");
    }
}
