//! Transitive fanin/fanout cones, fanout maps, and MFFC computation.

use crate::{Aig, Lit, Node, NodeId};

/// A set of nodes forming a cone, stored as a sorted list of node ids plus a
/// membership bitmap for O(1) queries.
///
/// Produced by [`Aig::tfi_cone`] and [`Aig::tfo_cone`].
#[derive(Clone, Debug)]
pub struct Cone {
    members: Vec<NodeId>,
    bitmap: Vec<bool>,
}

impl Cone {
    fn from_bitmap(bitmap: Vec<bool>) -> Cone {
        let members = bitmap
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        Cone { members, bitmap }
    }

    /// Nodes in the cone in ascending (= topological) order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Returns `true` if `id` belongs to the cone.
    pub fn contains(&self, id: NodeId) -> bool {
        self.bitmap.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of nodes in the cone.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cone is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Fanout information for every node of an [`Aig`], plus the per-node
/// logic levels computed in the same pass.
///
/// The AIG itself only stores fanins; algorithms that walk "downstream"
/// (observability, TFO re-simulation, MFFC) build this map once per graph
/// snapshot via [`Aig::fanout_map`]. Levels ride along so per-node
/// consumers (divisor selection, level-bucketed worklists) never have to
/// re-derive `Aig::levels` — an `O(n)` sweep — inside their own loops.
#[derive(Clone, Debug)]
pub struct FanoutMap {
    /// Node `n`'s fanouts are `fanouts[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<u32>,
    /// The AND nodes that reference each node as a fanin, node after node,
    /// ascending within a node.
    fanouts: Vec<NodeId>,
    /// Number of references to each node, counting primary outputs.
    ref_counts: Vec<u32>,
    /// Logic level per node (identical to [`Aig::levels`]).
    levels: Vec<u32>,
    /// `max(levels) + 1`: the number of distinct level buckets.
    num_levels: u32,
}

impl FanoutMap {
    /// Returns the fanout nodes of `id` (AND nodes only; primary-output
    /// references are reflected in [`FanoutMap::ref_count`] instead).
    #[inline]
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanouts[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Returns the total reference count of `id` (fanin references plus
    /// primary-output references).
    pub fn ref_count(&self, id: NodeId) -> u32 {
        self.ref_counts[id.index()]
    }

    /// Logic level of `id` (0 for inputs and the constant).
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// Per-node logic levels, identical to [`Aig::levels`] of the same
    /// snapshot but computed once inside [`Aig::fanout_map`].
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Number of distinct levels (`max level + 1`); sizes level-bucketed
    /// worklists.
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }
}

/// Reusable scratch for [`Aig::mffc_with`]: epoch-stamped per-node
/// reference-count deltas, so repeated MFFC computations cost
/// `O(|MFFC|)` per query instead of cloning all `n` reference counts, plus
/// the member list and walk stack, so a warm query allocates nothing.
///
/// Every query reads the base counts straight from the [`FanoutMap`] it is
/// given and bumps the epoch, so a scratch can be reused across graph
/// snapshots without any reset call.
#[derive(Clone, Debug, Default)]
pub struct MffcScratch {
    /// Decrements applied during the current query; valid only where
    /// `stamp[i] == epoch`.
    deltas: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// The last query's MFFC, lent out by [`Aig::mffc_with`].
    members: Vec<NodeId>,
    stack: Vec<NodeId>,
}

impl MffcScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> MffcScratch {
        MffcScratch::default()
    }

    fn begin(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            self.deltas.clear();
            self.deltas.resize(num_nodes, 0);
            self.stamp.clear();
            self.stamp.resize(num_nodes, 0);
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Decrements the effective count of `id` and returns the new value,
    /// given its base reference count.
    #[inline]
    fn decrement(&mut self, id: NodeId, base: u32) -> u32 {
        let i = id.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.deltas[i] = 0;
        }
        self.deltas[i] += 1;
        debug_assert!(self.deltas[i] <= base, "fanin reference count underflow");
        base - self.deltas[i]
    }
}

impl Aig {
    /// Builds the fanout map for the current graph.
    pub fn fanout_map(&self) -> FanoutMap {
        let n = self.num_nodes();
        // First pass: reference counts and levels, and each node's fanout
        // count in `offsets[node + 1]`.
        let mut offsets = vec![0u32; n + 1];
        let mut ref_counts = vec![0u32; n];
        let mut levels = vec![0u32; n];
        let mut num_levels = 1u32;
        for id in self.iter_nodes() {
            if let Node::And { f0, f1 } = *self.node(id) {
                let (a, b) = (f0.node().index(), f1.node().index());
                offsets[a + 1] += 1;
                if b != a {
                    offsets[b + 1] += 1;
                }
                ref_counts[a] += 1;
                ref_counts[b] += 1;
                let level = 1 + levels[a].max(levels[b]);
                levels[id.index()] = level;
                num_levels = num_levels.max(level + 1);
            }
        }
        for output in self.outputs() {
            ref_counts[output.lit.node().index()] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Second pass, in node order, so each node's fanouts ascend:
        // `offsets[node]` serves as the node's write cursor and ends at the
        // next node's start, so shifting it back by one node restores it.
        let mut fanouts = vec![NodeId::CONST; offsets[n] as usize];
        for id in self.iter_nodes() {
            if let Node::And { f0, f1 } = *self.node(id) {
                let (a, b) = (f0.node().index(), f1.node().index());
                fanouts[offsets[a] as usize] = id;
                offsets[a] += 1;
                if b != a {
                    fanouts[offsets[b] as usize] = id;
                    offsets[b] += 1;
                }
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        FanoutMap {
            offsets,
            fanouts,
            ref_counts,
            levels,
            num_levels,
        }
    }

    /// Computes the transitive-fanin cone of `root`, **including** `root`
    /// itself (the paper's §II-A definition).
    pub fn tfi_cone(&self, root: NodeId) -> Cone {
        let mut bitmap = vec![false; self.num_nodes()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut bitmap[id.index()], true) {
                continue;
            }
            if let Node::And { f0, f1 } = *self.node(id) {
                stack.push(f0.node());
                stack.push(f1.node());
            }
        }
        Cone::from_bitmap(bitmap)
    }

    /// Computes the transitive-fanout cone of `root`, **including** `root`.
    ///
    /// Requires a prebuilt [`FanoutMap`] for the current graph snapshot.
    pub fn tfo_cone(&self, root: NodeId, fanouts: &FanoutMap) -> Cone {
        let mut bitmap = vec![false; self.num_nodes()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut bitmap[id.index()], true) {
                continue;
            }
            stack.extend_from_slice(fanouts.fanouts(id));
        }
        Cone::from_bitmap(bitmap)
    }

    /// Computes the maximum fanout-free cone (MFFC) of `root`: the set of AND
    /// nodes that would become dangling if `root` were removed.
    ///
    /// The returned list contains `root` first (if it is an AND node) and is
    /// the conventional measure of how many nodes a resubstitution of `root`
    /// can save.
    pub fn mffc(&self, root: NodeId, fanouts: &FanoutMap) -> Vec<NodeId> {
        self.mffc_with(root, fanouts, &mut MffcScratch::new())
            .to_vec()
    }

    /// Like [`Aig::mffc`], but reuses a caller-held [`MffcScratch`] so the
    /// per-call cost is proportional to the MFFC itself, not the graph,
    /// and lends the result out of the scratch, so a warm call allocates
    /// nothing. Per-node loops (LAC generation and `refactor` visit every
    /// AND node) should hold one scratch and reuse it; results are
    /// identical to [`Aig::mffc`].
    pub fn mffc_with<'s>(
        &self,
        root: NodeId,
        fanouts: &FanoutMap,
        scratch: &'s mut MffcScratch,
    ) -> &'s [NodeId] {
        scratch.members.clear();
        if !self.node(root).is_and() {
            return &scratch.members;
        }
        // Simulate dereferencing root: counts of nodes whose refs all come
        // from inside the dereferenced cone drop to zero. The scratch
        // tracks the decrements of this query only; base counts come from
        // the fanout map every time, so nothing can go stale.
        scratch.begin(self.num_nodes());
        scratch.stack.push(root);
        while let Some(id) = scratch.stack.pop() {
            scratch.members.push(id);
            if let Node::And { f0, f1 } = *self.node(id) {
                for fanin in [f0.node(), f1.node()] {
                    let remaining = scratch.decrement(fanin, fanouts.ref_count(fanin));
                    if remaining == 0 && self.node(fanin).is_and() {
                        scratch.stack.push(fanin);
                    }
                }
            }
        }
        &scratch.members
    }

    /// Returns the literal-level fanins of an AND node as an array, panicking
    /// on non-AND nodes. Convenience for cone walkers.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    pub fn and_fanins(&self, id: NodeId) -> [Lit; 2] {
        match *self.node(id) {
            Node::And { f0, f1 } => [f0, f1],
            ref other => panic!("{id} is not an AND node: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = (a & b) | (b & c); extra dangling node d = a & c.
    fn sample() -> (Aig, Lit, Lit, Lit, Lit, Lit, Lit) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let y = aig.or(ab, bc);
        let dangling = aig.and(a, c);
        aig.add_output("y", y);
        (aig, a, b, c, ab, bc, dangling)
    }

    #[test]
    fn tfi_includes_root_and_supports() {
        let (aig, a, b, _c, ab, _bc, _d) = sample();
        let cone = aig.tfi_cone(ab.node());
        assert!(cone.contains(ab.node()));
        assert!(cone.contains(a.node()));
        assert!(cone.contains(b.node()));
        assert_eq!(cone.len(), 3);
    }

    #[test]
    fn tfo_reaches_outputs() {
        let (aig, a, _b, _c, ab, _bc, d) = sample();
        let fanouts = aig.fanout_map();
        let tfo = aig.tfo_cone(a.node(), &fanouts);
        assert!(tfo.contains(ab.node()));
        assert!(tfo.contains(d.node()));
        // The OR node (output driver) is in a's TFO.
        let y_node = aig.outputs()[0].lit.node();
        assert!(tfo.contains(y_node));
    }

    #[test]
    fn dangling_detection() {
        let (aig, _a, _b, _c, ab, _bc, d) = sample();
        let fanouts = aig.fanout_map();
        assert_eq!(fanouts.ref_count(d.node()), 0);
        assert_ne!(fanouts.ref_count(ab.node()), 0);
    }

    #[test]
    fn mffc_of_output_or_includes_single_use_cone() {
        let (aig, _a, _b, _c, ab, bc, _d) = sample();
        let fanouts = aig.fanout_map();
        let y_node = aig.outputs()[0].lit.node();
        let mffc = aig.mffc(y_node, &fanouts);
        // OR node plus both single-use AND fanins.
        assert_eq!(mffc.len(), 3);
        assert!(mffc.contains(&ab.node()));
        assert!(mffc.contains(&bc.node()));
    }

    #[test]
    fn mffc_stops_at_shared_nodes() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let shared = aig.and(a, b);
        let top = aig.and(shared, c);
        aig.add_output("t", top);
        aig.add_output("s", shared); // second reference keeps `shared` alive
        let fanouts = aig.fanout_map();
        let mffc = aig.mffc(top.node(), &fanouts);
        assert_eq!(mffc, vec![top.node()]);
    }

    #[test]
    fn mffc_of_input_is_empty() {
        let (aig, a, ..) = sample();
        let fanouts = aig.fanout_map();
        assert!(aig.mffc(a.node(), &fanouts).is_empty());
    }

    #[test]
    fn fanout_map_levels_match_graph_levels() {
        let (aig, ..) = sample();
        let fanouts = aig.fanout_map();
        assert_eq!(fanouts.levels(), &aig.levels()[..]);
        let max = aig.levels().iter().copied().max().unwrap_or(0);
        assert_eq!(fanouts.num_levels(), max + 1);
        for id in aig.iter_nodes() {
            assert_eq!(fanouts.level(id), aig.levels()[id.index()]);
        }
    }

    #[test]
    fn mffc_with_shared_scratch_matches_fresh_queries() {
        let (aig, ..) = sample();
        let fanouts = aig.fanout_map();
        let mut scratch = MffcScratch::new();
        // Interleave queries so the scratch carries decrements between
        // calls; every result must match a fresh O(n) query.
        for _ in 0..3 {
            for id in aig.iter_nodes() {
                let reused = aig.mffc_with(id, &fanouts, &mut scratch);
                let fresh = aig.mffc(id, &fanouts);
                assert_eq!(reused, fresh, "node {id}");
            }
        }
    }

    #[test]
    fn mffc_scratch_survives_graph_swaps() {
        // The same scratch must be correct across different graphs of the
        // same node count (base counts come from the map, not the scratch).
        let (a, ..) = sample();
        let mut b = Aig::new("t2");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let z = b.add_input("z");
        let xy = b.and(x, y);
        let yz = b.and(y, z);
        let top = b.and(xy, yz);
        b.add_output("o", top);
        b.add_output("o2", xy); // extra ref changes the MFFC shape
        let fa = a.fanout_map();
        let fb = b.fanout_map();
        let mut scratch = MffcScratch::new();
        for id in a.iter_nodes() {
            assert_eq!(a.mffc_with(id, &fa, &mut scratch), a.mffc(id, &fa));
        }
        for id in b.iter_nodes() {
            assert_eq!(b.mffc_with(id, &fb, &mut scratch), b.mffc(id, &fb));
        }
    }
}
