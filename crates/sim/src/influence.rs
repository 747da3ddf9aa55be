//! Exact single-node flip influence (batch error estimation support).
//!
//! Su et al. (DAC 2018) observed that the error of *every* candidate local
//! change at a node can be evaluated from one base simulation plus knowledge
//! of how a value flip at that node propagates to the primary outputs.
//! ALSRAC adopts the same scheme (§III-C, Line 6 of Algorithm 3).
//!
//! For a fixed input pattern, the circuit outputs are a deterministic
//! function of the flipped node's value, so toggling the node either flips a
//! given output or leaves it unchanged — [`FlipInfluence`] records that
//! bitmask per output, per pattern. Any candidate replacement function for
//! the node then yields exact candidate outputs via
//! [`FlipInfluence::apply`]: outputs flip exactly on the lanes where the
//! replacement disagrees with the current node value *and* the flip
//! propagates.
//!
//! Propagation is event-driven over a reusable [`InfluenceScratch`]: a flip
//! only visits nodes whose diff mask is still non-zero, so a flip that dies
//! locally costs a handful of word ops instead of a full-TFO sweep, and the
//! arena makes the hot loop allocation-free after warm-up (pinned by a
//! counting-allocator test). The per-visit word loop goes through the
//! word-row [`crate::kernel`], and [`FlipInfluence::compute`] discovers
//! touched outputs *during* propagation via an [`OutputIndex`] instead of
//! re-scanning every primary output per candidate.

use alsrac_aig::{Aig, FanoutMap, Node, NodeId};

use crate::{kernel, OutputWords, Simulation};

/// Sentinel marking an empty frontier bucket / end of a bucket list.
const EMPTY: u32 = u32::MAX;

/// Reusable arena for event-driven flip propagation.
///
/// Holds a flat `nodes × words` buffer of flipped values plus epoch-stamped
/// dirty/queued arrays: bumping the epoch invalidates every per-node stamp
/// in O(1), so consecutive [`propagate`](InfluenceScratch::propagate) calls
/// reuse the buffers without clearing them. The frontier is a level-bucketed
/// worklist: one intrusive singly-linked list of node indices per circuit
/// level, drained by a monotonically rising level cursor. That is a valid
/// evaluation order because every fanout of a level-`L` node sits strictly
/// above `L` (so nothing is ever pushed at or below the cursor), and
/// same-level AND nodes never feed each other. Unlike the min-heap frontier
/// it replaces, a pop is O(1) with no comparisons or sift-downs, and the
/// buckets drain to empty on every call so they need no per-epoch clearing.
///
/// One scratch per worker thread keeps the parallel estimator bit-identical
/// at any thread count: the scratch carries no cross-call state that the
/// masks depend on.
#[derive(Debug, Default)]
pub struct InfluenceScratch {
    num_words: usize,
    /// Flipped values, `flipped[node * num_words + w]`; valid only where
    /// `dirty_epoch[node] == epoch`.
    flipped: Vec<u64>,
    /// Stamp of the last propagation in which the node's value differed
    /// from the base simulation.
    dirty_epoch: Vec<u32>,
    /// Stamp of the last propagation in which the node entered the
    /// frontier (dedup so shared fanouts enqueue once).
    queued_epoch: Vec<u32>,
    epoch: u32,
    /// Head node index of each level's frontier list ([`EMPTY`] when the
    /// bucket is empty). Always all-[`EMPTY`] between propagations because
    /// every call drains the frontier completely.
    bucket_head: Vec<u32>,
    /// Intrusive next pointers threading frontier nodes within a bucket.
    next_in_bucket: Vec<u32>,
    /// Frontier entries pushed but not yet popped this propagation.
    pending: usize,
}

impl InfluenceScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> InfluenceScratch {
        InfluenceScratch::default()
    }

    /// Resizes the arena for a graph of `num_nodes` nodes at `num_levels`
    /// levels simulated at `num_words` words and starts a fresh epoch.
    fn begin(&mut self, num_nodes: usize, num_words: usize, num_levels: usize) {
        if self.num_words != num_words || self.dirty_epoch.len() < num_nodes {
            self.num_words = num_words;
            self.flipped.clear();
            self.flipped.resize(num_nodes * num_words, 0);
            self.dirty_epoch.clear();
            self.dirty_epoch.resize(num_nodes, 0);
            self.queued_epoch.clear();
            self.queued_epoch.resize(num_nodes, 0);
            self.next_in_bucket.clear();
            self.next_in_bucket.resize(num_nodes, EMPTY);
            self.epoch = 0;
        }
        if self.bucket_head.len() < num_levels {
            // Existing entries are already EMPTY (the frontier fully
            // drains), so only the appended levels need the sentinel.
            self.bucket_head.resize(num_levels, EMPTY);
        }
        // Epoch wraparound: reset all stamps once every 2^32 - 1 calls.
        if self.epoch == u32::MAX {
            self.dirty_epoch.fill(0);
            self.queued_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Pushes `id` onto its level's frontier bucket unless it was already
    /// queued this propagation.
    #[inline]
    fn enqueue(&mut self, id: NodeId, level: u32) {
        let idx = id.index();
        if self.queued_epoch[idx] != self.epoch {
            self.queued_epoch[idx] = self.epoch;
            self.next_in_bucket[idx] = self.bucket_head[level as usize];
            self.bucket_head[level as usize] = idx as u32;
            self.pending += 1;
        }
    }

    /// Whether `node` ended the last propagation with a value differing
    /// from the base simulation in at least one lane.
    #[inline]
    pub fn is_dirty(&self, node: NodeId) -> bool {
        self.dirty_epoch[node.index()] == self.epoch
    }

    /// The full flipped row of a dirty node (base row otherwise).
    #[inline]
    pub fn node_words<'a>(&'a self, sim: &'a Simulation, node: NodeId) -> &'a [u64] {
        if self.is_dirty(node) {
            let base = node.index() * self.num_words;
            &self.flipped[base..base + self.num_words]
        } else {
            sim.node_words(node)
        }
    }

    /// Propagates a flip of `node` through its fanout, event-driven.
    ///
    /// After the call, [`is_dirty`](InfluenceScratch::is_dirty) and
    /// [`node_words`](InfluenceScratch::node_words) describe the flipped
    /// circuit state. The hot loop performs no allocations once the arena
    /// and frontier heap have warmed up to the graph's size.
    ///
    /// Returns the number of nodes whose flipped values were evaluated
    /// (the root plus every frontier node visited).
    pub fn propagate(
        &mut self,
        aig: &Aig,
        sim: &Simulation,
        fanouts: &FanoutMap,
        node: NodeId,
    ) -> usize {
        self.propagate_inner(aig, sim, fanouts, node, |_| {})
    }

    /// [`propagate`](InfluenceScratch::propagate) with a callback invoked
    /// once per node that turns dirty (the root included), in propagation
    /// order. This is what lets [`FlipInfluence::compute`] discover
    /// touched outputs during the walk instead of in a second pass.
    fn propagate_inner(
        &mut self,
        aig: &Aig,
        sim: &Simulation,
        fanouts: &FanoutMap,
        node: NodeId,
        mut on_dirty: impl FnMut(NodeId),
    ) -> usize {
        let num_words = sim.num_words();
        self.begin(aig.num_nodes(), num_words, fanouts.num_levels() as usize);
        let epoch = self.epoch;

        // Seed: the root differs from the base in every lane.
        let root_base = node.index() * num_words;
        kernel::not_into(
            &mut self.flipped[root_base..root_base + num_words],
            sim.node_words(node),
        );
        self.dirty_epoch[node.index()] = epoch;
        on_dirty(node);
        for &f in fanouts.fanouts(node) {
            self.enqueue(f, fanouts.level(f));
        }

        let mut visited = 1usize;
        let mut quenched = 0u64;
        // Drain buckets by ascending level. The cursor never moves back:
        // every enqueue targets a level strictly above the node being
        // processed, so once a bucket empties it stays empty.
        let mut cursor = fanouts.level(node) as usize;
        while self.pending > 0 {
            while self.bucket_head[cursor] == EMPTY {
                cursor += 1;
            }
            let raw = self.bucket_head[cursor];
            self.bucket_head[cursor] = self.next_in_bucket[raw as usize];
            self.pending -= 1;
            let id = NodeId::new(raw as usize);
            // Fanout maps list only AND consumers, and level order
            // guarantees both fanins (strictly lower levels) are final.
            let Node::And { f0, f1 } = *aig.node(id) else {
                continue;
            };
            visited += 1;
            let m0 = if f0.is_complement() { u64::MAX } else { 0 };
            let m1 = if f1.is_complement() { u64::MAX } else { 0 };
            let base = id.index() * num_words;
            // Fanins sit strictly below `id` in the arena, so splitting at
            // `base` separates the destination row from both source rows;
            // resolving each fanin's dirty branch once per row (instead of
            // once per word) hands whole rows to the kernel.
            let f0_base = f0.node().index() * num_words;
            let f1_base = f1.node().index() * num_words;
            let (lo, hi) = self.flipped.split_at_mut(base);
            let v0: &[u64] = if self.dirty_epoch[f0.node().index()] == epoch {
                &lo[f0_base..f0_base + num_words]
            } else {
                sim.node_words(f0.node())
            };
            let v1: &[u64] = if self.dirty_epoch[f1.node().index()] == epoch {
                &lo[f1_base..f1_base + num_words]
            } else {
                sim.node_words(f1.node())
            };
            let diff =
                kernel::and_diff_into(&mut hi[..num_words], v0, v1, m0, m1, sim.node_words(id));
            if diff == 0 {
                // The flip quenched here: downstream of this node nothing
                // changes through this path, so its fanouts are not
                // enqueued. When every frontier branch quenches the
                // worklist drains and the propagation stops early.
                quenched += 1;
                continue;
            }
            self.dirty_epoch[id.index()] = epoch;
            on_dirty(id);
            for &f in fanouts.fanouts(id) {
                self.enqueue(f, fanouts.level(f));
            }
        }
        alsrac_rt::trace::add("influence_words_computed", (visited * num_words) as u64);
        if quenched > 0 {
            // Quench pruning fires *inside* live propagations far more
            // often than whole flips die out (`influence_early_exits`),
            // so count the visits it stops separately.
            alsrac_rt::trace::add("influence_quenched_nodes", quenched);
        }
        visited
    }
}

/// Node → driven-primary-output index, CSR-packed.
///
/// Built once per estimation session, it gives the influence pass an O(1)
/// answer to "does this node drive an output, and which?" as nodes turn
/// dirty, so no candidate pays a scan over *all* primary outputs after
/// propagation.
#[derive(Clone, Debug)]
pub struct OutputIndex {
    /// CSR row offsets: node `i` drives `pos[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Output indices, ascending within each node's row.
    pos: Vec<u32>,
}

impl OutputIndex {
    /// Indexes the output drivers of `aig`.
    pub fn new(aig: &Aig) -> OutputIndex {
        let num_nodes = aig.num_nodes();
        let mut offsets = vec![0u32; num_nodes + 1];
        for output in aig.outputs() {
            offsets[output.lit.node().index() + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut pos = vec![0u32; aig.num_outputs()];
        for (po, output) in aig.outputs().iter().enumerate() {
            let idx = output.lit.node().index();
            pos[cursor[idx] as usize] = po as u32;
            cursor[idx] += 1;
        }
        OutputIndex { offsets, pos }
    }

    /// Primary outputs driven by `node`, ascending (usually empty).
    #[inline]
    pub fn pos_of(&self, node: NodeId) -> &[u32] {
        let idx = node.index();
        &self.pos[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }
}

/// Per-output, per-pattern masks of where a flip of one node reaches each
/// primary output.
///
/// Rows are stored sparsely: only outputs the flip actually reached get a
/// row, and every other output implicitly carries the all-zero mask. This
/// is what makes window-local estimation project to whole-circuit error
/// without whole-circuit cost — a node deep inside a large graph usually
/// reaches a handful of its outputs, so masks scale with the reached set
/// rather than `outputs × words`.
#[derive(Clone, Debug)]
pub struct FlipInfluence {
    node: NodeId,
    num_words: usize,
    num_outputs: usize,
    /// Output indices with a stored influence row, ascending.
    touched: Vec<u32>,
    /// Flattened `touched.len() × words` rows, parallel to `touched`: bit
    /// set iff flipping the node flips that output in that lane.
    rows: Vec<u64>,
    /// All-zero row lent out for untouched outputs.
    zeros: Vec<u64>,
    /// Union of the rows over all outputs.
    any: Vec<u64>,
}

impl FlipInfluence {
    /// Computes the influence masks of `node` by event-driven propagation
    /// over `scratch`, with touched outputs discovered *during* the walk:
    /// every node that turns dirty is checked against the [`OutputIndex`]
    /// in O(1). An output is touched iff its driver ended the walk dirty;
    /// rows are stored ascending by output index.
    ///
    /// Batch callers hold one [`InfluenceScratch`] per worker and reuse it.
    /// Lanes beyond the pattern buffer's valid count carry unspecified
    /// values; callers must mask with the buffer's `word_mask` when
    /// counting.
    pub fn compute(
        aig: &Aig,
        sim: &Simulation,
        fanouts: &FanoutMap,
        outputs: &OutputIndex,
        node: NodeId,
        scratch: &mut InfluenceScratch,
    ) -> FlipInfluence {
        let num_words = sim.num_words();
        let mut dirty_pos: Vec<u32> = Vec::new();
        scratch.propagate_inner(aig, sim, fanouts, node, |id| {
            dirty_pos.extend_from_slice(outputs.pos_of(id));
        });
        // Discovery happens in propagation order; rows are stored ascending
        // by output index, so restore that contract here. Each output has
        // exactly one driver node, so no dedup is needed.
        dirty_pos.sort_unstable();
        let mut rows = vec![0u64; dirty_pos.len() * num_words];
        let mut any = vec![0u64; num_words];
        for (slot, &po) in dirty_pos.iter().enumerate() {
            let o_node = aig.outputs()[po as usize].lit.node();
            let row = &mut rows[slot * num_words..(slot + 1) * num_words];
            // Complement on the output edge cancels in the XOR.
            kernel::xor_into(row, scratch.node_words(sim, o_node), sim.node_words(o_node));
            for (any_w, &r) in any.iter_mut().zip(row.iter()) {
                *any_w |= r;
            }
        }
        if any.iter().all(|&w| w == 0) {
            // The flip died before reaching any primary output.
            alsrac_rt::trace::add("influence_early_exits", 1);
        }
        FlipInfluence {
            node,
            num_words,
            num_outputs: aig.num_outputs(),
            touched: dirty_pos,
            rows,
            zeros: vec![0u64; num_words],
            any,
        }
    }

    /// The node these masks describe.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Influence mask of output `po` (`[w]` indexed). Outputs the flip
    /// never reached share one all-zero row.
    pub fn po_mask(&self, po: usize) -> &[u64] {
        assert!(po < self.num_outputs, "output index out of range");
        match self.touched.binary_search(&(po as u32)) {
            Ok(slot) => &self.rows[slot * self.num_words..(slot + 1) * self.num_words],
            Err(_) => &self.zeros,
        }
    }

    /// Union of the influence masks over all outputs: lanes where a flip of
    /// the node changes *some* output.
    pub fn any_mask(&self) -> &[u64] {
        &self.any
    }

    /// Number of outputs covered (stored rows plus implicit zero rows).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of outputs the flip actually reached (stored rows).
    pub fn num_touched_outputs(&self) -> usize {
        self.touched.len()
    }

    /// Output indices with a stored row, ascending (parallel to row slots).
    ///
    /// Together with [`row`](FlipInfluence::row) this exposes the sparse
    /// layout directly, so compare passes can merge against it with one
    /// rising cursor instead of a binary search per output.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Stored influence row at `slot` (see
    /// [`touched`](FlipInfluence::touched) for which output that is).
    #[inline]
    pub fn row(&self, slot: usize) -> &[u64] {
        &self.rows[slot * self.num_words..(slot + 1) * self.num_words]
    }

    /// Computes candidate output words after replacing the node's function.
    ///
    /// `base_outputs` are the current output values (from the base
    /// simulation) and `change_mask[w]` flags the lanes where the
    /// replacement function disagrees with the node's current value. The
    /// result is exact: `out'[po] = out[po] ^ (influence[po] & change)`.
    pub fn apply(&self, base_outputs: &OutputWords, change_mask: &[u64]) -> OutputWords {
        assert_eq!(
            base_outputs.num_outputs(),
            self.num_outputs(),
            "output count mismatch"
        );
        let mut out = base_outputs.clone();
        // Untouched outputs carry zero masks; only stored rows can flip.
        for (slot, &po) in self.touched.iter().enumerate() {
            let inf = &self.rows[slot * self.num_words..(slot + 1) * self.num_words];
            let row = out.po_mut(po as usize);
            for (w, slot) in row.iter_mut().enumerate() {
                *slot ^= inf[w] & change_mask[w];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternBuffer;
    use alsrac_aig::Aig;
    use std::collections::HashMap;

    /// Builds a 4-input circuit with some reconvergence.
    fn sample() -> Aig {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let bc = aig.xor(b, c);
        let top1 = aig.or(ab, bc);
        let top2 = aig.and(bc, d);
        let top3 = aig.xor(top1, top2); // reconverges on bc
        aig.add_output("y1", top1);
        aig.add_output("y2", top3);
        aig
    }

    /// Reference: flip `node` by forcing its value to the complement in a
    /// per-pattern reference evaluation.
    fn reference_influence(aig: &Aig, patterns: &PatternBuffer, node: NodeId) -> Vec<Vec<u64>> {
        let base = Simulation::new(aig, patterns);
        let mut result = vec![vec![0u64; base.num_words()]; aig.num_outputs()];
        for p in 0..patterns.num_patterns() {
            // Evaluate with node forced to its complement.
            let mut values = vec![false; aig.num_nodes()];
            for id in aig.iter_nodes() {
                let v = match *aig.node(id) {
                    alsrac_aig::Node::Const => false,
                    alsrac_aig::Node::Input { index } => patterns.get(index as usize, p),
                    alsrac_aig::Node::And { f0, f1 } => {
                        (values[f0.node().index()] ^ f0.is_complement())
                            && (values[f1.node().index()] ^ f1.is_complement())
                    }
                };
                values[id.index()] = if id == node { !v } else { v };
            }
            for (po, output) in aig.outputs().iter().enumerate() {
                let flipped_v = values[output.lit.node().index()] ^ output.lit.is_complement();
                let base_v = base.lit_bit(output.lit, p);
                if flipped_v != base_v {
                    result[po][p / 64] |= 1 << (p % 64);
                }
            }
        }
        result
    }

    /// [`FlipInfluence::compute`] with a fresh index and scratch.
    fn fresh(aig: &Aig, sim: &Simulation, fanouts: &FanoutMap, node: NodeId) -> FlipInfluence {
        let outputs = OutputIndex::new(aig);
        FlipInfluence::compute(
            aig,
            sim,
            fanouts,
            &outputs,
            node,
            &mut InfluenceScratch::new(),
        )
    }

    #[test]
    fn influence_matches_reference_for_all_nodes() {
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let outputs = OutputIndex::new(&aig);
        let mask = patterns.word_mask(0);
        // One scratch for every node: state leaking from one propagation
        // into the next would show up here.
        let mut scratch = InfluenceScratch::new();
        for id in aig.iter_nodes().skip(1) {
            let inf = FlipInfluence::compute(&aig, &sim, &fanouts, &outputs, id, &mut scratch);
            let want = reference_influence(&aig, &patterns, id);
            for (po, want_po) in want.iter().enumerate() {
                assert_eq!(
                    inf.po_mask(po)[0] & mask,
                    want_po[0] & mask,
                    "node {id}, po {po}"
                );
            }
            // Sparse layout: one row per output whose driver ended the walk
            // dirty, ascending by output index.
            let reached: Vec<u32> = (0..aig.num_outputs() as u32)
                .filter(|&po| scratch.is_dirty(aig.outputs()[po as usize].lit.node()))
                .collect();
            assert_eq!(inf.touched(), reached.as_slice(), "node {id}");
            for (slot, &po) in inf.touched().iter().enumerate() {
                assert_eq!(inf.row(slot), inf.po_mask(po as usize), "node {id}");
            }
        }
    }

    #[test]
    fn output_index_lists_drivers_ascending() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y0", x);
        aig.add_output("y1", a);
        aig.add_output("y2", !x);
        let outputs = OutputIndex::new(&aig);
        assert_eq!(outputs.pos_of(x.node()), &[0, 2]);
        assert_eq!(outputs.pos_of(a.node()), &[1]);
        assert_eq!(outputs.pos_of(b.node()), &[] as &[u32]);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_nodes() {
        // Computing node B after node A with a shared scratch must give the
        // same masks as a fresh scratch for B.
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let nodes: Vec<NodeId> = aig.iter_ands().collect();
        let outputs = OutputIndex::new(&aig);
        let mut shared = InfluenceScratch::new();
        for &warm in &nodes {
            FlipInfluence::compute(&aig, &sim, &fanouts, &outputs, warm, &mut shared);
        }
        for &id in &nodes {
            let reused = FlipInfluence::compute(&aig, &sim, &fanouts, &outputs, id, &mut shared);
            let alone = fresh(&aig, &sim, &fanouts, id);
            assert_eq!(reused.po_mask(0), alone.po_mask(0), "node {id}");
            assert_eq!(reused.po_mask(1), alone.po_mask(1), "node {id}");
            assert_eq!(reused.any_mask(), alone.any_mask(), "node {id}");
        }
    }

    #[test]
    fn any_mask_is_union() {
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let node = aig.iter_ands().next().expect("has ands");
        let inf = fresh(&aig, &sim, &fanouts, node);
        for w in 0..sim.num_words() {
            let union = (0..aig.num_outputs()).fold(0, |acc, po| acc | inf.po_mask(po)[w]);
            assert_eq!(inf.any_mask()[w], union);
        }
    }

    #[test]
    fn apply_reproduces_direct_resimulation() {
        // Replace a node with constant 0 and compare apply() against a
        // rebuilt circuit's simulation.
        let aig = sample();
        let patterns = PatternBuffer::exhaustive(4);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let node = aig.iter_ands().nth(1).expect("has ands");
        let inf = fresh(&aig, &sim, &fanouts, node);

        // Change mask: lanes where "constant 0" differs from current value.
        let change: Vec<u64> = sim.node_words(node).to_vec();
        let candidate = inf.apply(&sim.output_words(&aig), &change);

        let rebuilt = aig
            .rebuilt_with_substitutions(&HashMap::from([(node, alsrac_aig::Lit::FALSE)]))
            .expect("no cycle");
        let rebuilt_sim = Simulation::new(&rebuilt, &patterns);
        let mask = patterns.word_mask(0);
        for po in 0..aig.num_outputs() {
            assert_eq!(
                candidate.word(po, 0) & mask,
                rebuilt_sim.output_word(&rebuilt, po, 0) & mask,
                "po {po}"
            );
        }
    }

    #[test]
    fn influence_of_fanout_free_node_is_empty_elsewhere() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let dangling = aig.and(a, !b);
        aig.add_output("y", x);
        let patterns = PatternBuffer::exhaustive(2);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let inf = fresh(&aig, &sim, &fanouts, dangling.node());
        assert_eq!(inf.po_mask(0)[0] & patterns.word_mask(0), 0);
    }

    #[test]
    fn influence_of_output_driver_is_total() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y", x);
        let patterns = PatternBuffer::exhaustive(2);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let inf = fresh(&aig, &sim, &fanouts, x.node());
        assert_eq!(
            inf.po_mask(0)[0] & patterns.word_mask(0),
            patterns.word_mask(0)
        );
    }

    #[test]
    fn sparse_rows_cover_only_reached_outputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let dangling = aig.and(a, !b);
        aig.add_output("y", x);
        aig.add_output("z", a);
        let patterns = PatternBuffer::exhaustive(2);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        // The dangling node reaches no output: zero stored rows, but the
        // mask accessors still answer for every output index.
        let inf = fresh(&aig, &sim, &fanouts, dangling.node());
        assert_eq!(inf.num_touched_outputs(), 0);
        assert_eq!(inf.num_outputs(), 2);
        assert!(inf.po_mask(0).iter().all(|&w| w == 0));
        assert!(inf.po_mask(1).iter().all(|&w| w == 0));
        // The y-driver reaches exactly one of the two outputs.
        let inf = fresh(&aig, &sim, &fanouts, x.node());
        assert_eq!(inf.num_touched_outputs(), 1);
        assert_eq!(inf.po_mask(0), inf.any_mask());
        assert!(inf.po_mask(1).iter().all(|&w| w == 0));
    }

    #[test]
    fn propagation_quenches_without_visiting_far_cone() {
        // y = a & 0-via-(b & !b): flipping the constant-like node cannot
        // change anything once masked... instead build a quench directly:
        // n = a & b, m = n | n (same value), flipping a node whose fanout
        // recomputes the same word quenches. Simplest robust construction:
        // two inputs driving an AND whose value the flip cannot change is
        // impossible for the root itself, so check the visit count instead:
        // a chain where the flip dies at the first AND.
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // dead = b & !b == const-0 behavior per-pattern.
        let dead = aig.and(b, !b);
        let x = aig.and(a, dead);
        let mut y = x;
        for _ in 0..10 {
            y = aig.and(y, a);
        }
        aig.add_output("y", y);
        let patterns = PatternBuffer::exhaustive(2);
        let sim = Simulation::new(&aig, &patterns);
        let fanouts = aig.fanout_map();
        let mut scratch = InfluenceScratch::new();
        // Flipping `b` flips `dead` (b & !b stays 0? No: flipping the node
        // value of b changes both fanin edges, so dead = !b & b = 0 still).
        // So the flip of b quenches at `dead`... unless it also feeds other
        // nodes. b only feeds dead here, so the frontier dies immediately.
        let visited = scratch.propagate(&aig, &sim, &fanouts, b.node());
        assert!(visited <= 2, "visited {visited} nodes, expected quench");
        let outputs = OutputIndex::new(&aig);
        let inf = FlipInfluence::compute(&aig, &sim, &fanouts, &outputs, b.node(), &mut scratch);
        assert_eq!(inf.any_mask()[0] & patterns.word_mask(0), 0);
    }
}
