//! Bounded windows around a pivot node for window-local resubstitution.
//!
//! Whole-circuit resubstitution walks the pivot's full transitive fanin
//! per candidate node, which is `O(n)` per pivot and `O(n²)` per flow
//! iteration. A [`Window`] bounds that walk: a depth-first TFI walk from
//! the pivot that stops *expanding* once [`WindowParams::max_tfi`] nodes
//! are collected. Fanins already reached stay in the window as boundary
//! nodes, so a window holds at most `max_tfi` plus the walk's pending
//! stack. Divisor selection reads the window's nodes as its candidate
//! pool ([`Window::tfi_nodes`]).
//!
//! When `max_tfi` is at least the pivot's full TFI size, the collected
//! window is *exactly* the TFI cone — the property the flow's
//! bit-identity gate on small circuits rests on.

use crate::{Aig, FanoutMap, NodeId};

/// Size bounds for [`WindowExtractor::extract`].
#[derive(Clone, Debug)]
pub struct WindowParams {
    /// Collected-node count at which the walk stops expanding (the pivot
    /// is always expanded). `0` means unbounded. When the bound is at
    /// least the pivot's TFI size, the window covers the entire TFI cone.
    pub max_tfi: usize,
}

impl Default for WindowParams {
    fn default() -> WindowParams {
        WindowParams { max_tfi: 1000 }
    }
}

/// The nodes of a bounded TFI walk around one pivot (see
/// [`WindowExtractor::extract`]).
#[derive(Clone, Debug)]
pub struct Window {
    tfi_members: Vec<NodeId>,
}

impl Window {
    /// Window nodes, ascending: the pivot, every node the walk reached
    /// below it, and the constant when the walk reached it — the divisor
    /// candidate pool.
    pub fn tfi_nodes(&self) -> &[NodeId] {
        &self.tfi_members
    }

    /// Number of window nodes.
    pub fn num_nodes(&self) -> usize {
        self.tfi_members.len()
    }
}

/// Reusable extractor arena: epoch-stamped visit marks sized to the graph,
/// so per-pivot extraction costs `O(window)` rather than `O(n)`. Per-node
/// loops should hold one extractor and reuse it across pivots.
#[derive(Clone, Debug, Default)]
pub struct WindowExtractor {
    /// Visit stamp: node is a window member this epoch.
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl WindowExtractor {
    /// An empty extractor; buffers are sized lazily on first use.
    pub fn new() -> WindowExtractor {
        WindowExtractor::default()
    }

    fn begin(&mut self, num_nodes: usize) {
        if self.mark.len() < num_nodes {
            self.mark.clear();
            self.mark.resize(num_nodes, 0);
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Extracts the window around `pivot` under `params`.
    ///
    /// The walk mirrors [`Aig::tfi_cone`]'s traversal order and stops
    /// *expanding* once `max_tfi` nodes are collected — already-reached
    /// fanins stay in the window. The pivot itself is always expanded.
    /// The walk follows fanin edges only, so `_fanouts` is not read.
    pub fn extract(
        &mut self,
        aig: &Aig,
        _fanouts: &FanoutMap,
        pivot: NodeId,
        params: &WindowParams,
    ) -> Window {
        self.begin(aig.num_nodes());
        let mut members = Vec::new();
        self.stack.push(pivot);
        while let Some(id) = self.stack.pop() {
            if self.mark[id.index()] == self.epoch {
                continue;
            }
            self.mark[id.index()] = self.epoch;
            members.push(id);
            let within_budget =
                id == pivot || params.max_tfi == 0 || members.len() < params.max_tfi;
            if within_budget && aig.node(id).is_and() {
                let [f0, f1] = aig.and_fanins(id);
                self.stack.push(f0.node());
                self.stack.push(f1.node());
            }
        }
        members.sort_unstable();
        Window {
            tfi_members: members,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// v = (a & b) & (c | d), plus a second output on (a & b).
    fn sample() -> (Aig, NodeId) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.or(c, d);
        let v = aig.and(ab, cd);
        aig.add_output("v", v);
        aig.add_output("ab", ab);
        (aig, v.node())
    }

    #[test]
    fn unbounded_window_covers_the_tfi() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        let tfi = aig.tfi_cone(pivot);
        assert_eq!(w.num_nodes(), tfi.len());
        assert_eq!(w.tfi_nodes(), tfi.members());
    }

    #[test]
    fn truncated_window_is_a_bounded_part_of_the_tfi() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let w = ex.extract(&aig, &fanouts, pivot, &WindowParams { max_tfi: 3 });
        let tfi = aig.tfi_cone(pivot);
        assert!(w.num_nodes() <= 5, "window too large: {}", w.num_nodes());
        assert!(w.num_nodes() < tfi.len());
        for &id in w.tfi_nodes() {
            assert!(tfi.contains(id), "{id} is outside the pivot's TFI");
        }
        // The pivot is always expanded, so its fanins are always members.
        assert!(w.tfi_nodes().contains(&pivot));
        for f in aig.and_fanins(pivot) {
            assert!(w.tfi_nodes().contains(&f.node()));
        }
    }

    #[test]
    fn extractor_reuse_is_deterministic() {
        let (aig, pivot) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        let first = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        for id in aig.iter_ands() {
            let _ = ex.extract(&aig, &fanouts, id, &WindowParams::default());
        }
        let again = ex.extract(&aig, &fanouts, pivot, &WindowParams::default());
        assert_eq!(first.tfi_nodes(), again.tfi_nodes());
    }
}
