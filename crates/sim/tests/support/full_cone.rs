//! Full-cone flip influence, the test oracle for `FlipInfluence::compute`.
//!
//! It re-simulates the flipped node's entire TFO cone with no early exit
//! and no output index, so it shares none of the event-driven engine's
//! shortcuts (quenching, epoch stamps, level buckets, in-walk output
//! discovery).

use alsrac_aig::{Aig, FanoutMap, Node, NodeId};
use alsrac_sim::Simulation;

/// Dense influence masks of `node`, `masks[po][w]`: bit set iff flipping
/// the node flips output `po` in that lane.
pub fn full_cone_influence(
    aig: &Aig,
    sim: &Simulation,
    fanouts: &FanoutMap,
    node: NodeId,
) -> Vec<Vec<u64>> {
    let num_words = sim.num_words();
    let cone = aig.tfo_cone(node, fanouts);
    // Flipped values for cone members only.
    let mut flipped: Vec<Option<Vec<u64>>> = vec![None; aig.num_nodes()];
    flipped[node.index()] = Some(sim.node_words(node).iter().map(|&w| !w).collect());
    for &id in cone.members() {
        if id == node {
            continue;
        }
        let Node::And { f0, f1 } = *aig.node(id) else {
            // The TFO of an internal node contains only AND nodes above
            // it; an input can only appear as the root itself.
            continue;
        };
        let mut words = vec![0u64; num_words];
        for (w, word) in words.iter_mut().enumerate() {
            let v0 = match &flipped[f0.node().index()] {
                Some(new) => new[w],
                None => sim.node_word(f0.node(), w),
            } ^ if f0.is_complement() { u64::MAX } else { 0 };
            let v1 = match &flipped[f1.node().index()] {
                Some(new) => new[w],
                None => sim.node_word(f1.node(), w),
            } ^ if f1.is_complement() { u64::MAX } else { 0 };
            *word = v0 & v1;
        }
        flipped[id.index()] = Some(words);
    }
    aig.outputs()
        .iter()
        .map(|output| {
            let o_node = output.lit.node();
            match &flipped[o_node.index()] {
                // Complement on the output edge cancels in the XOR.
                Some(new) => (0..num_words)
                    .map(|w| new[w] ^ sim.node_word(o_node, w))
                    .collect(),
                None => vec![0u64; num_words],
            }
        })
        .collect()
}
