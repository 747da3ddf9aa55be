//! Divisor-set selection (Algorithm 1 of the paper).
//!
//! For a node `V`, candidate divisor sets are produced by two edits of its
//! fanin set:
//!
//! 1. **remove** a fanin `n` — the set `fanins(V) \ {n}`;
//! 2. **replace** a fanin `n` with another node `u` from `V`'s TFI cone —
//!    the set `fanins(V) \ {n} ∪ {u}`.
//!
//! Only TFI-cone nodes are considered because `V`'s function most likely
//! depends on them. TFI nodes are visited in ascending logic level, as in
//! the paper's pseudocode.
//!
//! Two performance layers sit on top of Algorithm 1. Logic levels are
//! *hoisted*: [`select_divisor_sets_with`] takes the per-node level slice
//! (available from the flow's [`alsrac_aig::FanoutMap`]) instead of
//! recomputing `Aig::levels` per call, which the old path did once per
//! node per iteration. And the candidate pool can be drawn from a bounded
//! [`Window`] instead of the full TFI cone; because the pool is re-sorted
//! by `(level, index)` — a total order — a window that covers the whole
//! TFI yields a bit-identical pool, which is what keeps the windowed flow
//! bit-identical on small circuits.
//!
//! Sets are [`NodeSet`]s, the inline `Copy` node set that also holds
//! enumerated cuts' leaves: a divisor set has at most three nodes and costs
//! no allocation. The pool is only partially sorted.
//! Fanin 0's removal and its replacements come first and stop at
//! `max_sets`, so the walk reads at most the `max_sets` lowest pool
//! entries: a partial selection picks those, and only they are sorted.
//! No deduplication is needed either. The pool excludes the node and both
//! fanins, so removal sets (one fanin), replacement sets (the kept fanin
//! plus a pool node) and extension sets (both fanins plus a pool node)
//! differ in size or in their pool member, and are distinct by
//! construction.

use alsrac_aig::{Aig, Node, NodeId, NodeSet, Window};

/// Configuration for [`select_divisor_sets`].
#[derive(Clone, Debug)]
pub struct DivisorConfig {
    /// Upper bound on the number of candidate sets returned per node (keeps
    /// huge TFI cones tractable).
    pub max_sets: usize,
    /// Also offer the *fanin set itself* extended by one TFI node
    /// (a mild generalization of the paper; disabled by default to match
    /// Algorithm 1 exactly).
    pub include_extensions: bool,
}

impl Default for DivisorConfig {
    fn default() -> DivisorConfig {
        DivisorConfig {
            max_sets: 64,
            include_extensions: false,
        }
    }
}

/// Computes candidate divisor sets for `node`, in Algorithm 1's order:
/// per removed fanin, first the bare removal, then each TFI replacement in
/// ascending level order.
///
/// The node itself, its fanins (for the replacement slot), and the constant
/// node are excluded from the replacement pool. Returns an empty list for
/// inputs and the constant.
///
/// Convenience wrapper over [`select_divisor_sets_with`] that recomputes
/// levels and walks the full TFI cone; per-iteration callers (the flow)
/// should hoist both.
pub fn select_divisor_sets(aig: &Aig, node: NodeId, config: &DivisorConfig) -> Vec<NodeSet> {
    select_divisor_sets_with(aig, node, &aig.levels(), None, config)
}

/// [`select_divisor_sets`] with hoisted structural data: `levels` is the
/// per-node logic-level slice (e.g. [`alsrac_aig::FanoutMap::levels`]) and
/// `window`, when present, restricts the replacement pool to the window's
/// TFI-side nodes ([`Window::tfi_nodes`]) instead of the full TFI cone.
pub fn select_divisor_sets_with(
    aig: &Aig,
    node: NodeId,
    levels: &[u32],
    window: Option<&Window>,
    config: &DivisorConfig,
) -> Vec<NodeSet> {
    let Node::And { f0, f1 } = *aig.node(node) else {
        return Vec::new();
    };
    let fanins = [f0.node(), f1.node()];
    if fanins[0] == fanins[1] {
        return Vec::new(); // duplicated fanin node: every set degenerates
    }

    // TFI candidates in ascending level (Algorithm 1, line 2). The
    // `(level, index)` key is a total order, so the pool is independent of
    // the candidate source's own ordering, and the `max_sets` lowest
    // entries — all the walk below can read — are a well-defined prefix.
    let cone;
    let candidates: &[NodeId] = match window {
        Some(w) => w.tfi_nodes(),
        None => {
            cone = aig.tfi_cone(node);
            cone.members()
        }
    };
    let mut pool: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| n != node && n != NodeId::CONST && !fanins.contains(&n))
        .collect();
    let key = |n: &NodeId| (levels[n.index()], n.index());
    if pool.len() > config.max_sets {
        pool.select_nth_unstable_by_key(config.max_sets, key);
        pool.truncate(config.max_sets);
    }
    pool.sort_unstable_by_key(key);

    let mut sets = Vec::with_capacity(config.max_sets.min(2 + 3 * pool.len()));
    for kept in [fanins[1], fanins[0]] {
        // Removal set (Algorithm 1, lines 5-6), then the replacement sets
        // (lines 7-9).
        let replacements = pool
            .iter()
            .map(|&u| NodeSet::new(&[kept.min(u), kept.max(u)]));
        for set in std::iter::once(NodeSet::new(&[kept])).chain(replacements) {
            if sets.len() >= config.max_sets {
                return sets;
            }
            sets.push(set);
        }
    }
    if config.include_extensions {
        for &u in &pool {
            if sets.len() >= config.max_sets {
                break;
            }
            let mut set = [fanins[0], fanins[1], u];
            set.sort_unstable();
            sets.push(NodeSet::new(&set));
        }
    }
    sets
}

/// Algorithm 1 as it read before inline node sets: one `Vec` per set, a
/// fully sorted pool and a `contains` check per pushed set. Kept as the
/// reference the partial selection is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn select_divisor_sets_with(
        aig: &Aig,
        node: NodeId,
        levels: &[u32],
        window: Option<&Window>,
        config: &DivisorConfig,
    ) -> Vec<Vec<NodeId>> {
        let Node::And { f0, f1 } = *aig.node(node) else {
            return Vec::new();
        };
        let fanins = [f0.node(), f1.node()];
        let cone;
        let candidates: &[NodeId] = match window {
            Some(w) => w.tfi_nodes(),
            None => {
                cone = aig.tfi_cone(node);
                cone.members()
            }
        };
        let mut pool: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&n| n != node && n != NodeId::CONST && !fanins.contains(&n))
            .collect();
        pool.sort_by_key(|n| (levels[n.index()], n.index()));

        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        for &removed in &fanins {
            let kept: Vec<NodeId> = fanins.iter().copied().filter(|&n| n != removed).collect();
            if kept.is_empty() || kept.len() == fanins.len() {
                continue; // duplicated fanin node: removal degenerates
            }
            if sets.len() >= config.max_sets {
                return sets;
            }
            if !sets.contains(&kept) {
                sets.push(kept.clone());
            }
            for &u in &pool {
                if sets.len() >= config.max_sets {
                    return sets;
                }
                let mut set = kept.clone();
                if set.contains(&u) {
                    continue;
                }
                set.push(u);
                set.sort_unstable();
                if !sets.contains(&set) {
                    sets.push(set);
                }
            }
        }
        if config.include_extensions {
            for &u in &pool {
                if sets.len() >= config.max_sets {
                    break;
                }
                let mut set = fanins.to_vec();
                set.push(u);
                set.sort_unstable();
                set.dedup();
                if set.len() == 3 && !sets.contains(&set) {
                    sets.push(set);
                }
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// v = (a & b) & (c | d) with some depth below.
    fn sample() -> (Aig, NodeId, Vec<NodeId>) {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let d = aig.add_input("d");
        let ab = aig.and(a, b);
        let cd = aig.or(c, d);
        let v = aig.and(ab, cd);
        aig.add_output("v", v);
        (
            aig,
            v.node(),
            vec![a.node(), b.node(), c.node(), d.node(), ab.node(), cd.node()],
        )
    }

    #[test]
    fn removal_sets_come_first() {
        let (aig, v, _) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        // First set: one of the fanins alone.
        assert_eq!(sets[0].len(), 1);
        let [f0, f1] = aig.and_fanins(v);
        assert!(sets[0][0] == f0.node() || sets[0][0] == f1.node());
    }

    #[test]
    fn replacement_sets_draw_from_tfi() {
        let (aig, v, tfi_members) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        for set in &sets {
            assert!(!set.contains(&v), "node must not be its own divisor");
            for n in set.iter() {
                assert!(tfi_members.contains(n), "{n} outside TFI");
            }
        }
        // Pairs {fanin, replacement} must appear.
        assert!(sets.iter().any(|s| s.len() == 2));
    }

    #[test]
    fn no_duplicate_sets() {
        let (aig, v, _) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        for (i, s) in sets.iter().enumerate() {
            for t in &sets[i + 1..] {
                assert_ne!(s, t, "duplicate divisor set");
            }
        }
    }

    #[test]
    fn max_sets_is_respected() {
        let (aig, v, _) = sample();
        let config = DivisorConfig {
            max_sets: 3,
            ..DivisorConfig::default()
        };
        let sets = select_divisor_sets(&aig, v, &config);
        assert!(sets.len() <= 3);
    }

    #[test]
    fn inputs_have_no_divisor_sets() {
        let (aig, _, tfi) = sample();
        assert!(select_divisor_sets(&aig, tfi[0], &DivisorConfig::default()).is_empty());
        assert!(select_divisor_sets(&aig, NodeId::CONST, &DivisorConfig::default()).is_empty());
    }

    #[test]
    fn extension_sets_add_a_third_divisor() {
        let (aig, v, _) = sample();
        let config = DivisorConfig {
            include_extensions: true,
            max_sets: 1000,
        };
        let sets = select_divisor_sets(&aig, v, &config);
        assert!(sets.iter().any(|s| s.len() == 3));
    }

    #[test]
    fn full_window_pool_matches_whole_circuit_pool() {
        use alsrac_aig::{WindowExtractor, WindowParams};
        let (aig, v, _) = sample();
        let fanouts = aig.fanout_map();
        let mut ex = WindowExtractor::new();
        for id in aig.iter_ands() {
            let w = ex.extract(&aig, &fanouts, id, &WindowParams::default());
            let windowed = select_divisor_sets_with(
                &aig,
                id,
                fanouts.levels(),
                Some(&w),
                &DivisorConfig::default(),
            );
            let plain = select_divisor_sets(&aig, id, &DivisorConfig::default());
            assert_eq!(windowed, plain, "node {id}");
        }
        // A truncated window shrinks the pool but stays well-formed.
        let w = ex.extract(&aig, &fanouts, v, &WindowParams { max_tfi: 3 });
        let truncated = select_divisor_sets_with(
            &aig,
            v,
            fanouts.levels(),
            Some(&w),
            &DivisorConfig::default(),
        );
        for set in &truncated {
            for n in set.iter() {
                assert!(
                    w.tfi_nodes().contains(n) || aig.and_fanins(v).iter().any(|f| f.node() == *n)
                );
            }
        }
    }

    #[test]
    fn replacement_pool_is_level_ordered() {
        let (aig, v, _) = sample();
        let sets = select_divisor_sets(&aig, v, &DivisorConfig::default());
        let levels = aig.levels();
        // Among the 2-element sets sharing the same kept fanin, the added
        // divisor's level must be non-decreasing.
        let [f0, _f1] = aig.and_fanins(v);
        let added: Vec<u32> = sets
            .iter()
            .filter(|s| s.len() == 2 && s.contains(&f0.node()))
            .map(|s| {
                let other = s.iter().find(|&&n| n != f0.node()).expect("pair");
                levels[other.index()]
            })
            .collect();
        for w in added.windows(2) {
            assert!(w[0] <= w[1], "levels not ascending: {added:?}");
        }
    }

    #[test]
    fn partial_pool_matches_the_full_sort_oracle() {
        use alsrac_aig::{WindowExtractor, WindowParams};
        use alsrac_circuits::catalog::{self, Scale};
        let circuits = catalog::iscas_and_arith(Scale::Test)
            .into_iter()
            .chain(catalog::epfl_control(Scale::Test))
            .chain(catalog::epfl_arith(Scale::Test));
        let mut ex = WindowExtractor::new();
        let mut compared = 0usize;
        for bench in circuits {
            let aig = &bench.aig;
            let fanouts = aig.fanout_map();
            let levels = fanouts.levels();
            for node in aig.iter_ands() {
                let whole = ex.extract(aig, &fanouts, node, &WindowParams { max_tfi: 0 });
                let tight = ex.extract(aig, &fanouts, node, &WindowParams { max_tfi: 4 });
                for window in [Some(&whole), Some(&tight), None] {
                    for max_sets in [0, 1, 3, 64, 1000] {
                        for include_extensions in [false, true] {
                            let config = DivisorConfig {
                                max_sets,
                                include_extensions,
                            };
                            let got = select_divisor_sets_with(aig, node, levels, window, &config);
                            let want = oracle::select_divisor_sets_with(
                                aig, node, levels, window, &config,
                            );
                            let got: Vec<Vec<NodeId>> = got.iter().map(|s| s.to_vec()).collect();
                            assert_eq!(got, want, "{} node {node} {config:?}", bench.paper_name);
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(compared > 10_000, "{compared}");
    }
}
