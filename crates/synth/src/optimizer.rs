//! The optimizer object: `sweep; resyn2` passes that share one recipe
//! cache for as long as the optimizer lives.
//!
//! `rewrite` and `refactor` both turn a cone's truth table into a
//! replacement: the cheaper of the ISOP covers of `f` and `!f`,
//! priced by [`factored_aig_cost`]. That derivation is a pure function of
//! the truth table, and the same small functions recur in every pass of
//! every call, so an [`Optimizer`] memoizes it. Results are identical to a
//! fresh cache; only the time differs.

use std::collections::HashMap;
use std::ops::Deref;

use alsrac_aig::{Aig, FxHasher, Lit, NodeId};
use alsrac_truthtable::{factored_aig_cost, isop, sop_to_aig, Sop, Tt};

use crate::{balance, sweep, RefactorConfig, RewriteConfig};

/// A replacement recipe for one truth table: the chosen cover, its
/// standalone node cost, and its polarity.
pub(crate) struct Recipe {
    pub(crate) cover: Sop,
    pub(crate) cost: u32,
    pub(crate) complemented: bool,
}

impl Recipe {
    /// The cheaper of `isop(f)` / `isop(!f)` as a factored cover (ties go
    /// to `f`).
    fn of(tt: &Tt) -> Recipe {
        let n = tt.nvars();
        let pos = isop(tt, tt);
        let neg_tt = tt.not();
        let neg = isop(&neg_tt, &neg_tt);
        let pos_cost = factored_aig_cost(&pos, n);
        let neg_cost = factored_aig_cost(&neg, n);
        let (cover, complemented, cost) = if neg_cost < pos_cost {
            (neg, true, neg_cost)
        } else {
            (pos, false, pos_cost)
        };
        Recipe {
            cover,
            cost: u32::try_from(cost).expect("a cover of at most 16 variables has < 2^32 ANDs"),
            complemented,
        }
    }
}

/// The common end of `rewrite` and `refactor`: builds each decided
/// replacement `(node, cover, complemented, leaves)` (the cover over the
/// leaves' literals, complemented as needed) and rebuilds `aig` with the
/// replaced nodes substituted and swept. A replacement that lands on its
/// own node is skipped; with none decided the result is `aig.cleaned()`.
pub(crate) fn substitute<L: Deref<Target = [NodeId]>>(
    aig: &Aig,
    pending: Vec<(NodeId, Sop, bool, L)>,
) -> Aig {
    if pending.is_empty() {
        return aig.cleaned();
    }
    let mut work = aig.clone();
    let mut substitutions: HashMap<NodeId, Lit> = HashMap::new();
    for (id, cover, complemented, leaves) in pending {
        let leaf_lits: Vec<Lit> = leaves.iter().map(|&n| n.lit()).collect();
        let new_lit = sop_to_aig(&mut work, &cover, &leaf_lits).complement_if(complemented);
        if new_lit.node() != id {
            substitutions.insert(id, new_lit);
        }
    }
    work.rebuilt_with_substitutions(&substitutions)
        .expect("replacements reference strict TFI cones")
}

/// `sweep; resyn2` with one recipe cache shared by every [`rewrite`] and
/// [`refactor`] pass it runs.
///
/// Hold one optimizer for a sequence of related calls (one flow run) and
/// the recipes derived in one call are reused by the next. Every method
/// returns exactly what the free function of the same name returns.
///
/// [`rewrite`]: Optimizer::rewrite
/// [`refactor`]: Optimizer::refactor
///
/// ```
/// use alsrac_circuits::{aiger::write_ascii, arith};
/// use alsrac_synth::{optimize, Optimizer};
///
/// let aig = arith::carry_lookahead_adder(6);
/// let mut optimizer = Optimizer::new();
/// let once = optimizer.optimize(&aig);
/// let computed = optimizer.recipes_computed();
/// // The second call reuses the first call's recipes.
/// let twice = optimizer.optimize(&once);
/// assert!(optimizer.recipes_computed() >= computed);
/// // Node for node what a fresh cache gives.
/// assert_eq!(write_ascii(&once), write_ascii(&optimize(&aig)));
/// assert_eq!(write_ascii(&twice), write_ascii(&optimize(&once)));
/// ```
#[derive(Default)]
pub struct Optimizer {
    /// Recipes of tables of at most 6 variables (every rewrite cut), keyed
    /// by variable count and (tail-masked) word, so a lookup allocates
    /// nothing.
    words: HashMap<(u8, u64), Recipe, FxHasher>,
    /// Recipes of wider tables, looked up by reference.
    wide: HashMap<Tt, Recipe, FxHasher>,
}

impl Optimizer {
    /// An optimizer with an empty recipe cache.
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// Recipes derived so far: the cache misses over this optimizer's
    /// lifetime (every miss adds one entry).
    pub fn recipes_computed(&self) -> usize {
        self.words.len() + self.wide.len()
    }

    /// The recipe of `tt`.
    pub(crate) fn recipe(&mut self, tt: &Tt) -> &Recipe {
        if tt.nvars() <= 6 {
            return self.word_recipe(tt.nvars(), tt.to_bits());
        }
        if !self.wide.contains_key(tt) {
            self.wide.insert(tt.clone(), Recipe::of(tt));
        }
        &self.wide[tt]
    }

    /// The recipe of the `nvars`-variable table whose word is `bits`
    /// (tail-masked, as [`Tt::to_bits`] returns it).
    pub(crate) fn word_recipe(&mut self, nvars: usize, bits: u64) -> &Recipe {
        self.words
            .entry((nvars as u8, bits))
            .or_insert_with(|| Recipe::of(&Tt::from_bits(nvars, bits)))
    }

    /// The `resyn2`-like script: alternating balance / rewrite / refactor
    /// rounds, with zero-gain variants in the later rounds, mirroring
    /// ABC's `resyn2` (`b; rw; rf; b; rw; rwz; b; rfz; rwz; b`).
    pub fn resyn2_lite(&mut self, aig: &Aig) -> Aig {
        let rw = RewriteConfig { zero_gain: false };
        let rwz = RewriteConfig { zero_gain: true };
        let rf = RefactorConfig { zero_gain: false };
        let rfz = RefactorConfig { zero_gain: true };

        let mut g = balance(aig);
        g = self.rewrite(&g, &rw);
        g = self.refactor(&g, &rf);
        g = balance(&g);
        g = self.rewrite(&g, &rw);
        g = self.rewrite(&g, &rwz);
        g = balance(&g);
        g = self.refactor(&g, &rfz);
        g = self.rewrite(&g, &rwz);
        balance(&g)
    }

    /// The combination ALSRAC runs after each accepted change:
    /// `sweep; resyn2` (Algorithm 3, line 9).
    pub fn optimize(&mut self, aig: &Aig) -> Aig {
        self.resyn2_lite(&sweep(aig))
    }
}
