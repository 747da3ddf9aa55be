//! Traditional (exact) logic synthesis for AIGs.
//!
//! After ALSRAC applies a local approximate change, the circuit contains
//! redundancy that a conventional optimizer removes; the paper runs ABC's
//! `sweep; resyn2` at every iteration (Algorithm 3, line 9). This crate
//! reimplements the used subset from scratch:
//!
//! * **sweep** — constant propagation, structural-hash deduplication, and
//!   dangling-node removal (this is
//!   [`Aig::cleaned`](alsrac_aig::Aig::cleaned), re-exported here as
//!   [`sweep`] for discoverability);
//! * **[`balance`]** — AND-tree height reduction by rebuilding conjunction
//!   chains as balanced trees (ABC `balance`);
//! * **[`rewrite`]** — 4-feasible-cut resynthesis: each cut function is
//!   re-derived as the factored form of its ISOP and substituted when it saves
//!   nodes (ABC `rewrite`);
//! * **[`refactor`]** — large-cone resynthesis seeded at maximum
//!   fanout-free cones (ABC `refactor`);
//! * **[`resyn2_lite`]** — the round-robin script of the above mirroring
//!   ABC's `resyn2`, plus [`optimize`], the `sweep; resyn2` combination the
//!   ALSRAC flow calls.
//!
//! `rewrite` and `refactor` derive each replacement from a truth table; the
//! derivation (ISOP of both polarities, factored cost) is memoized in a recipe
//! cache shared by both. The free functions start from an empty cache; an
//! [`Optimizer`] keeps one across calls, so a flow run that holds one
//! memoizes its recipes per run. Either way the output is the same.
//!
//! Every pass is *exact*: the optimized graph is functionally equivalent to
//! its input (property-tested in this crate against exhaustive
//! simulation).
//!
//! # Example
//!
//! ```
//! use alsrac_circuits::arith;
//! use alsrac_synth::optimize;
//!
//! let aig = arith::carry_lookahead_adder(8);
//! let before = aig.num_ands();
//! let optimized = optimize(&aig);
//! assert!(optimized.num_ands() <= before);
//! // Function preserved:
//! assert_eq!(optimized.evaluate(&vec![true; 16]), aig.evaluate(&vec![true; 16]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod optimizer;
mod refactor;
mod rewrite;
mod scripts;

pub use balance::balance;
pub use optimizer::Optimizer;
pub use refactor::{refactor, RefactorConfig};
pub use rewrite::{rewrite, RewriteConfig};
pub use scripts::{optimize, resyn2_lite, sweep};
