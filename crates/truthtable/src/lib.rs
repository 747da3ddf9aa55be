//! Truth tables and two-level minimization for the ALSRAC reproduction.
//!
//! ALSRAC derives each approximate resubstitution function by building a
//! truth table over the divisor variables (with don't-cares outside the
//! approximate care set) and computing an irredundant sum-of-products
//! (ISOP) from it — the role Espresso plays in the paper (§III-B3). The
//! ISOP is the cover: it is prime and irredundant, so an Espresso-style
//! loop has nothing left to improve.
//!
//! This crate provides:
//!
//! * [`Tt`] — a bit-packed truth table over up to 16 variables,
//! * [`Cube`] / [`Sop`] — product terms and sum-of-products covers,
//! * [`isop`] — the Minato–Morreale irredundant SOP computation over an
//!   incompletely specified function (on-set ⊆ cover ⊆ on-set ∪ dc-set),
//! * [`minimize`] — an Espresso-style expand / irredundant / reduce loop
//!   that improves an initial cover; it returns an ISOP unchanged (pinned
//!   by this crate's tests), so the synthesis flows call [`isop`] alone,
//! * [`sop_to_aig`] — conversion of a cover to AIG nodes with quick
//!   literal factoring (used when a LAC is materialized in the circuit),
//! * [`CutEvaluator`] — the truth table of an AIG node over a cut, shared
//!   by rewriting, refactoring and both technology mappers.
//!
//! # Example: cover an incompletely specified function
//!
//! ```
//! use alsrac_truthtable::{isop, Tt};
//!
//! // f(a, b) must be 1 on ab=00 and may be anything on ab=11.
//! let on = Tt::from_bits(2, 0b0001);
//! let dc = Tt::from_bits(2, 0b1000);
//! let cover = isop(&on, &on.or(&dc));
//! assert_eq!(cover.num_cubes(), 1); // single cube !a & !b
//! assert!(cover.to_tt(2).and(&on).eq(&on)); // covers the on-set
//! assert!(cover.to_tt(2).and(&on.or(&dc).not()).is_const0()); // avoids off-set
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cube;
mod espresso;
mod factor;
mod isop;
mod network;
mod tt;

pub use cube::{Cube, Sop};
pub use espresso::minimize;
pub use factor::{factored_aig_cost, sop_to_aig};
pub use isop::isop;
pub use network::CutEvaluator;
pub use tt::{Tt, MAX_VARS};
