//! AND-inverter graph (AIG) infrastructure for the ALSRAC reproduction.
//!
//! An AIG models a multi-level combinational circuit as a directed acyclic
//! graph whose internal nodes are all two-input AND gates and whose edges
//! carry an optional complement (inverter) marker. This is the circuit
//! representation the ALSRAC flow (DAC 2020) operates on, and the same
//! representation used by ABC.
//!
//! The central types are:
//!
//! * [`Lit`] — a *literal*: a node reference plus a complement bit, packed in
//!   a `u32`. [`Lit::FALSE`] / [`Lit::TRUE`] denote the constants.
//! * [`NodeId`] — an index into the node table.
//! * [`Aig`] — the graph itself: a node table in topological order (fanins
//!   always precede their fanouts), a structural-hashing table guaranteeing
//!   that no two AND nodes have the same (normalized) fanin pair, named
//!   primary inputs, and named primary outputs.
//!
//! # Invariants
//!
//! 1. Node 0 is the constant-false node; `Lit::FALSE` is node 0 without
//!    complement and `Lit::TRUE` is node 0 with complement.
//! 2. For every AND node, both fanin literals refer to nodes with a strictly
//!    smaller index, so the node table order is a valid topological order.
//! 3. AND fanins are normalized so `fanin0 < fanin1` (by raw literal value),
//!    and the builder performs the standard constant/trivial folds
//!    (`x & 0 = 0`, `x & 1 = x`, `x & x = x`, `x & !x = 0`), so structurally
//!    equal nodes are always shared.
//!
//! Nodes are never removed in place; restructuring is expressed as a
//! *rebuild* (see [`Aig::rebuilt_with_substitutions`] and [`Aig::cleaned`])
//! which produces a fresh, compacted, re-hashed graph. This keeps every
//! intermediate graph valid and makes invariant violations impossible to
//! observe from safe code.
//!
//! # Example
//!
//! ```
//! use alsrac_aig::Aig;
//!
//! // Build a full adder: sum = a ^ b ^ cin, cout = majority(a, b, cin).
//! let mut aig = Aig::new("full_adder");
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let cin = aig.add_input("cin");
//! let a_xor_b = aig.xor(a, b);
//! let sum = aig.xor(a_xor_b, cin);
//! let ab = aig.and(a, b);
//! let carry_prop = aig.and(cin, a_xor_b);
//! let cout = aig.or(ab, carry_prop);
//! aig.add_output("sum", sum);
//! aig.add_output("cout", cout);
//!
//! assert_eq!(aig.evaluate(&[true, false, true]), vec![false, true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cone;
mod cuts;
mod error;
mod graph;
mod hash;
mod lit;
mod rebuild;
mod window;

pub use cone::{Cone, FanoutMap, MffcScratch};
pub use cuts::{CutTable, NodeSet};
pub use error::{AigError, RebuildError};
pub use graph::{Aig, Node};
pub use hash::FxHasher;
pub use lit::{Lit, NodeId};
pub use window::{Window, WindowExtractor, WindowParams};
