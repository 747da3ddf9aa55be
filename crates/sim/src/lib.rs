//! Bit-parallel logic simulation for AIGs.
//!
//! ALSRAC is a *simulation-only* synthesis flow: the approximate care set,
//! the feasibility of divisor sets, and the error of every candidate change
//! are all established by simulating the circuit on sampled input patterns
//! (§III of the paper). This crate provides:
//!
//! * [`PatternBuffer`] — packed input patterns (64 per machine word), from a
//!   seeded uniform source, a biased per-input distribution, or exhaustive
//!   enumeration;
//! * [`Simulation`] — the values of every node of an
//!   [`Aig`](alsrac_aig::Aig) under a pattern buffer, computed in one
//!   topological sweep at 64 patterns per word op;
//! * [`FlipInfluence`] — for a chosen node, the exact per-pattern, per-output
//!   effect of flipping that node's value, computed by event-driven
//!   propagation over a reusable [`InfluenceScratch`] arena that stops the
//!   moment the flip quenches. This is the engine behind the batch error
//!   estimation of Su et al. (DAC 2018) that ALSRAC reuses;
//! * [`Signatures`] — complement-canonical equivalence classes over node
//!   signatures, turning pairwise simulation-equality checks into O(1)
//!   class-id comparisons for windowed divisor filtering;
//! * [`kernel`] — the word-row primitives every hot loop above is built on,
//!   one bitwise recurrence each.
//!
//! # Example
//!
//! ```
//! use alsrac_aig::Aig;
//! use alsrac_sim::{PatternBuffer, Simulation};
//!
//! let mut aig = Aig::new("t");
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let y = aig.xor(a, b);
//! aig.add_output("y", y);
//!
//! let patterns = PatternBuffer::exhaustive(2);
//! let sim = Simulation::new(&aig, &patterns);
//! // Patterns 0..4 are (a,b) = 00, 10, 01, 11 -> xor = 0,1,1,0.
//! assert_eq!(sim.output_word(&aig, 0, 0) & 0xF, 0b0110);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod influence;
pub mod kernel;
mod patterns;
mod signatures;
mod simulation;

pub use influence::{FlipInfluence, InfluenceScratch, OutputIndex};
pub use patterns::PatternBuffer;
pub use signatures::Signatures;
pub use simulation::{OutputWords, Simulation};
