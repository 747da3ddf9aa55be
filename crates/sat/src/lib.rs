//! SAT solving and equivalence checking for the ALSRAC reproduction.
//!
//! ALSRAC's selling point is being *simulation-only*: it never calls a SAT
//! or BDD engine, unlike the exact resubstitution flows it builds on
//! (Mishchenko et al. \[14\], \[18\]). To reproduce that comparison — and to
//! verify our own exact transforms beyond exhaustive simulation — this
//! crate provides:
//!
//! * [`Solver`] — a self-contained CDCL SAT solver (two-watched literals,
//!   first-UIP learning, VSIDS-style activities, restarts, phase saving);
//! * [`encode`] — Tseitin encoding of AIG cones into CNF;
//! * [`cec`] — combinational equivalence checking on a swept miter
//!   ([`cec::equivalent`]), and the SAT version of the paper's Theorem 1
//!   feasibility check ([`cec::exact_resub_feasible`]);
//! * [`miter`] — a reusable original-vs-approximate miter: one AIG with
//!   the difference and distance logic, swept, then encoded, with exact
//!   worst-case-error certification
//!   ([`miter::Miter::certify_max_distance`]);
//! * [`sweep`] — SAT sweeping: simulation proposes equal node pairs,
//!   incremental SAT proves them, counterexamples refine the signatures,
//!   and proven pairs merge ([`sweep::SweepStats`] counts both outcomes);
//! * [`count`] — exact and (ε, δ)-approximate model counting of the
//!   differing inputs, i.e. *certified* error rates.
//!
//! # Example
//!
//! ```
//! use alsrac_sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[a.positive(), b.positive()]);
//! solver.add_clause(&[a.negative(), b.negative()]);
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert_ne!(solver.model_value(a), solver.model_value(b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cec;
pub mod count;
pub mod encode;
pub mod miter;
mod solver;
pub mod sweep;

pub use solver::{SatLit, SatResult, Solver, Var};
