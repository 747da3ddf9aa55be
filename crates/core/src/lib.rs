//! ALSRAC: Approximate Logic Synthesis by Resubstitution with Approximate
//! Care Set — a Rust reproduction of the DAC 2020 paper by Meng, Qian, and
//! Mishchenko.
//!
//! # What the method does
//!
//! Given an exact circuit and an error budget (error rate, NMED, or MRED),
//! ALSRAC repeatedly applies the *local approximate change* (LAC) with the
//! least induced error until the budget is exhausted. Its LAC is an
//! **approximate resubstitution**: a node's function is re-expressed as a
//! small function of *divisor* signals elsewhere in the circuit, where the
//! function is derived not from exact don't-cares (SAT/BDD) but from an
//! **approximate care set** — the divisor patterns actually observed when
//! simulating a handful of random input patterns (§III-A). Fewer simulated
//! patterns shrink the care set, licensing more aggressive approximations;
//! the flow adapts the simulation count `N` downward when no candidate
//! exists (§III-C).
//!
//! # Crate layout
//!
//! * [`care`] — approximate care sets over divisor signals and the
//!   simulation-based feasibility check (Theorem 1 restricted to sampled
//!   patterns);
//! * [`divisors`] — divisor-set selection (Algorithm 1);
//! * [`lac`] — LAC candidate generation via ISOP on the approximate care
//!   truth table (Algorithm 2);
//! * [`estimate`] — batch error estimation of all candidates from one base
//!   simulation (the Su et al. DAC'18 scheme the paper adopts);
//! * [`window`] — bounded-window configuration for window-local
//!   resubstitution (and a signature-class infeasibility certificate that
//!   no flow calls);
//! * [`flow`] — the complete ALSRAC loop (Algorithm 3) with dynamic
//!   simulation-round control, budget-aware interruption, and
//!   checkpoint/resume;
//! * `skeleton` (crate-private) — the run skeleton the ALSRAC, Su and Liu
//!   loops share: config and circuit checks, estimation patterns, the
//!   trace records and history, the optimize cadence, and the final
//!   measurement that assembles the [`flow::FlowResult`];
//! * [`checkpoint`] — the serialized loop state an interrupted run leaves
//!   behind and a resumed run restarts from, bit-identically;
//! * [`baseline`] — reimplementations of the paper's comparison methods:
//!   Su's SASIMI-style substitute-and-simplify and Liu's stochastic ALS;
//! * [`exact`] — zero-error SAT-based resubstitution (the \[14\]/\[18\]
//!   machinery ALSRAC's approximate care set replaces).
//!
//! # Example
//!
//! ```
//! use alsrac::flow::{run, FlowConfig};
//! use alsrac_circuits::arith;
//! use alsrac_metrics::ErrorMetric;
//!
//! # fn main() -> Result<(), alsrac::FlowError> {
//! let exact = arith::ripple_carry_adder(4);
//! let config = FlowConfig {
//!     metric: ErrorMetric::ErrorRate,
//!     threshold: 0.05,
//!     ..FlowConfig::default()
//! };
//! let result = run(&exact, &config)?;
//! assert!(result.measured.error_rate <= 0.05);
//! assert!(result.approx.num_ands() <= exact.num_ands());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod care;
pub mod certify;
pub mod checkpoint;
pub mod divisors;
pub mod estimate;
pub mod exact;
pub mod flow;
pub mod lac;
pub mod window;

mod error;
mod skeleton;

pub use error::FlowError;
