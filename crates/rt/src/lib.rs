//! Hermetic runtime layer for the ALSRAC workspace.
//!
//! Every crate in this workspace that needs randomness, property-based
//! tests, or micro-benchmarks uses this crate instead of third-party
//! dependencies. The build environment is offline: nothing outside the
//! workspace can be fetched, so `alsrac-rt` has **zero external
//! dependencies** and every future PR stays buildable by construction.
//!
//! Four facilities:
//!
//! * [`Rng`] — a seedable, deterministic PRNG (xoshiro256\*\* core, state
//!   filled from the seed by SplitMix64). ALSRAC is a simulation-only
//!   flow whose results must be reproducible from a single `u64` seed;
//!   [`derive_seed`] / [`derive_indexed`] split that root seed into
//!   independent named sub-streams (care simulation, error estimation,
//!   final measurement, …) instead of the ad-hoc `seed ^ 0xE57`-style
//!   offsets the flow used to hand-roll.
//! * [`check`](mod@check) — a minimal property-testing harness: composable
//!   generators, configurable case counts, greedy shrinking on failure,
//!   and a replayable seed printed with every failure.
//! * [`bench`](mod@bench) — a wall-clock micro-bench timer (calibrated
//!   batches, warmup, median/min/mean report) for `harness = false` bench
//!   targets.
//! * [`pool`] — a data-parallel executor over scoped std threads
//!   (`ALSRAC_THREADS`-sized, order-preserving `par_map`/`par_indices`)
//!   whose results are bit-identical to serial execution at any thread
//!   count.
//! * [`trace`] — flow telemetry: nestable thread-aware wall-clock spans,
//!   named counters, and a JSONL run-report sink behind the `ALSRAC_TRACE`
//!   env knob, compiling down to one atomic load when disabled.
//! * [`json`] — the zero-dependency JSON builder/parser the trace layer
//!   (and its report tooling) speaks; finite `f64`s round-trip bit-exactly.
//! * [`budget`] — resource governance: cooperative [`budget::CancelToken`],
//!   wall-clock [`budget::Deadline`], and composable [`budget::Budget`]
//!   carrying deterministic SAT conflict/propagation caps.
//! * [`faults`] — a deterministic fault-injection harness (seeded through
//!   [`Stream::Faults`]) that fires cancellations, SAT-budget exhaustion,
//!   or sink I/O failures at exact trace-span ordinals.
//!
//! # Example
//!
//! ```
//! use alsrac_rt::{derive_seed, Rng, Stream};
//!
//! let mut rng = Rng::from_seed(42);
//! let word = rng.next_u64();
//! assert_eq!(word, Rng::from_seed(42).next_u64());
//!
//! // Named sub-streams are independent of each other and of the root.
//! let care = derive_seed(42, Stream::Care);
//! let est = derive_seed(42, Stream::Estimation);
//! assert_ne!(care, est);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod budget;
pub mod check;
pub mod faults;
pub mod json;
pub mod pool;
mod rng;
pub mod trace;

pub use check::{check, u64s, usizes, Config, Gen};
pub use rng::{derive_indexed, derive_seed, split_mix64, Rng, Stream};

/// Asserts a condition inside a [`check`](fn@check) property, returning
/// `Err` (so the harness can shrink the input) instead of panicking.
///
/// With a single argument the failure message quotes the condition; extra
/// arguments are a `format!` message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`check`](fn@check) property, returning `Err`
/// with both values on mismatch.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n  right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}
