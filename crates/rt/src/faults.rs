//! Deterministic fault injection for robustness tests.
//!
//! The flow's failure surface — cancellation mid-iteration, SAT budget
//! exhaustion mid-certificate, a trace sink that starts failing — is hard
//! to hit on demand with real resources. This module injects those faults
//! *deterministically*: a [`FaultPlan`] names a trace-span ordinal and an
//! action, [`arm`] installs it process-wide, and the trace layer calls
//! [`on_span`] at every span open. When the counter reaches the planned
//! ordinal the fault fires exactly once.
//!
//! Plans are seeded through the existing [`crate::Stream`] machinery
//! ([`FaultPlan::seeded`] uses [`Stream::Faults`]),
//! so a property suite sweeping seeds explores injection points
//! reproducibly — the same seed always fires the same fault at the same
//! span ordinal.
//!
//! **Disarmed cost.** [`on_span`] is one relaxed atomic load when no plan
//! is armed, preserving the trace layer's disabled-path guarantee (pinned
//! by the counting-allocator test and the ≤2% overhead CI gate).
//!
//! Fault actions:
//!
//! * [`FaultAction::Cancel`] trips the [`CancelToken`] registered via
//!   [`set_cancel_token`] — modelling an external stop arriving at an
//!   arbitrary point in the flow.
//! * [`FaultAction::ExhaustSatBudget`] makes every subsequent budgeted
//!   SAT query answer `Unknown` immediately (the solver consults
//!   [`sat_budget_exhausted`]) — modelling a pathologically hard instance.
//! * [`FaultAction::FailSink`] makes every subsequent write through a
//!   [`FlakySink`] fail — modelling a full disk under the trace file.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::budget::CancelToken;
use crate::rng::{derive_seed, Rng, Stream};

/// Whether any plan is armed. The only state `on_span` reads when idle.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Spans seen since the plan was armed.
static SPANS_SEEN: AtomicU64 = AtomicU64::new(0);
/// Span ordinal at which the armed plan fires.
static FIRE_AT: AtomicU64 = AtomicU64::new(0);
/// Whether the armed plan has fired.
static FIRED: AtomicBool = AtomicBool::new(false);
/// Discriminant of the armed [`FaultAction`].
static ACTION: AtomicU64 = AtomicU64::new(0);
/// Set once an `ExhaustSatBudget` fault fires; solvers poll this.
static SAT_EXHAUSTED: AtomicBool = AtomicBool::new(false);
/// Set once a `FailSink` fault fires; [`FlakySink`] polls this.
static SINK_FAILING: AtomicBool = AtomicBool::new(false);
/// The token a `Cancel` fault trips.
static CANCEL: Mutex<Option<CancelToken>> = Mutex::new(None);

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Trip the registered [`CancelToken`] (external stop).
    Cancel,
    /// Make budgeted SAT queries answer `Unknown` from now on.
    ExhaustSatBudget,
    /// Make [`FlakySink`] writes fail from now on.
    FailSink,
}

impl FaultAction {
    fn id(self) -> u64 {
        match self {
            FaultAction::Cancel => 1,
            FaultAction::ExhaustSatBudget => 2,
            FaultAction::FailSink => 3,
        }
    }
}

/// A deterministic fault: fire `action` when the `fire_at_span`-th span
/// (0-based) opens after arming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// 0-based ordinal of the span open that triggers the fault.
    pub fire_at_span: u64,
    /// What happens at that point.
    pub action: FaultAction,
}

impl FaultPlan {
    /// Derives a plan from `seed`: a uniformly random injection point in
    /// `0..horizon` via the [`Stream::Faults`] sub-stream. Same seed,
    /// same injection point — the property suite's reproducibility hinge.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn seeded(seed: u64, horizon: u64, action: FaultAction) -> FaultPlan {
        assert!(horizon > 0, "fault horizon must be positive");
        let mut rng = Rng::from_seed(derive_seed(seed, Stream::Faults));
        // gen_range is exact-uniform; horizon fits usize on all supported
        // targets (test horizons are small).
        let at = rng.gen_range(0..horizon as usize) as u64;
        FaultPlan {
            fire_at_span: at,
            action,
        }
    }
}

/// Arms `plan` process-wide, clearing any previous plan and its effects.
///
/// Tests that arm faults must serialize (the state is global); the
/// workspace's fault suites share a mutex for this.
pub fn arm(plan: FaultPlan) {
    disarm();
    FIRE_AT.store(plan.fire_at_span, Ordering::Relaxed);
    ACTION.store(plan.action.id(), Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms any plan and clears all fault effects (SAT exhaustion, sink
/// failure, counters). The registered cancel token is kept.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    SPANS_SEEN.store(0, Ordering::Relaxed);
    FIRE_AT.store(0, Ordering::Relaxed);
    FIRED.store(false, Ordering::Relaxed);
    ACTION.store(0, Ordering::Relaxed);
    SAT_EXHAUSTED.store(false, Ordering::Relaxed);
    SINK_FAILING.store(false, Ordering::Relaxed);
}

/// Registers the token a [`FaultAction::Cancel`] fault trips. Replaces
/// any previous registration; `None` unregisters.
pub fn set_cancel_token(token: Option<CancelToken>) {
    *CANCEL.lock().expect("fault cancel token poisoned") = token;
}

/// Number of spans seen since arming (the injection-point coordinate).
pub fn spans_seen() -> u64 {
    SPANS_SEEN.load(Ordering::Relaxed)
}

/// Whether the armed plan has fired.
pub fn injected() -> bool {
    FIRED.load(Ordering::Relaxed)
}

/// Span-open hook, called by `trace::span` before its enabled check.
/// One relaxed atomic load when disarmed.
#[inline]
pub fn on_span() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    on_span_armed();
}

/// The armed slow path, kept out of the inline hook.
#[cold]
fn on_span_armed() {
    let seen = SPANS_SEEN.fetch_add(1, Ordering::Relaxed);
    if FIRED.load(Ordering::Relaxed) || seen != FIRE_AT.load(Ordering::Relaxed) {
        return;
    }
    if FIRED.swap(true, Ordering::Relaxed) {
        return; // another thread won the race to fire
    }
    match ACTION.load(Ordering::Relaxed) {
        1 => {
            if let Some(token) = CANCEL.lock().expect("fault cancel token poisoned").as_ref() {
                token.trip();
            }
        }
        2 => SAT_EXHAUSTED.store(true, Ordering::Relaxed),
        3 => SINK_FAILING.store(true, Ordering::Relaxed),
        _ => {}
    }
    // Counted so traced fault runs show their injection in reports. Safe
    // to call from inside `trace::span`: `add` opens no spans.
    crate::trace::add("faults_injected", 1);
}

/// Whether an [`FaultAction::ExhaustSatBudget`] fault has fired. Budgeted
/// solvers treat this as an instantly-exhausted budget. One relaxed load.
#[inline]
pub fn sat_budget_exhausted() -> bool {
    SAT_EXHAUSTED.load(Ordering::Relaxed)
}

/// Whether a [`FaultAction::FailSink`] fault has fired.
#[inline]
pub fn sink_failing() -> bool {
    SINK_FAILING.load(Ordering::Relaxed)
}

/// A writer wrapper that starts failing once a [`FaultAction::FailSink`]
/// fault fires. Wrap a trace sink in this to exercise the flow's
/// I/O-error tolerance (the trace layer must drop records, not panic).
#[derive(Debug)]
pub struct FlakySink<W: Write> {
    inner: W,
}

impl<W: Write> FlakySink<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> FlakySink<W> {
        FlakySink { inner }
    }
}

impl<W: Write> Write for FlakySink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if sink_failing() {
            return Err(io::Error::other("injected sink fault"));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if sink_failing() {
            return Err(io::Error::other("injected sink fault"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// Fault state is process-global; tests serialize on this lock.
    fn test_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    #[test]
    fn seeded_plans_are_reproducible_and_cover_the_horizon() {
        let a = FaultPlan::seeded(7, 100, FaultAction::Cancel);
        let b = FaultPlan::seeded(7, 100, FaultAction::Cancel);
        assert_eq!(a, b);
        assert!(a.fire_at_span < 100);
        // Different seeds spread over the horizon.
        let points: std::collections::BTreeSet<u64> = (0..50)
            .map(|s| FaultPlan::seeded(s, 100, FaultAction::Cancel).fire_at_span)
            .collect();
        assert!(points.len() > 10, "seeded points too clustered: {points:?}");
    }

    #[test]
    fn cancel_fault_trips_the_registered_token_at_the_planned_span() {
        let _guard = test_lock().lock().expect("test lock");
        let token = CancelToken::new();
        set_cancel_token(Some(token.clone()));
        arm(FaultPlan {
            fire_at_span: 2,
            action: FaultAction::Cancel,
        });
        on_span();
        on_span();
        assert!(!token.is_tripped(), "fired early");
        assert!(!injected());
        on_span(); // ordinal 2 → fire
        assert!(token.is_tripped());
        assert!(injected());
        assert_eq!(spans_seen(), 3);
        // Fires exactly once; later spans are inert.
        on_span();
        assert_eq!(spans_seen(), 4);
        disarm();
        set_cancel_token(None);
    }

    #[test]
    fn sat_and_sink_faults_set_and_clear_their_flags() {
        let _guard = test_lock().lock().expect("test lock");
        arm(FaultPlan {
            fire_at_span: 0,
            action: FaultAction::ExhaustSatBudget,
        });
        assert!(!sat_budget_exhausted());
        on_span();
        assert!(sat_budget_exhausted());
        arm(FaultPlan {
            fire_at_span: 0,
            action: FaultAction::FailSink,
        });
        assert!(!sat_budget_exhausted(), "re-arming must clear effects");
        on_span();
        assert!(sink_failing());
        disarm();
        assert!(!sink_failing());
    }

    #[test]
    fn flaky_sink_fails_only_after_the_fault_fires() {
        let _guard = test_lock().lock().expect("test lock");
        disarm();
        let mut sink = FlakySink::new(Vec::new());
        assert!(sink.write(b"ok").is_ok());
        arm(FaultPlan {
            fire_at_span: 0,
            action: FaultAction::FailSink,
        });
        on_span();
        assert!(sink.write(b"fails").is_err());
        assert!(sink.flush().is_err());
        disarm();
        assert!(sink.flush().is_ok());
    }

    #[test]
    fn disarmed_on_span_is_inert() {
        let _guard = test_lock().lock().expect("test lock");
        disarm();
        on_span();
        on_span();
        assert_eq!(spans_seen(), 0);
        assert!(!injected());
    }
}
