//! Resource governance: cooperative cancellation, wall-clock deadlines,
//! and composable SAT-effort budgets.
//!
//! SAT-gated approximate-synthesis flows have heavy-tailed solver
//! runtimes: a single `distance > bound` query can dominate an entire
//! run. This module supplies the substrate every long-running flow in the
//! workspace threads through its hot loops:
//!
//! * [`CancelToken`] — a shared atomic flag tripped from another thread
//!   (or a signal handler) and polled cooperatively. Checking costs one
//!   relaxed atomic load.
//! * [`Deadline`] — a wall-clock cutoff over [`Instant`]; expiry is
//!   checked with a monotonic-clock read, so it is immune to wall-clock
//!   steps.
//! * [`Budget`] — the composable bundle carried down the call stack:
//!   optional token, optional deadline, and [`SatLimits`] caps on solver
//!   conflicts/propagations per query. `Budget::default()` is unlimited
//!   and costs nothing to check.
//!
//! **Determinism contract.** SAT caps are counted in solver events, not
//! time, so a capped query gives the *same* `Unknown` answer on every
//! machine — flows may let capped answers steer decisions (graceful
//! degradation). Cancellation and deadlines are wall-clock-dependent and
//! therefore nondeterministic; flows must treat them as pure interrupts
//! that abort work without influencing any state that a resumed run would
//! recompute differently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation was interrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The [`CancelToken`] was tripped (user Ctrl-C, supervisor stop, …).
    Cancelled,
    /// The wall-clock [`Deadline`] expired.
    DeadlineExpired,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// A cooperative cancellation flag shared between a controller and the
/// workers it may stop.
///
/// Cloning shares the underlying flag. [`CancelToken::trip`] is a single
/// atomic store, safe to call from signal handlers; workers poll
/// [`CancelToken::is_tripped`] (one relaxed load) at loop boundaries.
/// Once tripped, a token stays tripped.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    tripped: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. Idempotent; atomic store only (async-signal-safe).
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped. One relaxed atomic load.
    #[inline]
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

/// A wall-clock cutoff. Checked against the monotonic clock.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    /// `None` when the cutoff lies past the last representable instant.
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `timeout` from now. A timeout too long for the clock to
    /// represent gives a deadline that never expires.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(timeout),
        }
    }

    /// Whether the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry (zero once expired, [`Duration::MAX`] for a
    /// deadline that never expires).
    pub fn remaining(&self) -> Duration {
        self.at.map_or(Duration::MAX, |at| {
            at.saturating_duration_since(Instant::now())
        })
    }
}

/// Per-query caps on CDCL solver effort. `None` means unlimited.
///
/// Conflicts and propagations are deterministic solver events, so the
/// same capped query always yields the same answer (possibly
/// `Unknown`) — unlike a timeout, a cap never makes a run
/// machine-dependent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatLimits {
    /// Maximum conflicts a single `solve` call may spend.
    pub max_conflicts: Option<u64>,
    /// Maximum literal propagations a single `solve` call may spend.
    pub max_propagations: Option<u64>,
}

impl SatLimits {
    /// Whether both caps are absent.
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none() && self.max_propagations.is_none()
    }
}

/// The composable resource budget a flow threads through its loops.
///
/// All parts are optional; the default budget is unlimited and checking
/// it reduces to two `Option` tests. Builders compose:
///
/// ```
/// use std::time::Duration;
/// use alsrac_rt::budget::{Budget, CancelToken};
///
/// let token = CancelToken::new();
/// let budget = Budget::default()
///     .with_cancel(token.clone())
///     .with_deadline_after(Duration::from_secs(60))
///     .with_sat_conflicts(10_000);
/// assert!(budget.interrupted().is_none());
/// token.trip();
/// assert!(budget.interrupted().is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    /// Per-SAT-query effort caps, forwarded to `Solver::set_budget`.
    pub sat: SatLimits,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Attaches a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a deadline `timeout` from now.
    #[must_use]
    pub fn with_deadline_after(self, timeout: Duration) -> Budget {
        self.with_deadline(Deadline::after(timeout))
    }

    /// Caps each SAT query at `max_conflicts` conflicts.
    #[must_use]
    pub fn with_sat_conflicts(mut self, max_conflicts: u64) -> Budget {
        self.sat.max_conflicts = Some(max_conflicts);
        self
    }

    /// Caps each SAT query at `max_propagations` literal propagations.
    #[must_use]
    pub fn with_sat_propagations(mut self, max_propagations: u64) -> Budget {
        self.sat.max_propagations = Some(max_propagations);
        self
    }

    /// The cancellation token, if one is attached.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Time left on the deadline, if one is attached.
    pub fn deadline_remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.remaining())
    }

    /// Whether no limit of any kind is attached.
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.sat.is_unlimited()
    }

    /// Polls for an interrupt: the cancel token first (cheapest and most
    /// urgent), then the deadline. `None` means keep going. SAT caps are
    /// *not* interrupts — they degrade individual queries to `Unknown`
    /// instead of stopping the flow.
    #[inline]
    pub fn interrupted(&self) -> Option<Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_tripped() {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(Interrupt::DeadlineExpired);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_never_interrupts() {
        let budget = Budget::default();
        assert!(budget.is_unlimited());
        assert_eq!(budget.interrupted(), None);
        assert_eq!(budget.sat.max_conflicts, None);
        assert_eq!(budget.deadline_remaining(), None);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_tripped());
        clone.trip();
        assert!(token.is_tripped());
        clone.trip(); // idempotent
        assert!(clone.is_tripped());
    }

    #[test]
    fn cancelled_budget_reports_cancelled_first() {
        let token = CancelToken::new();
        let budget = Budget::default()
            .with_cancel(token.clone())
            .with_deadline_after(Duration::ZERO);
        // Both conditions hold; cancellation wins the race for the report.
        token.trip();
        assert_eq!(budget.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn expired_deadline_interrupts() {
        let budget = Budget::default().with_deadline_after(Duration::ZERO);
        assert_eq!(budget.interrupted(), Some(Interrupt::DeadlineExpired));
        assert_eq!(budget.deadline_remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_does_not_interrupt() {
        let budget = Budget::default().with_deadline_after(Duration::from_secs(3600));
        assert_eq!(budget.interrupted(), None);
        assert!(budget.deadline_remaining().expect("deadline") > Duration::from_secs(3000));
    }

    #[test]
    fn unrepresentable_deadline_never_interrupts() {
        let budget = Budget::default().with_deadline_after(Duration::MAX);
        assert_eq!(budget.interrupted(), None);
        assert_eq!(budget.deadline_remaining(), Some(Duration::MAX));
    }

    #[test]
    fn sat_caps_do_not_count_as_interrupts() {
        let budget = Budget::default()
            .with_sat_conflicts(1)
            .with_sat_propagations(1);
        assert!(!budget.is_unlimited());
        assert!(!budget.sat.is_unlimited());
        assert_eq!(budget.interrupted(), None);
    }

    #[test]
    fn interrupt_display_names() {
        assert_eq!(Interrupt::Cancelled.to_string(), "cancelled");
        assert_eq!(Interrupt::DeadlineExpired.to_string(), "deadline expired");
    }
}
