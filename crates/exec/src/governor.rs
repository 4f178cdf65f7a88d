//! Query-side resource governance: cooperative cancellation, deadlines,
//! and per-query memory budgets.
//!
//! The discovery path serves arbitrary SPARQL; one pathological BGP can
//! otherwise allocate an unbounded binding table or spin in a join loop
//! forever. A [`QueryGovernor`] is armed per query from a [`QueryLimits`]
//! spec and threaded (by reference) through the evaluators, which call
//! [`QueryGovernor::check`] at batch boundaries and
//! [`QueryGovernor::charge`] when they grow a binding table. Violations
//! surface as a typed [`GovernorTrip`] — never a panic or an OOM kill —
//! which maps onto [`ErrorKind::QueryTimeout`],
//! [`ErrorKind::QueryCancelled`], or [`ErrorKind::QueryBudgetExceeded`].
//!
//! Checks are cooperative and cheap: a relaxed atomic load or two, plus a
//! clock read when a deadline is set. Deep scan loops that never reach a
//! batch boundary (store cursors mid-gallop) watch the governor's shared
//! [interrupt flag](QueryGovernor::interrupt_flag) instead and simply
//! exhaust themselves when it flips; the typed error is produced by the
//! next boundary check.
//!
//! Time comes from an injectable [`Clock`], so deadline behaviour is
//! deterministic under [`TestClock`].
//!
//! [`TestClock`]: crate::clock::TestClock

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::{Clock, SystemClock};
use crate::error::{ErrorKind, LidsError};

/// Shared cancellation handle: clone it, hand one side to the query, keep
/// the other; [`cancel`](CancelToken::cancel) flips a flag every governed
/// loop observes at its next checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag, for wiring into cursor interrupt checks.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Why a governed query was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripReason {
    /// The deadline passed before the query finished.
    Timeout,
    /// The caller cancelled via [`CancelToken`] (or fault injection).
    Cancelled,
    /// Binding-table / decode allocations exceeded the memory budget.
    BudgetExceeded,
}

impl TripReason {
    fn code(self) -> u8 {
        match self {
            TripReason::Timeout => 1,
            TripReason::Cancelled => 2,
            TripReason::BudgetExceeded => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(TripReason::Timeout),
            2 => Some(TripReason::Cancelled),
            3 => Some(TripReason::BudgetExceeded),
            _ => None,
        }
    }

    /// The [`ErrorKind`] this trip surfaces as.
    pub fn error_kind(self) -> ErrorKind {
        match self {
            TripReason::Timeout => ErrorKind::QueryTimeout,
            TripReason::Cancelled => ErrorKind::QueryCancelled,
            TripReason::BudgetExceeded => ErrorKind::QueryBudgetExceeded,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TripReason::Timeout => "timeout",
            TripReason::Cancelled => "cancelled",
            TripReason::BudgetExceeded => "budget-exceeded",
        }
    }
}

/// A governed query hit one of its limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorTrip {
    pub reason: TripReason,
    pub detail: String,
}

impl std::fmt::Display for GovernorTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query {}: {}", self.reason.label(), self.detail)
    }
}

impl From<GovernorTrip> for LidsError {
    fn from(trip: GovernorTrip) -> Self {
        LidsError::new(trip.reason.error_kind(), trip.detail)
    }
}

/// Declarative limits for one query execution. All-`None` means
/// ungoverned: [`arm`](QueryLimits::arm) returns `None` and the evaluators
/// skip every checkpoint branch.
#[derive(Clone, Default)]
pub struct QueryLimits {
    /// Wall-clock ceiling, measured from the moment the governor is armed.
    pub deadline: Option<Duration>,
    /// Ceiling on cumulative binding-table / decode allocations (bytes).
    pub memory_budget_bytes: Option<u64>,
    /// External cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Fault injection: auto-cancel at the Nth governor checkpoint. Used
    /// by the chaos/proptest suites to interrupt a query at a precise,
    /// reproducible batch boundary.
    pub cancel_after_checks: Option<u64>,
    /// Time source; `None` uses the system clock.
    pub clock: Option<Arc<dyn Clock>>,
}

impl std::fmt::Debug for QueryLimits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryLimits")
            .field("deadline", &self.deadline)
            .field("memory_budget_bytes", &self.memory_budget_bytes)
            .field("cancel", &self.cancel.is_some())
            .field("cancel_after_checks", &self.cancel_after_checks)
            .field("clock", &if self.clock.is_some() { "injected" } else { "system" })
            .finish()
    }
}

impl QueryLimits {
    /// True when no limit is set — arming would be pure overhead.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.memory_budget_bytes.is_none()
            && self.cancel.is_none()
            && self.cancel_after_checks.is_none()
    }

    /// Arm a governor for one execution (deadline starts now). Returns
    /// `None` when unlimited so ungoverned callers pay nothing.
    pub fn arm(&self) -> Option<QueryGovernor> {
        if self.is_unlimited() {
            return None;
        }
        Some(QueryGovernor::new(self))
    }
}

/// Per-query resource governor. Cheap to share by reference across the
/// threads of one parallel evaluation; all state is atomic.
pub struct QueryGovernor {
    clock: Arc<dyn Clock>,
    deadline: Option<Instant>,
    budget: Option<u64>,
    used: AtomicU64,
    checks: AtomicU64,
    tripped: AtomicU8,
    /// Set on external cancel *and* on any trip, so store cursors and
    /// sibling worker threads wind down without reaching a boundary check.
    interrupt: Arc<AtomicBool>,
    cancel_after_checks: Option<u64>,
}

impl QueryGovernor {
    /// Arm a governor: the deadline clock starts ticking here.
    pub fn new(limits: &QueryLimits) -> Self {
        let clock: Arc<dyn Clock> =
            limits.clock.clone().unwrap_or_else(|| Arc::new(SystemClock));
        let interrupt = match &limits.cancel {
            // Share the token's flag: external cancel is visible to
            // cursors immediately, not only at the next boundary check.
            Some(token) => token.flag(),
            None => Arc::new(AtomicBool::new(false)),
        };
        let deadline = limits.deadline.map(|d| clock.now() + d);
        QueryGovernor {
            clock,
            deadline,
            budget: limits.memory_budget_bytes,
            used: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            tripped: AtomicU8::new(0),
            interrupt,
            cancel_after_checks: limits.cancel_after_checks,
        }
    }

    /// Batch-boundary checkpoint: cancellation and deadline. Call this at
    /// operator boundaries and every few thousand rows inside long loops.
    pub fn check(&self) -> Result<(), GovernorTrip> {
        if let Some(reason) = self.trip_reason() {
            return Err(GovernorTrip {
                reason,
                detail: "resource governor already tripped".into(),
            });
        }
        let n = self.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.cancel_after_checks {
            if n >= limit {
                self.interrupt.store(true, Ordering::Relaxed);
            }
        }
        if self.interrupt.load(Ordering::Relaxed) {
            return Err(self.trip(
                TripReason::Cancelled,
                format!("cancelled after {n} checkpoints"),
            ));
        }
        if let Some(deadline) = self.deadline {
            if self.clock.now() >= deadline {
                return Err(self.trip(
                    TripReason::Timeout,
                    format!("deadline exceeded after {n} checkpoints"),
                ));
            }
        }
        Ok(())
    }

    /// Account `bytes` of binding-table / decode allocation against the
    /// budget. Cumulative: bytes are never returned, so the budget also
    /// bounds total allocation churn, not just the high-water mark.
    pub fn charge(&self, bytes: u64) -> Result<(), GovernorTrip> {
        if let Some(reason) = self.trip_reason() {
            return Err(GovernorTrip {
                reason,
                detail: "resource governor already tripped".into(),
            });
        }
        let total = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(budget) = self.budget {
            if total > budget {
                return Err(self.trip(
                    TripReason::BudgetExceeded,
                    format!("memory budget exceeded: {total} of {budget} bytes"),
                ));
            }
        }
        Ok(())
    }

    /// `charge` + `check` in one call — the common batch-boundary idiom.
    pub fn checkpoint(&self, bytes: u64) -> Result<(), GovernorTrip> {
        self.charge(bytes)?;
        self.check()
    }

    /// Bytes charged so far.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Remaining budget, if one is set (saturates at zero).
    pub fn headroom_bytes(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.used_bytes()))
    }

    /// Checkpoints evaluated so far (diagnostics and fault injection).
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Why this governor tripped, if it has.
    pub fn trip_reason(&self) -> Option<TripReason> {
        TripReason::from_code(self.tripped.load(Ordering::Relaxed))
    }

    /// The shared interrupt flag for wiring into store-cursor loops that
    /// run between boundary checks. True means "stop scanning".
    pub fn interrupt_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.interrupt)
    }

    fn trip(&self, reason: TripReason, detail: String) -> GovernorTrip {
        // First trip wins; later violations report the original reason.
        let _ = self.tripped.compare_exchange(
            0,
            reason.code(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.interrupt.store(true, Ordering::Relaxed);
        let reason = self.trip_reason().unwrap_or(reason);
        GovernorTrip { reason, detail }
    }
}

impl std::fmt::Debug for QueryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryGovernor")
            .field("deadline", &self.deadline)
            .field("budget", &self.budget)
            .field("used", &self.used_bytes())
            .field("checks", &self.checks())
            .field("tripped", &self.trip_reason())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn unlimited_limits_do_not_arm() {
        assert!(QueryLimits::default().arm().is_none());
        assert!(QueryLimits::default().is_unlimited());
    }

    #[test]
    fn deadline_trips_deterministically_under_test_clock() {
        let clock = TestClock::new();
        let limits = QueryLimits {
            deadline: Some(Duration::from_millis(100)),
            clock: Some(clock.clone() as Arc<dyn Clock>),
            ..QueryLimits::default()
        };
        let gov = limits.arm().expect("deadline arms a governor");
        assert!(gov.check().is_ok());
        clock.advance(Duration::from_millis(99));
        assert!(gov.check().is_ok());
        clock.advance(Duration::from_millis(2));
        let trip = gov.check().expect_err("past deadline");
        assert_eq!(trip.reason, TripReason::Timeout);
        assert_eq!(LidsError::from(trip).kind(), ErrorKind::QueryTimeout);
        // Trips latch: every later checkpoint reports the same reason.
        assert_eq!(gov.check().expect_err("latched").reason, TripReason::Timeout);
        assert_eq!(gov.trip_reason(), Some(TripReason::Timeout));
        assert!(gov.interrupt_flag().load(Ordering::Relaxed));
    }

    #[test]
    fn budget_trips_on_cumulative_charges() {
        let limits =
            QueryLimits { memory_budget_bytes: Some(1000), ..QueryLimits::default() };
        let gov = limits.arm().expect("budget arms a governor");
        assert!(gov.charge(600).is_ok());
        assert_eq!(gov.headroom_bytes(), Some(400));
        let trip = gov.charge(500).expect_err("over budget");
        assert_eq!(trip.reason, TripReason::BudgetExceeded);
        assert_eq!(
            LidsError::from(trip).kind(),
            ErrorKind::QueryBudgetExceeded
        );
        assert_eq!(gov.headroom_bytes(), Some(0));
        assert_eq!(gov.used_bytes(), 1100);
    }

    #[test]
    fn cancel_token_interrupts_at_next_check() {
        let token = CancelToken::new();
        let limits =
            QueryLimits { cancel: Some(token.clone()), ..QueryLimits::default() };
        let gov = limits.arm().expect("token arms a governor");
        assert!(gov.check().is_ok());
        assert!(!token.is_cancelled());
        token.cancel();
        // The shared flag flips immediately for cursor loops…
        assert!(gov.interrupt_flag().load(Ordering::Relaxed));
        // …and the next boundary check produces the typed trip.
        let trip = gov.check().expect_err("cancelled");
        assert_eq!(trip.reason, TripReason::Cancelled);
        assert_eq!(LidsError::from(trip).kind(), ErrorKind::QueryCancelled);
    }

    #[test]
    fn cancel_after_checks_fires_on_exact_checkpoint() {
        let limits =
            QueryLimits { cancel_after_checks: Some(3), ..QueryLimits::default() };
        let gov = limits.arm().expect("fault injection arms a governor");
        assert!(gov.check().is_ok());
        assert!(gov.check().is_ok());
        let trip = gov.check().expect_err("third checkpoint cancels");
        assert_eq!(trip.reason, TripReason::Cancelled);
        assert_eq!(gov.checks(), 3);
    }

    #[test]
    fn checkpoint_combines_charge_and_check() {
        let limits = QueryLimits {
            memory_budget_bytes: Some(100),
            ..QueryLimits::default()
        };
        let gov = limits.arm().expect("armed");
        assert!(gov.checkpoint(40).is_ok());
        assert_eq!(
            gov.checkpoint(100).expect_err("budget").reason,
            TripReason::BudgetExceeded
        );
    }

    #[test]
    fn trip_display_and_labels() {
        let trip = GovernorTrip {
            reason: TripReason::BudgetExceeded,
            detail: "memory budget exceeded: 10 of 5 bytes".into(),
        };
        let text = trip.to_string();
        assert!(text.contains("budget-exceeded"), "{text}");
        assert_eq!(TripReason::Timeout.label(), "timeout");
        assert_eq!(TripReason::Cancelled.label(), "cancelled");
    }
}
