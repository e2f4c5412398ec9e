//! The resource governor: bounded, cancellable, deadline-aware execution.
//!
//! Constraint-algebra evaluation has two failure modes a long-running
//! system must survive: *unbounded growth* (DNF negation is worst-case
//! exponential, Fourier–Motzkin elimination can square its atom count per
//! variable) and *unbounded time* (a hostile or merely unlucky query).
//! The [`Governor`] turns both into typed errors instead of OOM kills or
//! hung shells:
//!
//! * a shared [`CancelToken`] that operator workers poll between chunks —
//!   a raised token aborts the run at the next chunk boundary and all
//!   partial output is discarded, so a cancelled run is indistinguishable
//!   from one that never started;
//! * a wall-clock deadline, armed per run from [`Governor::timeout`]; the
//!   governor raises its own token when the deadline passes, so timeout
//!   enforcement rides the same discard-everything cancellation path;
//! * [`Budgets`] on the intermediate quantities that actually blow up:
//!   Fourier–Motzkin atoms, DNF conjunctions, and per-node output tuples.
//!
//! The governor is cheap enough to consult per tuple: a check is two
//! relaxed atomic operations plus one `Instant::now()` — noise next to a
//! single exact satisfiability test.

use crate::error::{CoreError, Result};
use cqa_num::par::CancelToken;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Ceilings on the quantities that grow during evaluation. `None` means
/// unlimited (the default); a tripped budget surfaces as
/// [`CoreError::BudgetExceeded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Cap on intermediate atom count inside one Fourier–Motzkin
    /// elimination (projection, satisfiability of large residuals).
    pub max_fm_atoms: Option<u64>,
    /// Cap on conjunction count while building a DNF (difference's
    /// negation expansion).
    pub max_dnf_conjunctions: Option<u64>,
    /// Cap on the (syntactic) tuple count any single plan node may emit.
    pub max_output_tuples: Option<u64>,
}

impl Budgets {
    /// Whether every budget is unlimited.
    pub fn is_unlimited(&self) -> bool {
        self.max_fm_atoms.is_none()
            && self.max_dnf_conjunctions.is_none()
            && self.max_output_tuples.is_none()
    }
}

const REASON_NONE: u8 = 0;
const REASON_CANCELLED: u8 = 1;
const REASON_DEADLINE: u8 = 2;

/// State shared by every clone of a [`Governor`] (the shell's options and
/// the worker threads inside one run all see the same trip).
#[derive(Debug, Default)]
struct Shared {
    token: CancelToken,
    /// Deadline in µs since the process [`epoch`]; 0 = unarmed.
    deadline_us: AtomicU64,
    /// Why the token was raised ([`REASON_CANCELLED`] / [`REASON_DEADLINE`]).
    reason: AtomicU8,
    /// Governor checks performed since the last [`Governor::arm`].
    checks: AtomicU64,
    /// Test hook: raise the token at the n-th check; 0 = disabled.
    trip_at: AtomicU64,
}

/// A fixed reference instant so deadlines fit in an atomic integer.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Cancellation token, deadline, and resource budgets for one evaluation
/// context. Cloning shares the cancellation state (so a shell can keep a
/// handle to cancel a running query) while budgets and timeout are plain
/// per-clone configuration.
#[derive(Debug, Clone, Default)]
pub struct Governor {
    /// Resource ceilings checked during evaluation.
    pub budgets: Budgets,
    /// Wall-clock limit, armed at the start of each run ([`Governor::arm`]).
    pub timeout: Option<Duration>,
    shared: Arc<Shared>,
}

impl Governor {
    /// An unlimited governor (no timeout, no budgets, token lowered).
    pub fn new() -> Governor {
        Governor::default()
    }

    /// Builder: sets the wall-clock limit per run.
    pub fn with_timeout(mut self, timeout: Duration) -> Governor {
        self.timeout = Some(timeout);
        self
    }

    /// Builder: sets the resource budgets.
    pub fn with_budgets(mut self, budgets: Budgets) -> Governor {
        self.budgets = budgets;
        self
    }

    /// The token operator workers poll between chunks.
    pub fn token(&self) -> &CancelToken {
        &self.shared.token
    }

    /// Requests cancellation; the run aborts at the next chunk boundary
    /// (or governor check) and returns [`CoreError::Cancelled`].
    pub fn cancel(&self) {
        let _ = self.shared.reason.compare_exchange(
            REASON_NONE,
            REASON_CANCELLED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.shared.token.cancel();
    }

    /// Prepares for a fresh run: lowers the token, clears the trip reason
    /// and check counter, and arms the deadline from [`Governor::timeout`].
    /// The `trip_after` hook survives arming (it is set *before* the run
    /// it targets).
    pub fn arm(&self) {
        self.shared.reason.store(REASON_NONE, Ordering::Release);
        self.shared.checks.store(0, Ordering::Relaxed);
        self.shared.token.reset();
        let deadline = match self.timeout {
            // Clamp to ≥ 1 so an armed deadline is never confused with 0
            // (= unarmed).
            Some(t) => (now_us() + t.as_micros() as u64).max(1),
            None => 0,
        };
        self.shared.deadline_us.store(deadline, Ordering::Relaxed);
    }

    /// Test hook: raise the token at the `n`-th [`Governor::check`] of the
    /// next run (1-based; 0 disables). Lets tests abort deterministically
    /// at an arbitrary point without racing a second thread.
    pub fn trip_after(&self, n: u64) {
        self.shared.trip_at.store(n, Ordering::Relaxed);
    }

    /// Governor checks performed since the run was armed.
    pub fn checks(&self) -> u64 {
        self.shared.checks.load(Ordering::Relaxed)
    }

    /// Per-item check: counts, enforces the deadline and the `trip_after`
    /// hook, and reports a raised token as the matching typed error.
    pub fn check(&self) -> Result<()> {
        let s = &*self.shared;
        let made = s.checks.fetch_add(1, Ordering::Relaxed) + 1;
        let trip_at = s.trip_at.load(Ordering::Relaxed);
        if trip_at != 0 && made >= trip_at {
            self.cancel();
        }
        if !s.token.is_cancelled() {
            let deadline = s.deadline_us.load(Ordering::Relaxed);
            if deadline != 0 && now_us() >= deadline {
                let _ = s.reason.compare_exchange(
                    REASON_NONE,
                    REASON_DEADLINE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                s.token.cancel();
            }
        }
        if s.token.is_cancelled() {
            Err(self.interrupt_error())
        } else {
            Ok(())
        }
    }

    /// The typed error for a raised token: [`CoreError::DeadlineExceeded`]
    /// when the deadline tripped it, [`CoreError::Cancelled`] otherwise
    /// (including a token raised outside the governor's own machinery).
    pub fn interrupt_error(&self) -> CoreError {
        match self.shared.reason.load(Ordering::Acquire) {
            REASON_DEADLINE => CoreError::DeadlineExceeded,
            _ => CoreError::Cancelled,
        }
    }

    /// Enforces the per-node output-tuple budget on a node that produced
    /// `rows` tuples.
    pub fn guard_output(&self, rows: usize) -> Result<()> {
        if let Some(limit) = self.budgets.max_output_tuples {
            if rows as u64 > limit {
                return Err(CoreError::BudgetExceeded {
                    what: "output tuples",
                    used: rows as u64,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// The Fourier–Motzkin budget view of this governor, recording the
    /// peak intermediate atom count and the elimination-call count into
    /// `stats`.
    pub fn fm_budget<'a>(
        &self,
        stats: &'a crate::par::ExecStats,
    ) -> cqa_constraints::FmBudget<'a> {
        cqa_constraints::FmBudget {
            max_atoms: self.budgets.max_fm_atoms,
            peak: Some(stats.cell(crate::par::Counter::FmPeakAtoms)),
            calls: Some(stats.cell(crate::par::Counter::FmCalls)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let g = Governor::new();
        g.arm();
        for _ in 0..1000 {
            g.check().unwrap();
        }
        assert_eq!(g.checks(), 1000);
        g.guard_output(usize::MAX).unwrap();
        assert!(g.budgets.is_unlimited());
    }

    #[test]
    fn cancel_is_sticky_until_rearmed() {
        let g = Governor::new();
        g.arm();
        g.check().unwrap();
        g.cancel();
        assert_eq!(g.check(), Err(CoreError::Cancelled));
        assert_eq!(g.interrupt_error(), CoreError::Cancelled);
        // Arming again clears the trip for the next run.
        g.arm();
        g.check().unwrap();
    }

    #[test]
    fn zero_timeout_trips_as_deadline() {
        let g = Governor::new().with_timeout(Duration::ZERO);
        g.arm();
        assert_eq!(g.check(), Err(CoreError::DeadlineExceeded));
        assert_eq!(g.interrupt_error(), CoreError::DeadlineExceeded);
        // The token is raised too, so chunked workers stop pulling work.
        assert!(g.token().is_cancelled());
    }

    #[test]
    fn generous_timeout_does_not_trip() {
        let g = Governor::new().with_timeout(Duration::from_secs(3600));
        g.arm();
        for _ in 0..100 {
            g.check().unwrap();
        }
    }

    #[test]
    fn trip_after_fires_at_the_exact_check() {
        let g = Governor::new();
        g.trip_after(3);
        g.arm();
        g.check().unwrap();
        g.check().unwrap();
        assert_eq!(g.check(), Err(CoreError::Cancelled));
    }

    #[test]
    fn output_budget_is_exact() {
        let g = Governor::new()
            .with_budgets(Budgets { max_output_tuples: Some(10), ..Budgets::default() });
        g.guard_output(10).unwrap();
        assert_eq!(
            g.guard_output(11),
            Err(CoreError::BudgetExceeded { what: "output tuples", used: 11, limit: 10 })
        );
    }

    #[test]
    fn clones_share_cancellation_state() {
        let g = Governor::new();
        g.arm();
        let handle = g.clone();
        handle.cancel();
        assert!(matches!(g.check(), Err(CoreError::Cancelled)));
    }
}
