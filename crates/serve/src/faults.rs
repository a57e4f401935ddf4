//! Deterministic fault injection for chaos testing the server.
//!
//! A [`FaultPlan`] is a set of armed *fail points* the server consults at
//! well-defined sites — request dispatch, worker connection turnover, the
//! background recompute — so tests and the `chaos` bench can inject
//! panics, stalls, worker deaths and recompute failures on a precise,
//! reproducible schedule (every Nth event, counted atomically across
//! threads). The default plan is empty: every check is a single `Option`
//! branch on an unarmed plan, so production configurations pay nothing.
//!
//! The sites, and what the robustness layer must do when they fire:
//!
//! | site | injected failure | expected containment |
//! |------|------------------|----------------------|
//! | `panic_request` | `panic!` inside request dispatch | typed `internal` error response; connection survives; panic counted |
//! | `stall_request` | sleep inside dispatch | request deadline fires → partial `local`/`topk` result labelled `deadline-exceeded` |
//! | `kill_worker` | panic unwinding the whole worker thread (between connections) | supervisor respawns the worker; pool size recovers |
//! | `fail_recompute` / `panic_recompute` | background recompute errors or panics | last good epoch keeps serving; capped-backoff retry; `degraded` flag until recovery |
//!
//! Cloning a `FaultPlan` shares its counters: the server and the test
//! observe the same fire tallies ([`FaultPlan::counts`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which events a [`FaultPlan`] injects, and how often. `0` disables a
/// site; `n > 0` fires on every `n`-th event at that site (1-based, so
/// `1` fires every time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Panic inside request dispatch on every Nth request.
    pub panic_request_every: u64,
    /// Stall request dispatch (by [`FaultSpec::stall`]) on every Nth
    /// `query`/`local`/`topk` request.
    pub stall_request_every: u64,
    /// How long a fired stall sleeps.
    pub stall: Duration,
    /// Kill the serving worker thread after every Nth *connection* it
    /// finishes (the panic unwinds the thread itself, exercising the
    /// supervisor's respawn path rather than per-request isolation).
    pub kill_worker_every_conns: u64,
    /// Fail every Nth background recompute round with an injected error.
    pub fail_recompute_every: u64,
    /// Panic inside every Nth background recompute round.
    pub panic_recompute_every: u64,
}

/// One fail point: an event counter and a fire tally.
#[derive(Debug, Default)]
struct Site {
    events: AtomicU64,
    fired: AtomicU64,
}

impl Site {
    /// Counts one event; true when the site fires (`every > 0` and this
    /// is the `every`-th event since the last fire).
    fn check(&self, every: u64) -> bool {
        if every == 0 {
            return false;
        }
        let n = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        if n % every == 0 {
            self.fired.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Armed {
    spec: FaultSpec,
    panic_request: Site,
    stall_request: Site,
    kill_worker: Site,
    fail_recompute: Site,
    panic_recompute: Site,
}

/// How many times each fail point actually fired, for bench gates ("the
/// harness is vacuous unless faults really happened").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Request-dispatch panics injected.
    pub request_panics: u64,
    /// Request stalls injected.
    pub request_stalls: u64,
    /// Worker threads killed.
    pub worker_kills: u64,
    /// Recompute rounds failed by injection.
    pub recompute_failures: u64,
    /// Recompute rounds panicked by injection.
    pub recompute_panics: u64,
}

/// A shared, thread-safe fault-injection plan. See the [module
/// docs](self). The default plan injects nothing and costs one branch per
/// site check.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    armed: Option<Arc<Armed>>,
}

impl FaultPlan {
    /// The empty plan: no site ever fires.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Arms the sites described by `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan {
            armed: Some(Arc::new(Armed {
                spec,
                ..Default::default()
            })),
        }
    }

    /// True if any site is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Fire tallies so far (all zero for an unarmed plan).
    pub fn counts(&self) -> FaultCounts {
        match &self.armed {
            None => FaultCounts::default(),
            Some(a) => FaultCounts {
                request_panics: a.panic_request.fired(),
                request_stalls: a.stall_request.fired(),
                worker_kills: a.kill_worker.fired(),
                recompute_failures: a.fail_recompute.fired(),
                recompute_panics: a.panic_recompute.fired(),
            },
        }
    }

    /// Site check: panic this request?  (The *caller* panics, so the
    /// panic's backtrace points at the injection site in the server.)
    pub(crate) fn should_panic_request(&self) -> bool {
        self.armed
            .as_deref()
            .is_some_and(|a| a.panic_request.check(a.spec.panic_request_every))
    }

    /// Site check: stall this request, and for how long?
    pub(crate) fn request_stall(&self) -> Option<Duration> {
        let a = self.armed.as_deref()?;
        a.stall_request
            .check(a.spec.stall_request_every)
            .then_some(a.spec.stall)
    }

    /// Site check: kill the worker after this connection?
    pub(crate) fn should_kill_worker(&self) -> bool {
        self.armed
            .as_deref()
            .is_some_and(|a| a.kill_worker.check(a.spec.kill_worker_every_conns))
    }

    /// Site check: fail this recompute round?
    pub(crate) fn should_fail_recompute(&self) -> bool {
        self.armed
            .as_deref()
            .is_some_and(|a| a.fail_recompute.check(a.spec.fail_recompute_every))
    }

    /// Site check: panic this recompute round?
    pub(crate) fn should_panic_recompute(&self) -> bool {
        self.armed
            .as_deref()
            .is_some_and(|a| a.panic_recompute.check(a.spec.panic_recompute_every))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fires_and_counts_zero() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(!plan.should_panic_request());
            assert!(plan.request_stall().is_none());
            assert!(!plan.should_kill_worker());
            assert!(!plan.should_fail_recompute());
            assert!(!plan.should_panic_recompute());
        }
        assert_eq!(plan.counts(), FaultCounts::default());
        assert!(!plan.is_armed());
    }

    #[test]
    fn every_nth_event_fires_deterministically() {
        let plan = FaultPlan::new(FaultSpec {
            panic_request_every: 3,
            ..Default::default()
        });
        let fires: Vec<bool> = (0..9).map(|_| plan.should_panic_request()).collect();
        assert_eq!(
            fires,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(plan.counts().request_panics, 3);
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan::new(FaultSpec {
            fail_recompute_every: 2,
            ..Default::default()
        });
        let seen_by_server = plan.clone();
        assert!(!seen_by_server.should_fail_recompute());
        assert!(seen_by_server.should_fail_recompute());
        assert_eq!(plan.counts().recompute_failures, 1);
    }

    #[test]
    fn stall_reports_its_duration() {
        let plan = FaultPlan::new(FaultSpec {
            stall_request_every: 1,
            stall: Duration::from_millis(7),
            ..Default::default()
        });
        assert_eq!(plan.request_stall(), Some(Duration::from_millis(7)));
        assert_eq!(plan.counts().request_stalls, 1);
    }
}
