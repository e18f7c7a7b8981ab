//! Fault-injection (chaos) hooks, compiled in only with `--features
//! failpoints`.
//!
//! A *failpoint* is a named site in the query or update path where a test can
//! inject a fault: a panic (exercises the executor's per-slot isolation), a
//! delay (exercises deadlines and queue-wait shedding), or a synthetic
//! budget exhaustion (exercises the cooperative-cancellation paths without
//! needing an adversarial graph). The production binary pays nothing for
//! this: without the feature, [`check`] is a `const`-foldable `Ok(())` and
//! the registry does not exist.
//!
//! Sites are identified by the `&'static str` names in [`sites`]. Faults are
//! configured either programmatically ([`set`] / [`clear`] / [`clear_all`],
//! used by in-process tests) or from the `SPG_FAILPOINTS` environment
//! variable ([`init_from_env`], used by the server binary so a chaos harness
//! can inject faults into a separate release process):
//!
//! ```text
//! SPG_FAILPOINTS="phase1=panic;verify=delay:50;phase2=budget"
//! ```
//!
//! Each action may carry an optional hit budget `*N` (e.g. `panic*3`):
//! after firing `N` times the failpoint disarms itself, which lets a chaos
//! run recover and prove the server still answers afterwards.

/// Canonical failpoint site names, one per instrumented pipeline stage.
pub mod sites {
    /// Phase 1a: hop-bounded bidirectional distance search.
    pub const PHASE1: &str = "phase1";
    /// Phase 1b: essential-vertex propagation.
    pub const PHASE1B: &str = "phase1b";
    /// Phase 2: upper-bound edge labeling.
    pub const PHASE2: &str = "phase2";
    /// Phase 3: verification DFS.
    pub const VERIFY: &str = "verify";
    /// Singleflight leader just before it computes (executor phase B).
    pub const FLIGHT_LEADER: &str = "flight_leader";
    /// Batch executor entry, before any slot runs.
    pub const BATCH_DRAIN: &str = "batch_drain";
    /// An edge-delta update, after the graph mutation and before its
    /// scoped cache purge (`apply_delta_scoped`).
    pub const UPDATE_PURGE: &str = "update_purge";
    /// Every site: the ones a query traverses, in order, then the update's.
    pub const ALL: [&str; 7] = [
        BATCH_DRAIN,
        FLIGHT_LEADER,
        PHASE1,
        PHASE1B,
        PHASE2,
        VERIFY,
        UPDATE_PURGE,
    ];
}

#[cfg(not(feature = "failpoints"))]
pub use disabled::*;

#[cfg(not(feature = "failpoints"))]
mod disabled {
    use crate::query::QueryError;

    /// No-op: the `failpoints` feature is off, nothing ever fires.
    #[inline(always)]
    pub fn check(_site: &'static str) -> Result<(), QueryError> {
        Ok(())
    }
}

#[cfg(feature = "failpoints")]
pub use enabled::*;

#[cfg(feature = "failpoints")]
mod enabled {
    use crate::query::QueryError;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What an armed failpoint does when its site is reached.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailAction {
        /// Panic with a recognisable message (tests slot isolation).
        Panic,
        /// Sleep for the given number of milliseconds (tests deadlines).
        Delay(u64),
        /// Return [`QueryError::BudgetExceeded`] (tests cancellation paths).
        Budget,
    }

    struct Armed {
        action: FailAction,
        /// Remaining hits before the point disarms; `None` = unbounded.
        remaining: Option<u64>,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn site_key(site: &str) -> Option<&'static str> {
        super::sites::ALL.iter().find(|s| **s == site).copied()
    }

    /// Arms `site` with `action`, firing at most `hits` times (`None` =
    /// every time). Panics on an unknown site name so harness typos fail
    /// loudly instead of silently injecting nothing.
    pub fn set(site: &str, action: FailAction, hits: Option<u64>) {
        let key = site_key(site).unwrap_or_else(|| panic!("unknown failpoint site {site:?}"));
        registry().lock().unwrap().insert(
            key,
            Armed {
                action,
                remaining: hits,
            },
        );
    }

    /// Disarms `site` (unknown names are ignored: already disarmed).
    pub fn clear(site: &str) {
        if let Some(key) = site_key(site) {
            registry().lock().unwrap().remove(key);
        }
    }

    /// Disarms every failpoint.
    pub fn clear_all() {
        registry().lock().unwrap().clear();
    }

    /// Arms failpoints from a spec string like
    /// `"phase1=panic;verify=delay:50;phase2=budget*2"`. Returns the number
    /// of failpoints armed. Panics on malformed specs (a chaos harness must
    /// not silently run without its faults).
    pub fn init_from_spec(spec: &str) -> usize {
        let mut armed = 0;
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (site, action) = part
                .split_once('=')
                .unwrap_or_else(|| panic!("malformed failpoint spec {part:?} (want site=action)"));
            let (action, hits) =
                match action.split_once('*') {
                    Some((a, n)) => (
                        a,
                        Some(n.parse::<u64>().unwrap_or_else(|_| {
                            panic!("malformed failpoint hit budget in {part:?}")
                        })),
                    ),
                    None => (action, None),
                };
            let parsed = if action == "panic" {
                FailAction::Panic
            } else if action == "budget" {
                FailAction::Budget
            } else if let Some(ms) = action.strip_prefix("delay:") {
                FailAction::Delay(
                    ms.parse()
                        .unwrap_or_else(|_| panic!("malformed delay in {part:?}")),
                )
            } else {
                panic!("unknown failpoint action {action:?} in {part:?}");
            };
            set(site, parsed, hits);
            armed += 1;
        }
        armed
    }

    /// Arms failpoints from the `SPG_FAILPOINTS` environment variable, if
    /// set. Returns the number armed.
    pub fn init_from_env() -> usize {
        match std::env::var("SPG_FAILPOINTS") {
            Ok(spec) => init_from_spec(&spec),
            Err(_) => 0,
        }
    }

    /// Serializes tests that arm the process-global registry — hold the
    /// guard for the whole test so concurrent tests cannot observe each
    /// other's injected faults. Tests that run queries without the guard
    /// can still take an armed fault, so arming tests keep to a test
    /// binary of their own (`tests/failpoints.rs`).
    pub fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The instrumented sites call this; fires the armed action, if any.
    pub fn check(site: &'static str) -> Result<(), QueryError> {
        let action = {
            let mut reg = registry().lock().unwrap();
            match reg.get_mut(site) {
                None => return Ok(()),
                Some(armed) => {
                    if let Some(remaining) = &mut armed.remaining {
                        if *remaining == 0 {
                            return Ok(());
                        }
                        *remaining -= 1;
                    }
                    armed.action
                }
            }
        };
        match action {
            FailAction::Panic => panic!("failpoint {site} fired: injected panic"),
            FailAction::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            FailAction::Budget => Err(QueryError::BudgetExceeded),
        }
    }
}
