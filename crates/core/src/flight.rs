//! Singleflight latches: collapse concurrent misses on one hot key.
//!
//! A result cache alone does not protect the pipeline from *concurrent*
//! misses: when N requests for the same cold `(version, s, t, k)` key arrive
//! together — the shape a fraud-ring investigation produces the moment a hot
//! account pair starts trending — each of them probes, misses, and computes
//! the identical answer before the first publish lands. [`FlightGroup`] is
//! the classic singleflight fix: the first prober of a key becomes the
//! **leader** and computes; everyone else becomes a **joiner** holding a
//! latch, and when the leader completes, the one answer fans out to every
//! joiner. N concurrent misses cost one pipeline run.
//!
//! The contract mirrors the cache's invisibility guarantee:
//!
//! * flights are keyed by `(GraphVersion, clamped Query)` — exactly the
//!   cache key, so an answer fanned out of a flight is the same answer a
//!   cache hit would have served;
//! * only *validated* queries fly, so a flight normally resolves to a
//!   successful answer (validation errors are rejected before any latch
//!   exists); a leader cancelled mid-flight (deadline, work budget) or
//!   isolated after a panic broadcasts that failure explicitly via
//!   [`FlightToken::fail`], so joiners observe [`FlightOutcome::Failed`]
//!   and can decide per error whether to surface it or retry under their
//!   own budget;
//! * a leader that unwinds or drops its token without completing marks the
//!   flight **abandoned** and wakes every joiner with
//!   [`FlightOutcome::Abandoned`]; joiners then fall back to computing for
//!   themselves. A crashed leader can therefore never wedge a waiter — the
//!   latch degrades to the pre-singleflight behaviour instead of
//!   deadlocking.
//!
//! [`crate::BatchExecutor::run_cached_coalesced_with_deadlines`] takes the
//! group from its caller. A fresh group per drain dedups identical missed
//! keys *within* one batch; a serving frontend shares one long-lived group
//! across all of its drains so misses coalesce *across* concurrent batches
//! too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use spg_graph::hash::FxHashMap;
use spg_graph::GraphVersion;

use crate::query::{Query, QueryError};
use crate::spg::SimplePathGraph;

/// Flight key: one graph snapshot plus one clamped query — identical to the
/// result cache's key space.
type FlightKey = (GraphVersion, Query);

/// Latch state of one in-flight computation.
#[derive(Debug)]
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader published this answer; joiners clone it.
    Done(Arc<SimplePathGraph>),
    /// The leader's computation failed (cancelled or isolated after a
    /// panic); joiners receive the error.
    Failed(QueryError),
    /// The leader dropped its token without completing (panic or early
    /// return); joiners must compute for themselves.
    Abandoned,
}

/// What a joiner observes once its flight resolves.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// The leader's answer; clone it.
    Done(Arc<SimplePathGraph>),
    /// The leader failed with this error. [`QueryError::ExecutionPanicked`]
    /// should be taken as-is (a deterministic recompute would panic again);
    /// budget errors reflect the *leader's* budget — a joiner with a more
    /// generous one may recompute for itself.
    Failed(QueryError),
    /// The leader vanished without resolving; compute for yourself.
    Abandoned,
}

/// One in-flight computation: a state cell plus the condvar its joiners
/// park on.
#[derive(Debug)]
struct Flight {
    state: Mutex<FlightState>,
    arrived: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            arrived: Condvar::new(),
        }
    }

    fn resolve(&self, state: FlightState) {
        *self.state.lock().expect("flight state") = state; // lock: flight.state
        self.arrived.notify_all();
    }
}

/// Monotone counters of one [`FlightGroup`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Flights led (one per distinct concurrently-missed key).
    pub led: u64,
    /// Misses that joined an existing flight instead of computing — the
    /// collapsed duplicates.
    pub joined: u64,
    /// Flights whose leader dropped its token without completing; their
    /// joiners recomputed individually.
    pub abandoned: u64,
    /// Flights whose leader broadcast an explicit failure
    /// ([`FlightToken::fail`]): cancellation or per-slot panic isolation.
    pub failed: u64,
}

impl FlightStats {
    /// Fraction of coalescable lookups (`led + joined`) that were collapsed
    /// onto a leader (`None` before any flight).
    pub fn collapse_rate(&self) -> Option<f64> {
        let total = self.led + self.joined;
        if total == 0 {
            None
        } else {
            Some(self.joined as f64 / total as f64)
        }
    }
}

/// Registry of in-flight computations keyed by `(version, clamped query)`
/// (see the module docs for the leader/joiner contract).
///
/// ```
/// use spg_core::flight::{FlightGroup, FlightRole};
/// use spg_core::Query;
///
/// let flights = FlightGroup::new();
/// let q = Query::new(0, 1, 4);
/// let leader = match flights.join_or_lead(7, q) {
///     FlightRole::Leader(token) => token,
///     FlightRole::Joiner(_) => unreachable!("first prober always leads"),
/// };
/// // A second prober of the same key joins instead of computing.
/// assert!(matches!(flights.join_or_lead(7, q), FlightRole::Joiner(_)));
/// drop(leader); // abandoned: the joiner above would now recompute
/// assert_eq!(flights.stats().abandoned, 1);
/// ```
#[derive(Debug, Default)]
pub struct FlightGroup {
    flights: Mutex<FxHashMap<FlightKey, Arc<Flight>>>,
    led: AtomicU64,
    joined: AtomicU64,
    abandoned: AtomicU64,
    failed: AtomicU64,
}

// Shared across connection handlers and batch workers by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FlightGroup>();
};

impl FlightGroup {
    /// Creates an empty group.
    pub fn new() -> Self {
        FlightGroup::default()
    }

    /// Registers interest in `query` (which must already be validated and
    /// clamped) on snapshot `version`: the first caller per key becomes the
    /// [`FlightRole::Leader`] and must complete (or drop) its token; every
    /// concurrent caller becomes a [`FlightRole::Joiner`] holding a latch.
    pub fn join_or_lead(&self, version: GraphVersion, query: Query) -> FlightRole<'_> {
        let key = (version, query);
        let mut flights = self.flights.lock().expect("flight registry"); // lock: flight.registry
        if let Some(flight) = flights.get(&key) {
            self.joined.fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per flight join
            return FlightRole::Joiner(FlightJoiner {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight::new());
        flights.insert(key, Arc::clone(&flight));
        self.led.fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per flight claim
        FlightRole::Leader(FlightToken {
            group: self,
            key,
            flight,
            completed: false,
        })
    }

    /// Removes `key` from the registry iff it still maps to `flight`
    /// (an abandoned key may have been re-led by a new leader since).
    fn retire(&self, key: &FlightKey, flight: &Arc<Flight>) {
        let mut flights = self.flights.lock().expect("flight registry"); // lock: flight.registry
        if let Some(current) = flights.get(key) {
            if Arc::ptr_eq(current, flight) {
                flights.remove(key);
            }
        }
    }

    /// Flights currently pending (leaders that have neither completed nor
    /// abandoned).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().expect("flight registry").len() // lock: flight.registry
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            led: self.led.load(Ordering::Relaxed),
            joined: self.joined.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of [`FlightGroup::join_or_lead`].
#[derive(Debug)]
pub enum FlightRole<'g> {
    /// This caller computes; it must call [`FlightToken::complete`] (or drop
    /// the token to abandon the flight).
    Leader(FlightToken<'g>),
    /// Another caller is computing the same key; wait on the latch.
    Joiner(FlightJoiner),
}

/// Leader-side handle of one flight. Completing publishes the answer to
/// every joiner; dropping without completing abandons the flight (joiners
/// wake with `None` and recompute).
#[derive(Debug)]
pub struct FlightToken<'g> {
    group: &'g FlightGroup,
    key: FlightKey,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightToken<'_> {
    /// Publishes `answer` to every joiner and retires the flight. The caller
    /// should insert the answer into the result cache *before* completing,
    /// so a prober that finds the flight already gone hits the cache
    /// instead of leading a redundant recompute.
    pub fn complete(mut self, answer: Arc<SimplePathGraph>) {
        self.completed = true;
        self.group.retire(&self.key, &self.flight);
        self.flight.resolve(FlightState::Done(answer));
    }

    /// Broadcasts `err` to every joiner and retires the flight. Use this
    /// when the leader's computation was cancelled (deadline / work budget)
    /// or isolated after a panic, so joiners learn *why* the flight died
    /// instead of silently recomputing.
    pub fn fail(mut self, err: QueryError) {
        self.completed = true;
        self.group.failed.fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per failed flight
        self.group.retire(&self.key, &self.flight);
        self.flight.resolve(FlightState::Failed(err));
    }
}

impl Drop for FlightToken<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.group.abandoned.fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per abandoned flight
            self.group.retire(&self.key, &self.flight);
            self.flight.resolve(FlightState::Abandoned);
        }
    }
}

/// Joiner-side latch of one flight.
#[derive(Debug)]
pub struct FlightJoiner {
    flight: Arc<Flight>,
}

impl FlightJoiner {
    /// Blocks until the leader resolves the flight: completion, explicit
    /// failure, or abandonment. The latch can never block forever — every
    /// leader path resolves it, including panics (the token's `Drop` runs
    /// during unwinding and broadcasts [`FlightOutcome::Abandoned`]).
    pub fn wait(self) -> FlightOutcome {
        let mut state = self.flight.state.lock().expect("flight state"); // lock: flight.state
        loop {
            match &*state {
                FlightState::Done(answer) => return FlightOutcome::Done(Arc::clone(answer)),
                FlightState::Failed(err) => return FlightOutcome::Failed(*err),
                FlightState::Abandoned => return FlightOutcome::Abandoned,
                FlightState::Pending => {
                    // lock: flight.state
                    state = self.flight.arrived.wait(state).expect("flight state");
                }
            }
        }
    }

    /// Non-blocking probe: `Some(outcome)` once resolved, `None` while the
    /// leader is still computing.
    pub fn try_wait(&self) -> Option<FlightOutcome> {
        let state = self.flight.state.lock().expect("flight state"); // lock: flight.state
        match &*state {
            FlightState::Done(answer) => Some(FlightOutcome::Done(Arc::clone(answer))),
            FlightState::Failed(err) => Some(FlightOutcome::Failed(*err)),
            FlightState::Abandoned => Some(FlightOutcome::Abandoned),
            FlightState::Pending => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{figure1_graph, names};
    use crate::Eve;
    use std::thread;

    fn answer() -> Arc<SimplePathGraph> {
        let g = figure1_graph();
        Arc::new(
            Eve::with_defaults(&g)
                .query(Query::new(names::S, names::T, 4))
                .unwrap(),
        )
    }

    #[test]
    fn leader_then_joiners_fan_out() {
        let group = FlightGroup::new();
        let q = Query::new(0, 1, 3);
        let token = match group.join_or_lead(1, q) {
            FlightRole::Leader(t) => t,
            FlightRole::Joiner(_) => panic!("first prober must lead"),
        };
        assert_eq!(group.in_flight(), 1);
        let joiners: Vec<FlightJoiner> = (0..4)
            .map(|_| match group.join_or_lead(1, q) {
                FlightRole::Joiner(j) => j,
                FlightRole::Leader(_) => panic!("concurrent probers must join"),
            })
            .collect();
        let spg = answer();
        token.complete(Arc::clone(&spg));
        assert_eq!(group.in_flight(), 0, "completion retires the flight");
        for joiner in joiners {
            let FlightOutcome::Done(got) = joiner.wait() else {
                panic!("leader completed");
            };
            assert_eq!(got.edges(), spg.edges());
        }
        let stats = group.stats();
        assert_eq!((stats.led, stats.joined, stats.abandoned), (1, 4, 0));
        assert_eq!(stats.collapse_rate(), Some(0.8));
    }

    #[test]
    fn failed_leader_broadcasts_the_error() {
        let group = FlightGroup::new();
        let q = Query::new(0, 1, 3);
        let token = match group.join_or_lead(1, q) {
            FlightRole::Leader(t) => t,
            _ => unreachable!(),
        };
        let joiners: Vec<FlightJoiner> = (0..3)
            .map(|_| match group.join_or_lead(1, q) {
                FlightRole::Joiner(j) => j,
                _ => unreachable!(),
            })
            .collect();
        token.fail(QueryError::DeadlineExceeded);
        assert_eq!(group.in_flight(), 0, "failure retires the flight");
        for joiner in joiners {
            let FlightOutcome::Failed(err) = joiner.wait() else {
                panic!("failure must be observable");
            };
            assert_eq!(err, QueryError::DeadlineExceeded);
        }
        let stats = group.stats();
        assert_eq!((stats.failed, stats.abandoned), (1, 0));
        // The key is free again for a fresh leader.
        assert!(matches!(group.join_or_lead(1, q), FlightRole::Leader(_)));
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let group = FlightGroup::new();
        let a = group.join_or_lead(1, Query::new(0, 1, 3));
        let b = group.join_or_lead(1, Query::new(0, 1, 4)); // different k
        let c = group.join_or_lead(2, Query::new(0, 1, 3)); // different version
        assert!(matches!(a, FlightRole::Leader(_)));
        assert!(matches!(b, FlightRole::Leader(_)));
        assert!(matches!(c, FlightRole::Leader(_)));
        assert_eq!(group.in_flight(), 3);
    }

    #[test]
    fn abandoned_leader_wakes_joiners_with_none() {
        let group = FlightGroup::new();
        let q = Query::new(0, 1, 3);
        let token = match group.join_or_lead(1, q) {
            FlightRole::Leader(t) => t,
            _ => unreachable!(),
        };
        let joiner = match group.join_or_lead(1, q) {
            FlightRole::Joiner(j) => j,
            _ => unreachable!(),
        };
        assert!(joiner.try_wait().is_none(), "pending");
        drop(token);
        assert!(
            matches!(joiner.wait(), FlightOutcome::Abandoned),
            "abandonment is observable"
        );
        assert_eq!(group.in_flight(), 0);
        assert_eq!(group.stats().abandoned, 1);
        // The key is free again: the next prober leads a fresh flight.
        assert!(matches!(group.join_or_lead(1, q), FlightRole::Leader(_)));
    }

    #[test]
    fn cross_thread_fan_out() {
        let group = FlightGroup::new();
        let q = Query::new(0, 1, 3);
        let token = match group.join_or_lead(9, q) {
            FlightRole::Leader(t) => t,
            _ => unreachable!(),
        };
        let spg = answer();
        let expected = spg.edges().to_vec();
        thread::scope(|scope| {
            let waiters: Vec<_> = (0..8)
                .map(|_| {
                    let joiner = match group.join_or_lead(9, q) {
                        FlightRole::Joiner(j) => j,
                        _ => unreachable!("leader is live"),
                    };
                    let expected = &expected;
                    scope.spawn(move || {
                        let FlightOutcome::Done(got) = joiner.wait() else {
                            panic!("completed");
                        };
                        assert_eq!(got.edges(), expected.as_slice());
                    })
                })
                .collect();
            token.complete(spg);
            for w in waiters {
                w.join().expect("waiter panicked");
            }
        });
        let stats = group.stats();
        assert_eq!((stats.led, stats.joined), (1, 8));
    }
}
