//! Multi-threaded batch query execution.
//!
//! The EVE pipeline is embarrassingly parallel across queries: the host
//! [`DiGraph`](spg_graph::DiGraph) is read-only and every per-query structure
//! lives in a [`QueryWorkspace`]. [`BatchExecutor`] exploits that with plain
//! `std::thread::scope` workers (no dependency, no global thread-pool
//! registry):
//!
//! * each worker owns a **private** [`QueryWorkspace`], so the hot path stays
//!   allocation-free after warm-up exactly as in the sequential case;
//! * the batch is first planned into **scheduling units**. By default
//!   these are **cohorts** ([`crate::cohort`]): up to [`LaneWidth::lanes`]
//!   (256 by default) distinct `(s, t)` endpoint pairs whose Phase-1
//!   distances are computed by one bit-parallel MS-BFS traversal per
//!   direction instead of one BFS pair per query, with per-query
//!   **single** units for singletons, invalid queries and cohorts the cost
//!   model dissolves ([`BatchExecutor::shared_phase1`]`(false)` plans every
//!   query as a single; [`BatchExecutor::phase1_lanes`] narrows the
//!   packing);
//! * work is pulled through one **atomic cursor** — a worker claims one
//!   whole unit per `fetch_add`, which keeps cursor traffic negligible next
//!   to a unit's cost while still load-balancing skewed batches;
//! * every result is written into its query's **pre-sized slot**
//!   (`OnceLock` per index), so the output order is the input order and the
//!   answers are bit-identical to sequential [`Eve::query_with`] runs — the
//!   workspace-reuse property (answers never depend on what a workspace ran
//!   before; see `tests/workspace_reuse.rs`) is what makes per-thread
//!   workspaces safe. A single-worker executor drains inline on the
//!   calling thread.
//!
//! ### Error aggregation and fault-isolation policy
//!
//! A batch never short-circuits: an invalid query produces an `Err` in its
//! own slot and has no effect on any other slot. [`BatchStats`] counts
//! errors globally and per worker so serving layers can alarm on error
//! ratios without scanning the result vector.
//!
//! The same per-slot discipline extends to faults and deadlines:
//!
//! * **Panic isolation** — every scheduling unit (a cohort or a single
//!   query) runs under [`std::panic::catch_unwind`]. A panicking query
//!   turns into [`QueryError::ExecutionPanicked`] in its own slot (and the
//!   unanswered slots of its cohort), the worker's possibly-corrupted
//!   workspace is discarded for a fresh one, and every other slot of the
//!   batch is answered normally. [`BatchStats::panics_isolated`] counts
//!   the contained panics.
//! * **Per-slot deadlines** —
//!   [`BatchExecutor::run_cached_coalesced_with_deadlines`] takes one
//!   optional [`Instant`] per slot and runs each query under a cooperative
//!   [`QueryBudget`]; an expired slot reports
//!   [`QueryError::DeadlineExceeded`] without disturbing its neighbours.
//!   Cohorts run their shared traversal under the *latest* member deadline
//!   (see [`crate::cohort`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use spg_graph::{QueryBudget, SearchSpaceStats};

use crate::cache::{CacheOutcome, CachedEve};
use crate::cohort::{run_cohort, CohortPlan, LaneWidth, Unit};
use crate::eve::Eve;
use crate::failpoints::{self, sites};
use crate::flight::{FlightGroup, FlightOutcome, FlightRole};
use crate::query::{Query, QueryError};
use crate::spg::SimplePathGraph;
use crate::stats::MemoryEstimate;
use crate::workspace::QueryWorkspace;

/// The budget a slot runs under: its deadline, or unlimited without one.
fn budget_for(deadline: Option<Instant>) -> QueryBudget {
    match deadline {
        Some(d) => QueryBudget::with_deadline(d),
        None => QueryBudget::unlimited(),
    }
}

/// Slot `index`'s deadline; slices shorter than the batch mean unbounded.
fn slot_deadline(deadlines: &[Option<Instant>], index: usize) -> Option<Instant> {
    deadlines.get(index).copied().flatten()
}

/// Per-query outcome of a batch: the answer, or why the query was rejected.
pub type BatchResult = Result<SimplePathGraph, QueryError>;

// The executor shares `Eve` (a graph reference + config) and the query slice
// across scoped threads; keep that capability a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Eve<'static>>();
    assert_send_sync::<Query>();
    assert_send_sync::<QueryError>();
    assert_send_sync::<QueryWorkspace>();
    assert_send_sync::<SimplePathGraph>();
};

/// Multi-threaded executor for query batches (see the module docs).
///
/// ```
/// use spg_core::{BatchExecutor, Eve, Query};
/// use spg_core::paper_example::{figure1_graph, names};
///
/// let g = figure1_graph();
/// let eve = Eve::with_defaults(&g);
/// let queries: Vec<Query> = (2..=8).map(|k| Query::new(names::S, names::T, k)).collect();
/// let parallel = BatchExecutor::new(4).run(&eve, &queries);
/// for (p, &q) in parallel.iter().zip(&queries) {
///     assert_eq!(p.as_ref().unwrap().edges(), eve.query(q).unwrap().edges());
/// }
/// ```
#[derive(Debug)]
pub struct BatchExecutor {
    threads: usize,
    shared_phase1: bool,
    phase1_lanes: LaneWidth,
    pool: WorkspacePool,
}

impl Clone for BatchExecutor {
    /// Clones the configuration; the pooled workspaces stay with the
    /// original (the clone warms its own pool).
    fn clone(&self) -> Self {
        BatchExecutor {
            threads: self.threads,
            shared_phase1: self.shared_phase1,
            phase1_lanes: self.phase1_lanes,
            pool: WorkspacePool::default(),
        }
    }
}

/// Checkout/checkin pool of [`QueryWorkspace`]s shared by the workers of
/// every run on one executor. A long-lived executor (the server drains
/// every micro-batch through one; the benchmarks time repeated runs) hands
/// each worker the previous run's warmed buffers instead of growing — and
/// first-touch page-faulting — graph-sized arrays per call. That cost
/// scales with graph size × lane width (a 256-lane MS-BFS engine keeps
/// 5 × 32 bytes per vertex per side), so on large graphs it would otherwise
/// rival the traversal itself. Reuse cannot change answers: a workspace's
/// output never depends on what it ran before (`tests/workspace_reuse.rs`).
#[derive(Default)]
struct WorkspacePool {
    idle: Mutex<Vec<QueryWorkspace>>,
}

impl WorkspacePool {
    fn checkout(&self) -> QueryWorkspace {
        self.idle().pop().unwrap_or_default()
    }

    fn checkin(&self, ws: QueryWorkspace) {
        self.idle().push(ws);
    }

    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<QueryWorkspace>> {
        // A panic while the lock is held cannot corrupt a Vec of idle
        // workspaces; recover instead of poisoning every later batch.
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspacePool")
            .field("idle", &self.idle().len())
            .finish()
    }
}

impl BatchExecutor {
    /// Creates an executor with an explicit worker count (clamped to ≥ 1).
    /// Cohort-shared Phase 1 is on by default; see
    /// [`BatchExecutor::shared_phase1`]. `BatchExecutor::new(1)` runs every
    /// batch inline on the calling thread.
    pub fn new(threads: usize) -> Self {
        BatchExecutor {
            threads: threads.max(1),
            shared_phase1: true,
            phase1_lanes: LaneWidth::default(),
            pool: WorkspacePool::default(),
        }
    }

    /// Creates an executor sized to the machine
    /// ([`std::thread::available_parallelism`], falling back to 1).
    pub fn with_available_parallelism() -> Self {
        let threads = thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        BatchExecutor::new(threads)
    }

    /// Enables or disables the cohort-shared MS-BFS Phase 1 (default:
    /// enabled). When disabled, every query is planned as its own single
    /// unit and answered on the classic per-query path — the baseline the
    /// `phase1_sharing` perf snapshots compare against. The result slots
    /// are bit-identical either way.
    pub fn shared_phase1(mut self, enabled: bool) -> Self {
        self.shared_phase1 = enabled;
        self
    }

    /// Overrides the cohort lane capacity — how many distinct `(s, t)`
    /// pairs one shared Phase-1 traversal may carry (default:
    /// [`LaneWidth::W256`]). A cohort that fits 64 lanes runs on the
    /// 64-lane engine at either width, so the width only changes how wider
    /// cohorts are packed, and answers never depend on it.
    pub fn phase1_lanes(mut self, width: LaneWidth) -> Self {
        self.phase1_lanes = width;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Answers `queries` against `eve`'s graph, returning one slot per query
    /// in input order. Answers (and errors) are bit-identical to calling
    /// [`Eve::query_with`] per query on a fresh workspace, at any thread
    /// count.
    pub fn run(&self, eve: &Eve<'_>, queries: &[Query]) -> Vec<BatchResult> {
        self.run_detailed(eve, queries).results
    }

    /// [`BatchExecutor::run`] plus execution statistics: global and
    /// per-worker query/error counts, the worst single-query
    /// [`MemoryEstimate`] (field-wise max merge), the workspace capacity
    /// each worker retained, and — on the default cohort-shared path — the
    /// shared-Phase-1 counters ([`BatchStats::phase1`]).
    pub fn run_detailed(&self, eve: &Eve<'_>, queries: &[Query]) -> BatchOutcome {
        self.run_planned(eve, queries, &[])
    }

    /// The batch driver behind every entry point: plan the batch into units
    /// (cohorts and per-query singles, or all singles with sharing off),
    /// then let workers claim units through the atomic cursor. Each worker
    /// runs a claimed cohort's two MS-BFS passes on its private workspace
    /// and answers the members from the shared distances; single units go
    /// through [`Eve::query_budgeted`] unchanged. `deadlines` is indexed by
    /// slot (may be shorter than `queries`; missing entries mean unbounded).
    fn run_planned(
        &self,
        eve: &Eve<'_>,
        queries: &[Query],
        deadlines: &[Option<Instant>],
    ) -> BatchOutcome {
        let plan = if self.shared_phase1 {
            CohortPlan::build(eve.graph(), queries, self.threads, self.phase1_lanes)
        } else {
            CohortPlan::singles(queries.len())
        };
        let workers = self.threads.min(plan.units.len()).max(1);
        let slots: Vec<OnceLock<BatchResult>> =
            (0..queries.len()).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);

        let mut per_thread: Vec<ThreadBatchStats> = Vec::with_capacity(workers);
        if workers == 1 {
            // Sequential fast path: same drain loop, no spawn cost. This is
            // also what makes `BatchExecutor::new(1)` a faithful baseline in
            // the thread-scaling benchmarks.
            per_thread.push(drain(
                eve, queries, &plan, deadlines, &cursor, &slots, &self.pool,
            ));
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            drain(eve, queries, &plan, deadlines, &cursor, &slots, &self.pool)
                        })
                    })
                    .collect();
                for handle in handles {
                    // spg-analyze: allow(no-panic) — a worker panic here is a bug; catch_unwind guards the slots
                    per_thread.push(handle.join().expect("batch worker panicked"));
                }
            });
        }

        let results: Vec<BatchResult> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    // spg-analyze: allow(no-panic) — the cohort planner is exhaustive over query indices
                    .expect("the cohort plan covers every query index exactly once")
            })
            .collect();
        let stats = BatchStats::from_workers(workers, per_thread);
        debug_assert_eq!(stats.answered + stats.errors, results.len());
        BatchOutcome {
            results,
            stats,
            slot_sources: Vec::new(),
        }
    }

    /// Answers `queries` through a shared [`crate::SpgCache`] with a
    /// **three-phase drain**. First every slot is validated and probed
    /// against the cache (hits skip all three pipeline phases) and each
    /// missed key leads or joins a flight in `flights`, so identical missed
    /// keys collapse onto one in-flight computation — a batch of 64
    /// identical cold queries computes **once**. Then the distinct misses
    /// are planned and computed by one [`BatchExecutor::run`]-style parallel
    /// run, so shared-endpoint misses still get the bit-parallel shared
    /// Phase 1 before their answers are published to the cache. Last, the
    /// answers are fanned out to the collapsed duplicates. Slots remain
    /// bit-identical to the uncached [`BatchExecutor::run`] at any thread
    /// count — the differential harness in `tests/cache_differential.rs`
    /// holds this as an invariant.
    ///
    /// A fresh [`FlightGroup::new`] collapses duplicates within this batch
    /// only. Concurrent drains sharing one long-lived group (a serving
    /// frontend's micro-batches) coalesce misses *across* batches: a key
    /// already in flight in another drain is joined, not recomputed.
    /// Deadlock-freedom: a drain completes every flight it leads during its
    /// compute phase *before* waiting on any flight led elsewhere, so
    /// cross-drain waits can never form a cycle.
    ///
    /// `deadlines` holds one optional wall-clock deadline per slot (it may
    /// be shorter than `queries`, or empty; missing entries mean
    /// unbounded). A slot past its deadline reports
    /// [`QueryError::DeadlineExceeded`] without disturbing its neighbours;
    /// a leader that fails mid-flight broadcasts its error to every joiner
    /// instead of leaving them waiting ([`crate::FlightToken::fail`]), and
    /// joiners of a budget-killed leader recompute under their *own*
    /// deadline rather than inheriting the leader's failure.
    ///
    /// [`BatchStats::cache_hits`] / [`BatchStats::cache_misses`] /
    /// [`BatchStats::cache_coalesced`] partition this run's valid slots;
    /// [`BatchStats::cache_evictions`] is the shared cache's eviction-counter
    /// delta across the run, which includes evictions triggered by
    /// concurrent users of the same cache, if any.
    pub fn run_cached_coalesced_with_deadlines(
        &self,
        cached: &CachedEve<'_, '_>,
        flights: &FlightGroup,
        queries: &[Query],
        deadlines: &[Option<Instant>],
    ) -> BatchOutcome {
        // Drain-level failpoint: an injected panic here models the batcher
        // dying mid-drain; an injected budget error fails the whole drain
        // gracefully (every slot gets an error response, nothing hangs).
        if let Err(err) = failpoints::check(sites::BATCH_DRAIN) {
            return BatchOutcome {
                results: queries.iter().map(|_| Err(err)).collect(),
                stats: BatchStats {
                    threads: 1,
                    errors: queries.len(),
                    ..BatchStats::default()
                },
                slot_sources: vec![None; queries.len()],
            };
        }
        let graph = cached.eve().graph();
        let version = cached.version();
        let cache = cached.cache();
        // Reclaim bytes of snapshots the bound graph has retired before this
        // drain competes for the budget (deduped: a no-op after the first
        // drain on a given binding's retired list).
        cached.purge_retired();
        let evictions_before = cache.eviction_count();

        // ---- Phase A: validate + probe + claim flights (calling thread).
        let mut slots: Vec<Option<BatchResult>> = (0..queries.len()).map(|_| None).collect();
        let mut slot_sources: Vec<Option<CacheOutcome>> = vec![None; queries.len()];
        let mut probe_hits = 0usize;
        let mut probe_errors = 0usize;
        let mut missed: Vec<Query> = Vec::new();
        let mut missed_slots: Vec<usize> = Vec::new();
        let mut tokens = Vec::new();
        let mut waits: Vec<(usize, crate::flight::FlightJoiner)> = Vec::new();
        for (i, &query) in queries.iter().enumerate() {
            if let Err(err) = query.validate(graph) {
                slots[i] = Some(Err(err));
                probe_errors += 1;
                continue;
            }
            let clamped = query.clamped_to(graph);
            if let Some(hit) = cache.get(version, clamped) {
                slots[i] = Some(Ok(hit));
                slot_sources[i] = Some(CacheOutcome::Hit);
                probe_hits += 1;
                continue;
            }
            match flights.join_or_lead(version, clamped) {
                FlightRole::Leader(token) => {
                    // Double-check: a leader elsewhere may have published
                    // between our probe and our claim (shared groups only).
                    // The quiet probe keeps hit/miss counters exact.
                    if let Some(hit) = cache.get_quiet(version, clamped) {
                        token.complete(Arc::new(hit.clone()));
                        slots[i] = Some(Ok(hit));
                        slot_sources[i] = Some(CacheOutcome::Hit);
                        probe_hits += 1;
                    } else {
                        missed.push(clamped);
                        missed_slots.push(i);
                        tokens.push(token);
                        slot_sources[i] = Some(CacheOutcome::Miss);
                    }
                }
                FlightRole::Joiner(joiner) => {
                    waits.push((i, joiner));
                    slot_sources[i] = Some(CacheOutcome::Coalesced);
                }
            }
        }

        // ---- Phase B: compute the distinct misses as one batch (cohort
        // planning + parallel workers), publish, complete flights.
        let mut stats = if missed.is_empty() {
            BatchStats {
                threads: 1,
                ..BatchStats::default()
            }
        } else if let Err(err) = failpoints::check(sites::FLIGHT_LEADER) {
            // Injected leader failure: broadcast it to every joiner (none
            // may block forever) and error the led slots themselves.
            for (&slot, token) in missed_slots.iter().zip(tokens) {
                token.fail(err);
                slots[slot] = Some(Err(err));
                slot_sources[slot] = None;
                probe_errors += 1;
            }
            BatchStats {
                threads: 1,
                ..BatchStats::default()
            }
        } else {
            // Misses run under their own slots' deadlines.
            let missed_deadlines: Vec<Option<Instant>> = missed_slots
                .iter()
                .map(|&slot| slot_deadline(deadlines, slot))
                .collect();
            let inner = self.run_planned(&cached.eve(), &missed, &missed_deadlines);
            let mut stats = inner.stats;
            for ((&slot, token), result) in missed_slots.iter().zip(tokens).zip(inner.results) {
                match result {
                    Ok(spg) => {
                        let clamped = spg.query();
                        cache.insert(version, clamped, &spg);
                        stats.cache_misses += 1;
                        let arc = Arc::new(spg);
                        // Publish-then-complete: a prober that finds the
                        // flight gone must find the cache populated.
                        token.complete(Arc::clone(&arc));
                        slots[slot] =
                            Some(Ok(Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone())));
                    }
                    Err(err) => {
                        // Deadline, budget or isolated-panic failure: fail
                        // the flight so joiners observe the error instead
                        // of waiting forever, and error the slot itself.
                        token.fail(err);
                        slots[slot] = Some(Err(err));
                        slot_sources[slot] = None;
                    }
                }
            }
            // Every inner worker computed misses exclusively; make that
            // readable in the per-thread breakdown.
            for worker in &mut stats.per_thread {
                worker.cache_misses = worker.answered;
            }
            stats
        };

        // ---- Phase C: fan the leaders' answers out to the joiners.
        let mut coalesced = 0usize;
        // Lazily checked out: only abandoned/failed flights recompute here.
        let mut recompute_ws: Option<QueryWorkspace> = None;
        for (slot, joiner) in waits {
            match joiner.wait() {
                FlightOutcome::Done(arc) => {
                    slots[slot] = Some(Ok((*arc).clone()));
                    coalesced += 1;
                    continue;
                }
                FlightOutcome::Failed(QueryError::ExecutionPanicked) => {
                    // The computation itself is faulty; rerunning it would
                    // panic again. Take the leader's error as-is.
                    slots[slot] = Some(Err(QueryError::ExecutionPanicked));
                    slot_sources[slot] = None;
                    probe_errors += 1;
                    continue;
                }
                // Failed: the leader ran out of *its* budget — this slot's
                // own deadline may still have room, so recompute under it.
                // Abandoned: the leader vanished (cross-drain panic);
                // compute individually — the pre-singleflight behaviour.
                FlightOutcome::Failed(_) | FlightOutcome::Abandoned => {}
            }
            let ws = recompute_ws.get_or_insert_with(|| self.pool.checkout());
            let budget = budget_for(slot_deadline(deadlines, slot));
            match cached.query_with_outcome_budgeted(ws, queries[slot], &budget) {
                Ok((spg, CacheOutcome::Hit)) => {
                    slots[slot] = Some(Ok(spg));
                    slot_sources[slot] = Some(CacheOutcome::Hit);
                    probe_hits += 1;
                }
                Ok((spg, _)) => {
                    slots[slot] = Some(Ok(spg));
                    slot_sources[slot] = Some(CacheOutcome::Miss);
                    stats.cache_misses += 1;
                    stats.answered += 1;
                }
                Err(err) => {
                    slots[slot] = Some(Err(err));
                    slot_sources[slot] = None;
                    probe_errors += 1;
                }
            }
        }

        if let Some(ws) = recompute_ws {
            self.pool.checkin(ws);
        }

        stats.answered += probe_hits + coalesced;
        stats.errors += probe_errors;
        stats.cache_hits += probe_hits;
        stats.cache_coalesced = coalesced;
        stats.cache_evictions = cache.eviction_count().saturating_sub(evictions_before) as usize;

        let results: Vec<BatchResult> = slots
            .into_iter()
            .map(|slot| slot.expect("every slot is resolved by probe, compute or fan-out")) // spg-analyze: allow(no-panic) — every slot is resolved by probe, compute or fan-out
            .collect();
        debug_assert_eq!(stats.answered + stats.errors, results.len());
        BatchOutcome {
            results,
            stats,
            slot_sources,
        }
    }
}

impl Default for BatchExecutor {
    /// Same as [`BatchExecutor::with_available_parallelism`].
    fn default() -> Self {
        BatchExecutor::with_available_parallelism()
    }
}

/// One worker's drain loop: claim one unit at a time, run cohorts via
/// [`run_cohort`] and singles via [`Eve::query_budgeted`], publish every
/// member into its pre-sized slot.
///
/// Every unit runs under [`catch_unwind`]: a panic (a defect or an injected
/// failpoint) is contained to the unit — its unanswered slots get
/// [`QueryError::ExecutionPanicked`], the possibly-corrupted workspace is
/// replaced by a fresh one, and the worker moves on to the next unit.
fn drain(
    eve: &Eve<'_>,
    queries: &[Query],
    plan: &CohortPlan,
    deadlines: &[Option<Instant>],
    cursor: &AtomicUsize,
    slots: &[OnceLock<BatchResult>],
    pool: &WorkspacePool,
) -> ThreadBatchStats {
    let mut ws = pool.checkout();
    let mut stats = ThreadBatchStats::default();
    loop {
        let unit = cursor.fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one claim per scheduling unit, amortised over the unit
        if unit >= plan.units.len() {
            break;
        }
        stats.units_claimed += 1;
        match &plan.units[unit] {
            Unit::Single(index) => {
                let budget = budget_for(slot_deadline(deadlines, *index));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    eve.query_budgeted(&mut ws, queries[*index], &budget)
                }))
                .unwrap_or_else(|_| {
                    // The corrupted workspace is dropped, never pooled.
                    ws = QueryWorkspace::new();
                    stats.panics_isolated += 1;
                    Err(QueryError::ExecutionPanicked)
                });
                match &result {
                    Ok(spg) => {
                        stats.answered += 1;
                        stats.peak_memory.merge_max(&spg.stats().memory);
                    }
                    Err(_) => stats.errors += 1,
                }
                slots[*index]
                    .set(result)
                    .expect("no other worker may claim this query index"); // spg-analyze: allow(no-panic) — slot claimed by this worker via the cursor
            }
            Unit::Cohort(cohort) => {
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    run_cohort(
                        eve,
                        &mut ws,
                        cohort,
                        deadlines,
                        &mut stats,
                        |index, result| {
                            slots[index]
                                .set(result)
                                // spg-analyze: allow(no-panic) — slot claimed by this worker via the cursor
                                .expect("no other worker may claim this query index");
                        },
                    )
                }));
                if unwound.is_err() {
                    // The panic is contained to this cohort: members whose
                    // slot was published before the panic keep their
                    // answers, the rest become error slots, and the
                    // workspace (in an unknown state) is discarded.
                    ws = QueryWorkspace::new();
                    stats.panics_isolated += 1;
                    for member in &cohort.members {
                        if slots[member.index]
                            .set(Err(QueryError::ExecutionPanicked))
                            .is_ok()
                        {
                            stats.errors += 1;
                        }
                    }
                }
            }
        }
    }
    stats.workspace_retained_bytes = ws.retained_bytes();
    pool.checkin(ws);
    stats
}

/// Results plus statistics of one [`BatchExecutor::run_detailed`] call.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One slot per input query, in input order.
    pub results: Vec<BatchResult>,
    /// Global and per-worker execution counters.
    pub stats: BatchStats,
    /// Cached runs only: how each slot was served, in input order —
    /// [`CacheOutcome::Hit`] (resident answer), [`CacheOutcome::Miss`]
    /// (computed and published) or [`CacheOutcome::Coalesced`] (collapsed
    /// onto another slot's in-flight computation); `None` for error slots.
    /// Empty for uncached runs. Serving layers report this per response.
    pub slot_sources: Vec<Option<CacheOutcome>>,
}

/// Counters of the batch-shared MS-BFS Phase 1 (the cohort units of a
/// [`BatchExecutor`] run; all-zero when sharing is disabled or the batch
/// degenerated to per-query singles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedPhase1Stats {
    /// Queries whose Phase-1 distances came from a cohort MS-BFS run
    /// (the rest fell back to the per-query engine).
    pub phase1_shared: usize,
    /// MS-BFS lanes actually traversed — distinct `(s, t)` endpoint pairs,
    /// summed over cohorts. `phase1_shared / distinct_endpoints` is the
    /// dedup ratio hub-skewed batches benefit from.
    pub distinct_endpoints: usize,
    /// Cohorts executed (each pays one bidirectional MS-BFS traversal).
    pub cohorts: usize,
    /// Members whose Phase-1a output was reused verbatim from the previous
    /// member of the same cohort — exact `(s, t, k)` duplicates, which the
    /// plan orders back to back.
    pub distance_reuses: usize,
    /// Wall time of the cohort MS-BFS passes. Per-query materialisation of
    /// lane distances is *not* included here — it is recorded in each
    /// answer's distance phase timing, so "total Phase-1 time" of a shared
    /// batch is this plus the per-answer distance timings.
    pub traversal_time: Duration,
    /// Cohort traversal work: top-down relaxations on the forward /
    /// backward sides plus bottom-up probes, kept separate so the
    /// direction-optimizing switch is observable.
    pub traversal: SearchSpaceStats,
}

impl SharedPhase1Stats {
    /// Queries served per traversed lane (`None` before any cohort ran).
    /// 1.0 means no endpoint reuse; hub-skewed batches score higher.
    pub fn dedup_ratio(&self) -> Option<f64> {
        if self.distinct_endpoints == 0 {
            None
        } else {
            Some(self.phase1_shared as f64 / self.distinct_endpoints as f64)
        }
    }

    /// Element-wise sum, used when folding per-worker stats.
    fn merge(&mut self, other: &SharedPhase1Stats) {
        self.phase1_shared += other.phase1_shared;
        self.distinct_endpoints += other.distinct_endpoints;
        self.cohorts += other.cohorts;
        self.distance_reuses += other.distance_reuses;
        self.traversal_time += other.traversal_time;
        self.traversal.forward_edge_scans += other.traversal.forward_edge_scans;
        self.traversal.backward_edge_scans += other.traversal.backward_edge_scans;
        self.traversal.bottom_up_edge_scans += other.traversal.bottom_up_edge_scans;
        self.traversal.space_vertices += other.traversal.space_vertices;
    }
}

/// Counters for one worker thread of a batch run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadBatchStats {
    /// Queries this worker answered successfully.
    pub answered: usize,
    /// Queries this worker rejected ([`QueryError`] slots).
    pub errors: usize,
    /// Scheduling units (cohorts or single queries) this worker claimed
    /// from the cursor.
    pub units_claimed: usize,
    /// Cache lookups this worker answered from the shared
    /// [`crate::SpgCache`]. On the two-phase cached drain the probe phase
    /// runs on the calling thread, so hits are counted globally
    /// ([`BatchStats::cache_hits`]) and this stays 0; compute workers only
    /// ever see misses.
    pub cache_hits: usize,
    /// Missed queries this worker computed-then-published (always 0 for
    /// uncached runs).
    pub cache_misses: usize,
    /// Panics this worker caught and contained to their scheduling unit
    /// (the affected slots report [`QueryError::ExecutionPanicked`] and the
    /// worker continued on a fresh workspace).
    pub panics_isolated: usize,
    /// This worker's shared-Phase-1 counters (cohort path only).
    pub phase1: SharedPhase1Stats,
    /// Worst single-query memory estimate seen by this worker
    /// ([`MemoryEstimate::merge_max`] over its queries).
    pub peak_memory: MemoryEstimate,
    /// Buffer capacity this worker's private workspace retained at the end
    /// of the batch (its steady-state footprint).
    pub workspace_retained_bytes: usize,
}

/// Aggregated execution statistics of a batch run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Workers actually spawned (`min(threads, units)`, at least 1).
    pub threads: usize,
    /// Successfully answered queries across all workers.
    pub answered: usize,
    /// Rejected queries across all workers (the error aggregation policy is
    /// per-slot: an invalid query never affects its neighbours).
    pub errors: usize,
    /// Queries served from the shared result cache across all workers
    /// ([`BatchExecutor::run_cached_coalesced_with_deadlines`]; always 0
    /// for uncached runs).
    pub cache_hits: usize,
    /// Queries computed and published to the shared result cache across all
    /// workers (always 0 for uncached runs).
    pub cache_misses: usize,
    /// Missed queries collapsed onto another slot's in-flight computation by
    /// the singleflight layer instead of computing themselves (always 0 for
    /// uncached runs). Valid slots of a cached run partition exactly:
    /// `cache_hits + cache_misses + cache_coalesced == answered`.
    pub cache_coalesced: usize,
    /// Evictions the shared cache performed while this batch ran (the
    /// cache's eviction-counter delta — includes evictions triggered by
    /// concurrent users of the same cache; always 0 for uncached runs).
    pub cache_evictions: usize,
    /// Panics caught and contained across all workers — each one produced
    /// [`QueryError::ExecutionPanicked`] slots (counted in
    /// [`BatchStats::errors`]) without disturbing any other slot.
    pub panics_isolated: usize,
    /// Shared-Phase-1 counters summed over all workers: queries served from
    /// cohort MS-BFS runs, distinct endpoint pairs traversed, cohort count,
    /// traversal wall time and the top-down/bottom-up scan split.
    pub phase1: SharedPhase1Stats,
    /// Worst single-query memory estimate across the whole batch.
    pub peak_memory: MemoryEstimate,
    /// Sum of every worker's retained workspace capacity — the steady-state
    /// memory a long-lived executor of this shape keeps resident.
    pub workspace_retained_bytes: usize,
    /// Per-worker breakdown, in spawn order.
    pub per_thread: Vec<ThreadBatchStats>,
}

impl BatchStats {
    fn from_workers(threads: usize, per_thread: Vec<ThreadBatchStats>) -> Self {
        let mut stats = BatchStats {
            threads,
            ..BatchStats::default()
        };
        for worker in &per_thread {
            stats.answered += worker.answered;
            stats.errors += worker.errors;
            stats.cache_hits += worker.cache_hits;
            stats.cache_misses += worker.cache_misses;
            stats.panics_isolated += worker.panics_isolated;
            stats.phase1.merge(&worker.phase1);
            stats.peak_memory.merge_max(&worker.peak_memory);
            stats.workspace_retained_bytes += worker.workspace_retained_bytes;
        }
        stats.per_thread = per_thread;
        stats
    }

    /// Total queries processed (answered + rejected).
    pub fn queries(&self) -> usize {
        self.answered + self.errors
    }

    /// Fraction of this run's cache lookups served from the cache — hits
    /// over all valid slots (hits, computed misses and coalesced slots);
    /// `None` for uncached runs or batches with no valid query.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses + self.cache_coalesced;
        if lookups == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / lookups as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SpgCache;
    use crate::paper_example::{self, names::*};
    use spg_graph::VersionedGraph;

    fn mixed_batch(n: u32) -> Vec<Query> {
        // Valid queries across hop constraints, plus the three invalid
        // shapes (s == t, endpoint out of range, k == 0) scattered through
        // the batch so error slots land on every worker.
        let mut batch = Vec::new();
        for k in 1..=8u32 {
            batch.push(Query::new(S, T, k));
            batch.push(Query::new(A, B, k));
        }
        batch.push(Query::new(S, S, 3));
        batch.insert(5, Query::new(S, n + 7, 3));
        batch.insert(9, Query::new(S, T, 0));
        batch
    }

    /// Sequential reference: each query on a fresh workspace.
    fn sequential(eve: &Eve<'_>, batch: &[Query]) -> Vec<BatchResult> {
        batch.iter().map(|&q| eve.query(q)).collect()
    }

    /// A cached drain with a drain-local flight group and no deadlines.
    fn run_cached(
        executor: &BatchExecutor,
        cached: &CachedEve<'_, '_>,
        batch: &[Query],
    ) -> BatchOutcome {
        executor.run_cached_coalesced_with_deadlines(cached, &FlightGroup::new(), batch, &[])
    }

    #[test]
    fn parallel_matches_sequential_at_every_thread_count() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let batch = mixed_batch(g.vertex_count() as u32);
        let expected = sequential(&eve, &batch);
        for threads in [1usize, 2, 3, 4, 8] {
            let got = BatchExecutor::new(threads).run(&eve, &batch);
            assert_eq!(got.len(), expected.len());
            for (i, (g_slot, e_slot)) in got.iter().zip(&expected).enumerate() {
                match (g_slot, e_slot) {
                    (Ok(g_spg), Ok(e_spg)) => {
                        assert_eq!(g_spg.edges(), e_spg.edges(), "slot {i} threads {threads}");
                        assert_eq!(
                            g_spg.stats().upper_bound_edges,
                            e_spg.stats().upper_bound_edges
                        );
                    }
                    (Err(g_err), Err(e_err)) => {
                        assert_eq!(g_err, e_err, "slot {i} threads {threads}")
                    }
                    other => panic!("slot {i} threads {threads}: Ok/Err mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn stats_account_for_every_query() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let batch = mixed_batch(g.vertex_count() as u32);
        let outcome = BatchExecutor::new(4).run_detailed(&eve, &batch);
        let stats = &outcome.stats;
        assert_eq!(stats.queries(), batch.len());
        assert_eq!(stats.errors, 3, "exactly the three injected invalid slots");
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_thread.len(), 4);
        let per_thread_total: usize = stats.per_thread.iter().map(|t| t.answered + t.errors).sum();
        assert_eq!(per_thread_total, batch.len());
        // Workers claim whole units; at 4 workers the member cap splits the
        // 16 valid queries across several cohorts so no single indivisible
        // unit serializes the batch.
        let units: usize = stats.per_thread.iter().map(|t| t.units_claimed).sum();
        assert!(units >= 4, "at least the three singles plus one cohort");
        assert!(stats.phase1.cohorts >= 2, "member cap produced ≥ 2 cohorts");
        assert!(stats.phase1.phase1_shared <= 16);
        assert!(stats.phase1.distinct_endpoints <= stats.phase1.phase1_shared);
        assert!(stats.phase1.traversal.total_edge_scans() > 0);

        // A single worker plans one uncapped cohort: exact accounting.
        let solo = BatchExecutor::new(1).run_detailed(&eve, &batch).stats;
        assert_eq!(solo.phase1.cohorts, 1);
        assert_eq!(solo.phase1.phase1_shared, 16);
        assert_eq!(solo.phase1.distinct_endpoints, 2, "(S,T) and (A,B)");
        assert_eq!(solo.phase1.dedup_ratio(), Some(8.0));
        let solo_units: usize = solo.per_thread.iter().map(|t| t.units_claimed).sum();
        assert_eq!(solo_units, 4, "one cohort unit + three fallback singles");
        assert!(stats.peak_memory.peak_bytes() > 0);
        // Workers that answered at least one query retain workspace buffers.
        for worker in &stats.per_thread {
            if worker.answered > 0 {
                assert!(worker.workspace_retained_bytes > 0);
            }
        }
        assert!(stats.workspace_retained_bytes > 0);
    }

    #[test]
    fn per_query_path_plans_every_query_as_a_single() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let batch = mixed_batch(g.vertex_count() as u32);
        let outcome = BatchExecutor::new(4)
            .shared_phase1(false)
            .run_detailed(&eve, &batch);
        let stats = &outcome.stats;
        assert_eq!(stats.queries(), batch.len());
        assert_eq!(stats.errors, 3);
        let units: usize = stats.per_thread.iter().map(|t| t.units_claimed).sum();
        assert_eq!(units, batch.len(), "one single unit per slot");
        assert_eq!(stats.phase1, SharedPhase1Stats::default(), "sharing off");
        // And the slots agree with the shared path bit for bit.
        let shared = BatchExecutor::new(4).run(&eve, &batch);
        for (i, (single, with_sharing)) in outcome.results.iter().zip(&shared).enumerate() {
            match (single, with_sharing) {
                (Ok(a), Ok(b)) => assert_eq!(a.edges(), b.edges(), "slot {i}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "slot {i}"),
                other => panic!("slot {i}: Ok/Err mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_and_single_query() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let outcome = BatchExecutor::new(8).run_detailed(&eve, &[]);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.queries(), 0);
        assert_eq!(outcome.stats.threads, 1, "no workers beyond the work");

        let one = BatchExecutor::new(8).run(&eve, &[Query::new(S, T, 4)]);
        assert_eq!(one.len(), 1);
        assert_eq!(
            one[0].as_ref().unwrap().edges(),
            eve.query(Query::new(S, T, 4)).unwrap().edges()
        );
    }

    #[test]
    fn cached_runs_match_uncached_at_every_thread_count() {
        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        let eve = Eve::with_defaults(vg.graph());
        // Duplicate the mixed batch so hot keys repeat within one run.
        let mut batch = mixed_batch(vg.vertex_count() as u32);
        let original = batch.clone();
        batch.extend(original);
        let expected = sequential(&eve, &batch);

        for threads in [1usize, 2, 4, 8] {
            let outcome = run_cached(&BatchExecutor::new(threads), &cached, &batch);
            for (i, (got, exp)) in outcome.results.iter().zip(&expected).enumerate() {
                match (got, exp) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.edges(), b.edges(), "slot {i} threads {threads}");
                        assert_eq!(a.stats().upper_bound_edges, b.stats().upper_bound_edges);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "slot {i} threads {threads}"),
                    other => panic!("slot {i} threads {threads}: Ok/Err mismatch {other:?}"),
                }
            }
            // Valid slots partition into hits, computed misses and
            // coalesced duplicates; errors are none of the three.
            let stats = &outcome.stats;
            assert_eq!(
                stats.cache_hits + stats.cache_misses + stats.cache_coalesced,
                stats.answered
            );
            // Compute workers only ever see misses (the probe phase counts
            // hits globally), and their per-thread counters sum exactly.
            let (hits, misses): (usize, usize) = stats
                .per_thread
                .iter()
                .fold((0, 0), |(h, m), t| (h + t.cache_hits, m + t.cache_misses));
            assert_eq!(hits, 0);
            assert_eq!(misses, stats.cache_misses);
            // Per-slot sources line up with the result shape.
            assert_eq!(outcome.slot_sources.len(), batch.len());
            for (src, result) in outcome.slot_sources.iter().zip(&outcome.results) {
                assert_eq!(src.is_none(), result.is_err());
            }
        }

        // The cache stayed warm across thread counts: a rerun is all hits.
        let warm = run_cached(&BatchExecutor::new(4), &cached, &batch);
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(warm.stats.cache_hits, warm.stats.answered);
        assert_eq!(warm.stats.cache_hit_rate(), Some(1.0));
        assert_eq!(warm.stats.cache_evictions, 0, "budget was never exceeded");
    }

    #[test]
    fn uncached_runs_report_zero_cache_counters() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let outcome = BatchExecutor::new(2).run_detailed(&eve, &mixed_batch(8));
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(outcome.stats.cache_misses, 0);
        assert_eq!(outcome.stats.cache_coalesced, 0);
        assert_eq!(outcome.stats.cache_evictions, 0);
        assert_eq!(outcome.stats.cache_hit_rate(), None);
        assert!(outcome.slot_sources.is_empty(), "uncached runs carry none");
    }

    #[test]
    fn identical_cold_misses_compute_once_per_drain() {
        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        // 64 identical cold queries in one batch: the singleflight probe
        // collapses 63 of them onto the first slot's computation.
        let batch = vec![Query::new(S, T, 4); 64];
        let outcome = run_cached(&BatchExecutor::new(4), &cached, &batch);
        assert_eq!(outcome.stats.cache_misses, 1, "one compute");
        assert_eq!(outcome.stats.cache_coalesced, 63, "the rest fan in");
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(cache.stats().insertions, 1, "one publish");
        let reference = Eve::with_defaults(vg.graph())
            .query(Query::new(S, T, 4))
            .unwrap();
        for slot in &outcome.results {
            assert_eq!(slot.as_ref().unwrap().edges(), reference.edges());
        }
        for src in &outcome.slot_sources {
            assert!(src.is_some());
        }
        assert_eq!(
            outcome
                .slot_sources
                .iter()
                .filter(|s| **s == Some(CacheOutcome::Coalesced))
                .count(),
            63
        );
    }

    #[test]
    fn expired_deadlines_fail_their_own_slots_only() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let batch: Vec<Query> = (2..=8).map(|k| Query::new(S, T, k)).collect();
        let expected = sequential(&eve, &batch);
        // Each drain starts from a fresh cache, so every valid slot computes.
        let run = |shared: bool, deadlines: &[Option<Instant>]| {
            let vg = VersionedGraph::new(paper_example::figure1_graph());
            let cache = SpgCache::new(1 << 20);
            let cached = CachedEve::with_defaults(&vg, &cache);
            BatchExecutor::new(2)
                .shared_phase1(shared)
                .run_cached_coalesced_with_deadlines(
                    &cached,
                    &FlightGroup::new(),
                    &batch,
                    deadlines,
                )
        };
        // Slots 1 and 4 are already past their deadline; the rest unbounded.
        let mut deadlines: Vec<Option<Instant>> = vec![None; batch.len()];
        let expired = Instant::now();
        deadlines[1] = Some(expired);
        deadlines[4] = Some(expired);
        for shared in [true, false] {
            let outcome = run(shared, &deadlines);
            for (i, slot) in outcome.results.iter().enumerate() {
                if i == 1 || i == 4 {
                    assert_eq!(
                        slot.as_ref().unwrap_err(),
                        &QueryError::DeadlineExceeded,
                        "slot {i} shared={shared}"
                    );
                } else {
                    assert_eq!(
                        slot.as_ref().unwrap().edges(),
                        expected[i].as_ref().unwrap().edges(),
                        "slot {i} shared={shared}"
                    );
                }
            }
            assert_eq!(outcome.stats.errors, 2);
            assert_eq!(outcome.stats.panics_isolated, 0);

            // All members expired: with sharing on, the cohort's shared
            // traversal itself aborts (its budget is the latest member
            // deadline); either way every slot reports the deadline
            // deterministically, the clamp-aliased joiner included.
            let all_expired: Vec<Option<Instant>> = vec![Some(expired); batch.len()];
            let outcome = run(shared, &all_expired);
            for slot in &outcome.results {
                assert_eq!(slot.as_ref().unwrap_err(), &QueryError::DeadlineExceeded);
            }
        }
    }

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(BatchExecutor::new(0).threads(), 1, "zero threads clamps");
        assert!(BatchExecutor::with_available_parallelism().threads() >= 1);
        assert_eq!(
            BatchExecutor::default().threads(),
            BatchExecutor::with_available_parallelism().threads()
        );
    }
}
