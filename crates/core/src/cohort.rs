//! Cohort planning and execution for the batch-shared MS-BFS Phase 1.
//!
//! A batch's dominant cost is Phase 1 (hop-bounded distance search), and a
//! batch's queries repeat a lot of that traversal — in fraud-shaped
//! workloads most queries fan out from a handful of sources into a handful
//! of targets. [`CohortPlan`] groups a batch into **cohorts** of queries
//! whose Phase-1 work is computed by a single bit-parallel bidirectional
//! [`MsBfsEngine`](spg_graph::MsBfsEngine) traversal: one lane per
//! **distinct `(s, t)` endpoint pair** (up to [`LaneWidth::lanes`] — 256
//! with the default [`LaneWidth::W256`] — per cohort), so hub-skewed
//! batches pay once per distinct pair no matter how many queries repeat it.
//!
//! Lanes are keyed by the *pair* rather than the bare source/target because
//! EVE's distances are endpoint-avoiding (`Δ(s, v)` never routes through
//! `t`): two queries from the same source but different targets need
//! different avoid vertices, and merging them could change answers. A
//! lane's hop budget is the maximum clamped `k` among the queries that
//! share its pair; each member filters the (possibly deeper) shared raw
//! distances down to its own `k` when materialising its workspace, which
//! keeps every answer bit-identical to a per-query run.
//!
//! Three scheduling decisions shape the plan:
//!
//! * **Endpoint-locality order.** Valid queries are planned in sorted order
//!   — grouped by their *anchor* (the endpoint occurring in the most
//!   distinct pairs of the batch, i.e. the hub), anchor groups ordered by a
//!   hub hash — instead of arrival order. An adversarially interleaved
//!   batch (hub A, hub B, hub A, …) would otherwise fragment into
//!   half-empty cohorts mixing unrelated regions; after the sort each
//!   cohort's lanes share endpoints and traverse one region. Output slots
//!   are addressed by member index throughout, so planning order never
//!   affects where answers land.
//! * **Cost-based singleton fallback.** Sharing has to pay for itself: a
//!   shared traversal expands the *union* of its lanes' frontiers, so a
//!   cohort of pairwise-disjoint endpoint pairs does the same traversal
//!   work as per-query runs *plus* multi-word bookkeeping — the 0.93×
//!   uniform-batch regression of the first cohort engine. A sealed cohort
//!   therefore estimates whether sharing wins — repeated pairs (member
//!   dedup) always do; otherwise its lanes must overlap endpoints enough
//!   (≤ 1.5 distinct endpoints per pair on average) — and dissolves into
//!   per-query [`Unit::Single`]s when it cannot.
//! * **Worker caps.** Cohorts are indivisible scheduling units, so plans
//!   for multi-worker executors cap members per cohort to keep every
//!   worker busy (see [`CohortPlan::build`]).
//!
//! Invalid queries and queries that end up alone in their cohort skip the
//! shared machinery entirely: the plan emits them as [`Unit::Single`] and
//! the executor answers them on the classic per-query
//! [`Eve::query_with`](crate::Eve::query_with) path.

use std::time::Instant;

use spg_graph::hash::FxHashMap;
use spg_graph::{
    DiGraph, Direction, LaneBlock, Lanes256, Lanes64, MsBfsEngine, MsBfsLane, QueryBudget,
};

use crate::eve::Eve;
use crate::executor::{BatchResult, ThreadBatchStats};
use crate::query::{Query, QueryError};
use crate::workspace::QueryWorkspace;

/// Maximum lanes (distinct endpoint pairs) a single cohort may hold —
/// the lane-block width of the MS-BFS engine that runs it. Executors pick
/// the width via [`crate::BatchExecutor::phase1_lanes`]; the planner packs
/// up to this many pairs per cohort and `run_cohort` runs each cohort on
/// the 64-lane engine whenever it fits, so a 40-pair cohort planned under
/// [`LaneWidth::W256`] still runs on the cheap single-word engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneWidth {
    /// One `u64` word per vertex: up to 64 pairs per cohort.
    W64,
    /// Four words: up to 256 pairs per cohort (the default).
    #[default]
    W256,
}

impl LaneWidth {
    /// Lane capacity of a cohort planned at this width.
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::W64 => Lanes64::LANES,
            LaneWidth::W256 => Lanes256::LANES,
        }
    }
}

/// One cohort member: its slot in the batch, its validated + clamped query,
/// and the lane its endpoint pair maps to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CohortMember {
    pub index: usize,
    pub query: Query,
    pub lane: u32,
}

/// A group of ≥ 2 queries whose Phase 1 runs as one bidirectional MS-BFS
/// traversal.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cohort {
    /// One lane per distinct `(s, t)` pair; `depth` = max clamped `k`
    /// among the pair's members.
    pub lanes: Vec<MsBfsLane>,
    /// Member queries, ordered by `(lane, k)` once sealed.
    pub members: Vec<CohortMember>,
}

/// One schedulable unit of a batch.
#[derive(Debug, Clone)]
pub(crate) enum Unit {
    /// A shared-Phase-1 cohort.
    Cohort(Cohort),
    /// A query answered on the per-query path: invalid (fails validation
    /// identically to the sequential run), alone in its cohort, or part of
    /// a cohort the cost model dissolved.
    Single(usize),
}

/// The cohort decomposition of one batch (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct CohortPlan {
    pub units: Vec<Unit>,
}

/// Deterministic hub hash used to order anchor groups: same multiplier as
/// the workspace Fx hasher, so anchor groups interleave pseudo-randomly
/// instead of by vertex id (consecutive hub ids would otherwise cluster
/// deep regions into the same cohorts).
fn hub_hash(v: u32) -> u64 {
    (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl CohortPlan {
    /// Groups `queries` into cohorts: invalid queries fall out as
    /// [`Unit::Single`] first, valid ones are ordered by endpoint locality
    /// (see the module docs) and then packed linearly — distinct endpoint
    /// pairs fill the current cohort's lanes until all `width.lanes()` are
    /// taken, then a new cohort opens. Slot order is preserved through the
    /// member indices.
    ///
    /// `parallel_units` is the number of workers that should stay busy.
    /// Cohorts are indivisible scheduling units, so without a cap a
    /// fraud-ring batch (few distinct pairs) would collapse into a single
    /// cohort and serialize the whole batch onto one worker. With
    /// `parallel_units > 1` the member count per cohort is capped at about
    /// `len / (2 × parallel_units)`, trading some traversal dedup (a pair
    /// recurring across cohorts is traversed once per cohort) for at least
    /// two units per worker; a single worker gets the uncapped plan and
    /// the maximum dedup.
    pub fn build(
        graph: &DiGraph,
        queries: &[Query],
        parallel_units: usize,
        width: LaneWidth,
    ) -> CohortPlan {
        let member_cap = if parallel_units <= 1 {
            usize::MAX
        } else {
            queries.len().div_ceil(parallel_units * 2).max(2)
        };
        let lane_cap = width.lanes();
        let mut plan = CohortPlan::default();

        // Validation pass: invalid queries fail identically to the
        // sequential run and never join a cohort.
        let mut valid: Vec<(usize, Query)> = Vec::with_capacity(queries.len());
        for (index, query) in queries.iter().enumerate() {
            if query.validate(graph).is_err() {
                plan.units.push(Unit::Single(index));
            } else {
                valid.push((index, query.clamped_to(graph)));
            }
        }

        // Endpoint-locality order: count how many *distinct* pairs each
        // vertex anchors, pick each query's higher-frequency endpoint as
        // its anchor (source on ties) and sort anchor groups by hub hash.
        // Repeated (s, t, k) land adjacent, which also maximises the
        // run-time distance reuse between identical members.
        let mut pair_seen: FxHashMap<(u32, u32), ()> = FxHashMap::default();
        let mut endpoint_freq: FxHashMap<u32, u32> = FxHashMap::default();
        for &(_, q) in &valid {
            if pair_seen.insert((q.source, q.target), ()).is_none() {
                *endpoint_freq.entry(q.source).or_insert(0) += 1;
                *endpoint_freq.entry(q.target).or_insert(0) += 1;
            }
        }
        let freq = |v: u32| endpoint_freq.get(&v).copied().unwrap_or(0);
        valid.sort_by_key(|&(index, q)| {
            let anchor = if freq(q.target) > freq(q.source) {
                q.target
            } else {
                q.source
            };
            (hub_hash(anchor), anchor, q.source, q.target, q.k, index)
        });

        // Linear fill in locality order.
        let mut open = Cohort::default();
        let mut pair_lane: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for (index, query) in valid {
            let key = (query.source, query.target);
            let lane = match pair_lane.get(&key) {
                Some(&lane) => {
                    // A repeated pair deepens its lane to the largest k.
                    let slot = &mut open.lanes[lane as usize];
                    slot.depth = slot.depth.max(query.k);
                    lane
                }
                None => {
                    if open.lanes.len() == lane_cap {
                        plan.close(&mut open, &mut pair_lane);
                    }
                    let lane = open.lanes.len() as u32;
                    open.lanes.push(MsBfsLane {
                        source: query.source,
                        target: query.target,
                        depth: query.k,
                    });
                    pair_lane.insert(key, lane);
                    lane
                }
            };
            open.members.push(CohortMember { index, query, lane });
            if open.members.len() >= member_cap {
                plan.close(&mut open, &mut pair_lane);
            }
        }
        plan.close(&mut open, &mut pair_lane);
        plan
    }

    /// The plan with sharing off: every query of a `len`-query batch is its
    /// own [`Unit::Single`], in slot order.
    pub fn singles(len: usize) -> CohortPlan {
        CohortPlan {
            units: (0..len).map(Unit::Single).collect(),
        }
    }

    /// Seals the open cohort: empty ones vanish, singletons fall back to the
    /// per-query path (sharing a traversal with itself buys nothing), and a
    /// cohort the cost model rejects ([`sharing_pays`]) dissolves into
    /// per-query units. Members of surviving cohorts are ordered by
    /// `(lane, k)` so duplicate `(s, t, k)` triples run back to back and
    /// [`run_cohort`] can reuse the previous member's materialised
    /// distances + compacted space (output slots are addressed by member
    /// index, so member execution order is free to choose).
    fn close(&mut self, open: &mut Cohort, pair_lane: &mut FxHashMap<(u32, u32), u32>) {
        pair_lane.clear();
        let mut cohort = std::mem::take(open);
        match cohort.members.len() {
            0 => {}
            1 => self.units.push(Unit::Single(cohort.members[0].index)),
            _ if !sharing_pays(&cohort) => {
                for member in &cohort.members {
                    self.units.push(Unit::Single(member.index));
                }
            }
            _ => {
                cohort.members.sort_by_key(|m| (m.lane, m.query.k));
                self.units.push(Unit::Cohort(cohort));
            }
        }
    }
}

/// Cost model for keeping a sealed cohort shared (see the module docs).
///
/// A shared traversal's frontier is the union of its lanes' frontiers, so
/// the shared cost scales with how much of the batch's endpoint region each
/// sweep covers, while the per-query cost scales with the member count.
/// Two ways sharing wins:
///
/// * **Dedup** — more members than lanes means repeated pairs whose
///   traversal (and materialised distances, via the reuse path) are paid
///   once instead of per member. Always worth it.
/// * **Overlap** — distinct pairs that share endpoints traverse
///   overlapping regions; the union frontier is much smaller than the sum
///   of the parts. The proxy: at most 1.5 distinct endpoint vertices per
///   lane on average (`2 × pairs` endpoints would mean fully disjoint
///   pairs — the regression case where sharing only adds wide-word
///   bookkeeping).
fn sharing_pays(cohort: &Cohort) -> bool {
    if cohort.members.len() > cohort.lanes.len() {
        return true;
    }
    let mut endpoints: Vec<u32> = cohort
        .lanes
        .iter()
        .flat_map(|lane| [lane.source, lane.target])
        .collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints.len() * 2 <= cohort.lanes.len() * 3
}

/// Executes one cohort on a worker's private workspace: one bidirectional
/// MS-BFS traversal (forward from the distinct sources, backward from the
/// distinct targets, avoid vertices per lane), then phases 1b–3 per member
/// on the lane's materialised distances. Cohorts of up to 64 lanes run on
/// the workspace's 64-lane engine, wider ones on its 256-lane engine.
/// Results are handed to `publish` in member order; `stats` accumulates the
/// shared-Phase-1 counters and the usual per-slot bookkeeping.
/// `deadlines` is indexed by batch slot (may be empty: no deadlines). The
/// shared traversal is work every member needs, so it is only abandoned once
/// **every** member's deadline has passed (the cohort-level budget is the
/// *latest* member deadline, or unlimited if any member is unbounded); an
/// abandoned traversal fails all members with
/// [`QueryError::DeadlineExceeded`]. Phases 1b–3 then run under each
/// member's own deadline.
pub(crate) fn run_cohort(
    eve: &Eve<'_>,
    ws: &mut QueryWorkspace,
    cohort: &Cohort,
    deadlines: &[Option<Instant>],
    stats: &mut ThreadBatchStats,
    publish: impl FnMut(usize, BatchResult),
) {
    // Take the engine out of the workspace so its results can be read
    // while the rest of the workspace runs phases 1b–3 mutably.
    if cohort.lanes.len() <= Lanes64::LANES {
        let mut engine = std::mem::take(&mut ws.msbfs64);
        run_cohort_on(eve, ws, &mut engine, cohort, deadlines, stats, publish);
        ws.msbfs64 = engine;
    } else {
        let mut engine = std::mem::take(&mut ws.msbfs256);
        run_cohort_on(eve, ws, &mut engine, cohort, deadlines, stats, publish);
        ws.msbfs256 = engine;
    }
}

/// [`run_cohort`] monomorphised over one lane-block width. Only the
/// traversal and the thin per-member distance loader are generic; phases
/// 1b–3 behind [`Eve::query_shared`] are compiled once.
fn run_cohort_on<B: LaneBlock>(
    eve: &Eve<'_>,
    ws: &mut QueryWorkspace,
    engine: &mut MsBfsEngine<B>,
    cohort: &Cohort,
    deadlines: &[Option<Instant>],
    stats: &mut ThreadBatchStats,
    mut publish: impl FnMut(usize, BatchResult),
) {
    let deadline_at = |index: usize| deadlines.get(index).copied().flatten();
    let mut cohort_deadline: Option<Instant> = None;
    let mut all_bounded = true;
    for member in &cohort.members {
        match deadline_at(member.index) {
            Some(d) => cohort_deadline = Some(cohort_deadline.map_or(d, |c| c.max(d))),
            None => {
                all_bounded = false;
                break;
            }
        }
    }
    let engine_budget = match cohort_deadline.filter(|_| all_bounded) {
        Some(d) => QueryBudget::with_deadline(d),
        None => QueryBudget::unlimited(),
    };

    let start = Instant::now(); // spg-analyze: allow(hot-loop) — phase-boundary timer (cohort MS-BFS entry)
    let traversal = engine.run_budgeted(eve.graph(), &cohort.lanes, &engine_budget);
    stats.phase1.traversal_time += start.elapsed();
    for dir in [Direction::Forward, Direction::Backward] {
        engine
            .side_stats(dir)
            .accumulate_into(&mut stats.phase1.traversal, dir);
    }
    stats.phase1.cohorts += 1;
    stats.phase1.distinct_endpoints += cohort.lanes.len();

    if let Err(exhausted) = traversal {
        // The abort restored the engine's between-runs invariants, so the
        // workspace stays reusable; every member is past its deadline.
        let err = QueryError::from(exhausted);
        for member in &cohort.members {
            stats.errors += 1;
            publish(member.index, Err(err));
        }
        return;
    }

    let mut prev: Option<(u32, u32)> = None;
    for member in &cohort.members {
        let key = (member.lane, member.query.k);
        let budget = match deadline_at(member.index) {
            Some(d) => QueryBudget::with_deadline(d),
            None => QueryBudget::unlimited(),
        };
        let result = if prev == Some(key) {
            // Same (s, t, k) as the member just answered: the workspace
            // still holds its Phase-1a output verbatim.
            stats.phase1.distance_reuses += 1;
            eve.query_shared_reused(ws, member.query, &budget)
        } else {
            eve.query_shared(ws, member.query, engine, member.lane as usize, &budget)
        };
        // Only a member that ran to completion is guaranteed to leave its
        // own Phase-1a output behind for the next identical member; after a
        // cancellation the next member re-materialises from the engine.
        prev = if result.is_ok() { Some(key) } else { None };
        stats.phase1.phase1_shared += 1;
        match &result {
            Ok(spg) => {
                stats.answered += 1;
                stats.peak_memory.merge_max(&spg.stats().memory);
            }
            Err(_) => stats.errors += 1,
        }
        publish(member.index, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{self, names::*};

    fn plan_for(queries: &[Query]) -> CohortPlan {
        CohortPlan::build(
            &paper_example::figure1_graph(),
            queries,
            1,
            LaneWidth::default(),
        )
    }

    #[test]
    fn lane_width_capacities() {
        assert_eq!(LaneWidth::W64.lanes(), 64);
        assert_eq!(LaneWidth::W256.lanes(), 256);
        assert_eq!(LaneWidth::default(), LaneWidth::W256);
    }

    #[test]
    fn duplicate_pairs_share_a_lane_with_the_deepest_k() {
        let plan = plan_for(&[
            Query::new(S, T, 2),
            Query::new(A, B, 3),
            Query::new(S, T, 6),
            Query::new(S, T, 4),
        ]);
        assert_eq!(plan.units.len(), 1);
        let Unit::Cohort(cohort) = &plan.units[0] else {
            panic!("expected a cohort");
        };
        assert_eq!(cohort.lanes.len(), 2, "two distinct pairs");
        assert_eq!(cohort.members.len(), 4);
        let st_members: Vec<&CohortMember> = cohort
            .members
            .iter()
            .filter(|m| m.query.source == S && m.query.target == T)
            .collect();
        assert_eq!(st_members.len(), 3);
        let st_lane = st_members[0].lane as usize;
        assert_eq!(cohort.lanes[st_lane].depth, 6, "deepest k wins");
        assert_eq!(cohort.lanes[st_lane].source, S);
        assert_eq!(cohort.lanes[st_lane].target, T);
    }

    #[test]
    fn same_source_different_target_gets_its_own_lane() {
        // Endpoint-avoidance makes (s, t1) and (s, t2) different lanes.
        let plan = plan_for(&[Query::new(S, T, 4), Query::new(S, B, 4)]);
        let Unit::Cohort(cohort) = &plan.units[0] else {
            panic!("expected a cohort");
        };
        assert_eq!(cohort.lanes.len(), 2);
    }

    #[test]
    fn invalid_and_singleton_queries_fall_back() {
        let plan = plan_for(&[
            Query::new(S, S, 3), // invalid: s == t
            Query::new(S, T, 4), // valid but alone -> singleton fallback
        ]);
        assert_eq!(plan.units.len(), 2);
        assert!(matches!(plan.units[0], Unit::Single(0)));
        assert!(matches!(plan.units[1], Unit::Single(1)));
    }

    #[test]
    fn clamp_is_applied_before_lane_depths() {
        let plan = plan_for(&[Query::new(S, T, u32::MAX), Query::new(S, T, 3)]);
        let Unit::Cohort(cohort) = &plan.units[0] else {
            panic!("expected a cohort");
        };
        // Figure 1 has 8 vertices, so u32::MAX clamps to 7.
        assert_eq!(cohort.lanes[0].depth, 7);
        // Members are (lane, k)-sorted, so the clamped query comes second.
        assert_eq!(
            cohort.members[1].query.k, 7,
            "member query records the clamp"
        );
        assert_eq!(cohort.members[0].query.k, 3);
    }

    #[test]
    fn member_cap_splits_single_pair_batches_across_workers() {
        // 40 queries over ONE pair would be a single indivisible cohort —
        // useless to 4 workers. The capped plan must produce at least two
        // units per worker, each still a shared cohort.
        let g = paper_example::figure1_graph();
        let queries: Vec<Query> = (0..40).map(|i| Query::new(S, T, 2 + (i % 5))).collect();
        let plan = CohortPlan::build(&g, &queries, 4, LaneWidth::default());
        let cohorts = plan
            .units
            .iter()
            .filter(|u| matches!(u, Unit::Cohort(_)))
            .count();
        assert!(cohorts >= 8, "4 workers need ≥ 8 units, got {cohorts}");
        let covered: usize = plan
            .units
            .iter()
            .map(|u| match u {
                Unit::Cohort(c) => c.members.len(),
                Unit::Single(_) => 1,
            })
            .sum();
        assert_eq!(covered, 40);
        // A single worker gets one big cohort (maximum dedup).
        let solo = CohortPlan::build(&g, &queries, 1, LaneWidth::default());
        assert_eq!(solo.units.len(), 1);
    }

    #[test]
    fn lane_capacity_is_width_driven() {
        let g = spg_graph::generators::gnm_random(200, 1200, 3);
        // 70 distinct pairs: (0, 1), (0, 2), ... all valid on 200 vertices.
        let queries: Vec<Query> = (0..70).map(|i| Query::new(0, i + 1, 4)).collect();
        // A 64-lane plan splits them across two cohorts.
        let plan = CohortPlan::build(&g, &queries, 1, LaneWidth::W64);
        let cohorts: Vec<&Cohort> = plan
            .units
            .iter()
            .filter_map(|u| match u {
                Unit::Cohort(c) => Some(c),
                Unit::Single(_) => None,
            })
            .collect();
        assert_eq!(cohorts.len(), 2);
        assert_eq!(cohorts[0].lanes.len(), LaneWidth::W64.lanes());
        assert_eq!(cohorts[1].lanes.len(), 6);
        let covered: usize = cohorts.iter().map(|c| c.members.len()).sum();
        assert_eq!(covered, 70);
        // The same batch planned at 256 lanes shares ONE traversal.
        let wide = CohortPlan::build(&g, &queries, 1, LaneWidth::W256);
        assert_eq!(wide.units.len(), 1);
        let Unit::Cohort(cohort) = &wide.units[0] else {
            panic!("expected one wide cohort");
        };
        assert_eq!(cohort.lanes.len(), 70);
        assert_eq!(cohort.members.len(), 70);
    }

    #[test]
    fn adversarially_interleaved_hubs_are_regrouped_by_locality() {
        // Two hub sources, 64 distinct targets each, interleaved A B A B …
        // Arrival-order packing would fill every cohort with a half-and-half
        // mix of both hubs' regions; the locality sort must regroup so each
        // 64-lane cohort is single-hub.
        let g = spg_graph::generators::gnm_random(200, 1200, 3);
        let mut queries = Vec::new();
        for i in 0..64u32 {
            queries.push(Query::new(0, 2 + i, 4));
            queries.push(Query::new(1, 66 + i, 4));
        }
        let plan = CohortPlan::build(&g, &queries, 1, LaneWidth::W64);
        let cohorts: Vec<&Cohort> = plan
            .units
            .iter()
            .filter_map(|u| match u {
                Unit::Cohort(c) => Some(c),
                Unit::Single(_) => None,
            })
            .collect();
        assert_eq!(cohorts.len(), 2);
        for cohort in &cohorts {
            assert_eq!(cohort.lanes.len(), 64, "cohorts reach full lane fill");
            let hub = cohort.lanes[0].source;
            assert!(
                cohort.lanes.iter().all(|lane| lane.source == hub),
                "every lane of a cohort shares its hub source"
            );
        }
        // Slot coverage is untouched by the reordering.
        let covered: usize = cohorts.iter().map(|c| c.members.len()).sum();
        assert_eq!(covered, 128);
    }

    #[test]
    fn disjoint_uniform_pairs_fall_back_to_singles() {
        // 20 pairwise-disjoint endpoint pairs: sharing would traverse the
        // union of 20 unrelated regions per sweep — the uniform-batch
        // regression. The cost model must dissolve the cohort.
        let g = spg_graph::generators::gnm_random(100, 600, 5);
        let queries: Vec<Query> = (0..20).map(|i| Query::new(2 * i, 2 * i + 1, 4)).collect();
        let plan = CohortPlan::build(&g, &queries, 1, LaneWidth::default());
        assert_eq!(plan.units.len(), 20);
        assert!(plan.units.iter().all(|u| matches!(u, Unit::Single(_))));
        // The same pairs with repeats (dedup) stay shared.
        let mut doubled = queries.clone();
        doubled.extend(queries.iter().copied());
        let plan = CohortPlan::build(&g, &doubled, 1, LaneWidth::default());
        assert!(
            plan.units.iter().any(|u| matches!(u, Unit::Cohort(_))),
            "repeated pairs make sharing pay"
        );
    }
}
