//! Differential property tests for the bit-parallel MS-BFS Phase-1 engine.
//!
//! The contract under test: for every lane `(s, t, k)` of a cohort — at any
//! lane count up to the block width, with duplicated and overlapping
//! endpoints, unreachable pairs, `k` from 0 past `n`, and lane hop budgets
//! *deeper* than the query's `k` (a shared lane runs to the maximum `k` of
//! the queries it serves) — the search-space distances materialised from the
//! shared traversal are identical to the per-query [`FlatDistances`] engine
//! under **all three** [`DistanceStrategy`] variants, and to an independent
//! oracle of two plain BFS passes. The sweep covers both lane-block widths
//! (64- and 256-lane cohorts) under every [`FrontierMode`]: the forced modes
//! reach both expansion kinds on any graph, and the direction-optimizing
//! mode runs the production α/β hysteresis. This is the property that makes
//! cohort-shared batch answers bit-identical to per-query answers.
//!
//! A separate executor-level test covers the widening payoff end to end: a
//! batch with more than 64 distinct endpoint pairs that the old engine had
//! to split across cohorts now runs as a single 256-lane cohort, with
//! answers bit-identical to the per-query path at 1, 2 and 4 threads.

use proptest::collection::vec;
use proptest::prelude::*;

use hop_spg::eve::{BatchExecutor, Eve, LaneWidth, Query};
use hop_spg::graph::generators::gnm_random;
use hop_spg::graph::traversal::{BfsOptions, DistanceStrategy};
use hop_spg::graph::{
    bfs_distances_from, bfs_distances_to, DiGraph, Direction, FlatDistances, FrontierMode,
    LaneBlock, Lanes256, Lanes64, MsBfsEngine, MsBfsLane, INF_DIST,
};

/// A lane spec: endpoints, the query hop budget `k`, and how much deeper
/// the shared traversal runs than the query needs.
#[derive(Debug, Clone, Copy)]
struct LaneSpec {
    s: u32,
    t: u32,
    k: u32,
    extra_depth: u32,
}

fn graph_and_lanes() -> impl Strategy<Value = (DiGraph, Vec<LaneSpec>)> {
    (4usize..20).prop_flat_map(|n| {
        let edges = vec((0..n as u32, 0..n as u32), 0..(4 * n));
        // Endpoints from a *small* sub-range so lanes duplicate and overlap;
        // k runs from 0 (records only the start) past n (clamp regime).
        let lanes = vec(
            (0..n as u32, 0..n as u32, 0u32..(n as u32 + 3), 0u32..3),
            1..20,
        );
        (edges, lanes).prop_map(move |(edges, lane_tuples)| {
            let g = DiGraph::from_edges(n, edges);
            let lanes: Vec<LaneSpec> = lane_tuples
                .into_iter()
                .filter(|&(s, t, _, _)| s != t)
                .map(|(s, t, k, extra_depth)| LaneSpec {
                    s,
                    t,
                    k,
                    extra_depth,
                })
                .collect();
            (g, lanes)
        })
    })
}

/// Materialises lane `lane` of an engine run into a loaded
/// [`FlatDistances`] for query budget `k` — exactly what the cohort
/// executor does per member.
fn load_lane<B: LaneBlock>(
    engine: &MsBfsEngine<B>,
    lane: usize,
    n: usize,
    spec: LaneSpec,
) -> FlatDistances {
    let mut fd = FlatDistances::new();
    fd.begin_load(n, spec.s, spec.t, spec.k);
    engine.for_each_lane_distance(Direction::Forward, lane, |v, d| fd.push_forward(v, d));
    engine.for_each_lane_distance(Direction::Backward, lane, |v, d| fd.push_backward(v, d));
    fd
}

/// `(Δ(s, v), Δ(v, t))` per vertex inside the search space of `⟨s, t, k⟩`,
/// `(INF_DIST, INF_DIST)` outside it: two plain BFS passes, each avoiding
/// the other endpoint, filtered by `Δ(s,v) + Δ(v,t) ≤ k`.
fn bfs_oracle(g: &DiGraph, s: u32, t: u32, k: u32) -> Vec<(u32, u32)> {
    let from_s = bfs_distances_from(g, s, BfsOptions::bounded_avoiding(k, t));
    let to_t = bfs_distances_to(g, t, BfsOptions::bounded_avoiding(k, s));
    g.vertices()
        .map(|v| match (from_s.get(&v), to_t.get(&v)) {
            (Some(&df), Some(&db)) if df + db <= k => (df, db),
            _ => (INF_DIST, INF_DIST),
        })
        .collect()
}

/// Per-query reference distances for every lane, cross-checked across all
/// [`DistanceStrategy`] variants and the BFS oracle so any engine
/// disagreement below is unambiguous.
fn reference_distances(g: &DiGraph, lanes: &[LaneSpec]) -> Vec<FlatDistances> {
    let mut expected = Vec::with_capacity(lanes.len());
    let mut scratch = FlatDistances::new();
    for &spec in lanes {
        let mut fd = FlatDistances::new();
        fd.compute(g, spec.s, spec.t, spec.k, DistanceStrategy::Single);
        for strategy in DistanceStrategy::ALL {
            scratch.compute(g, spec.s, spec.t, spec.k, strategy);
            assert_eq!(
                fd.is_feasible(),
                scratch.is_feasible(),
                "strategy {} disagrees on feasibility for {spec:?}",
                strategy.name()
            );
            for v in g.vertices() {
                assert_eq!(fd.dist_from_s(v), scratch.dist_from_s(v));
                assert_eq!(fd.dist_to_t(v), scratch.dist_to_t(v));
            }
        }
        let oracle = bfs_oracle(g, spec.s, spec.t, spec.k);
        for v in g.vertices() {
            assert_eq!(
                (fd.dist_from_s(v), fd.dist_to_t(v)),
                oracle[v as usize],
                "oracle disagrees at v {v} for {spec:?}"
            );
        }
        expected.push(fd);
    }
    expected
}

/// Runs one engine configuration at block width `B` and checks every lane's
/// materialised distances against the per-query reference.
fn check_width<B: LaneBlock>(
    g: &DiGraph,
    lanes: &[LaneSpec],
    expected: &[FlatDistances],
    mode: FrontierMode,
) {
    let n = g.vertex_count();
    let engine_lanes: Vec<MsBfsLane> = lanes
        .iter()
        .map(|l| MsBfsLane {
            source: l.s,
            target: l.t,
            depth: l.k + l.extra_depth,
        })
        .collect();
    let mut engine = MsBfsEngine::<B>::new();
    engine.set_mode(mode);
    engine.run(g, &engine_lanes);
    for (lane, (&spec, exp)) in lanes.iter().zip(expected).enumerate() {
        let loaded = load_lane(&engine, lane, n, spec);
        assert_eq!(
            loaded.is_feasible(),
            exp.is_feasible(),
            "feasibility: {} lanes {mode:?} lane {lane} {spec:?}",
            B::LANES
        );
        for v in g.vertices() {
            assert_eq!(
                loaded.dist_from_s(v),
                exp.dist_from_s(v),
                "dist_from_s: {} lanes {mode:?} lane {lane} v {v} {spec:?}",
                B::LANES
            );
            assert_eq!(
                loaded.dist_to_t(v),
                exp.dist_to_t(v),
                "dist_to_t: {} lanes {mode:?} lane {lane} v {v} {spec:?}",
                B::LANES
            );
            assert_eq!(loaded.in_search_space(v), exp.in_search_space(v));
        }
    }
}

/// Frontier modes the width sweep exercises.
const MODES: [FrontierMode; 3] = [
    FrontierMode::DirectionOptimizing,
    FrontierMode::TopDownOnly,
    FrontierMode::BottomUpOnly,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Shared-lane distances ≡ `FlatDistances` ≡ the BFS oracle for both
    /// lane-block widths and every frontier mode, every vertex.
    #[test]
    fn msbfs_matches_per_query_engines((g, lanes) in graph_and_lanes()) {
        if lanes.is_empty() {
            return Ok(None); // vendored-proptest case rejection
        }
        let expected = reference_distances(&g, &lanes);
        for mode in MODES {
            check_width::<Lanes64>(&g, &lanes, &expected, mode);
            check_width::<Lanes256>(&g, &lanes, &expected, mode);
        }
    }

    /// A duplicate (s, t) pair served by lanes of different hop budgets —
    /// the cohort dedup case, where the deepest k wins the lane — yields
    /// the same *filtered* distances at the smallest budget from every
    /// lane, all equal to the per-query engine. Checked at both block
    /// widths.
    #[test]
    fn deeper_duplicate_lanes_serve_shallower_queries(
        (g, lanes) in graph_and_lanes(),
        dup in 0usize..8,
    ) {
        if lanes.is_empty() {
            return Ok(None); // vendored-proptest case rejection
        }
        let spec = lanes[dup % lanes.len()];
        let n = g.vertex_count();
        // The same pair three times with different budgets: k, k + 1, 2k.
        let budgets = [spec.k, spec.k + 1, spec.k.saturating_mul(2).max(spec.k)];
        let engine_lanes: Vec<MsBfsLane> = budgets
            .iter()
            .map(|&depth| MsBfsLane { source: spec.s, target: spec.t, depth })
            .collect();
        let mut narrow = MsBfsEngine::<Lanes64>::new();
        narrow.run(&g, &engine_lanes);
        let mut wide = MsBfsEngine::<Lanes256>::new();
        wide.run(&g, &engine_lanes);
        let mut per_query = FlatDistances::new();
        per_query.compute(&g, spec.s, spec.t, spec.k, DistanceStrategy::Single);
        for (lane, &budget) in budgets.iter().enumerate() {
            for loaded in [
                load_lane(&narrow, lane, n, LaneSpec { k: spec.k, ..spec }),
                load_lane(&wide, lane, n, LaneSpec { k: spec.k, ..spec }),
            ] {
                for v in g.vertices() {
                    prop_assert!(
                        loaded.dist_from_s(v) == per_query.dist_from_s(v),
                        "lane {} (budget {}) v {}: {} != {}",
                        lane, budget, v,
                        loaded.dist_from_s(v), per_query.dist_from_s(v)
                    );
                    prop_assert!(
                        loaded.dist_to_t(v) == per_query.dist_to_t(v),
                        "lane {} (budget {}) v {} backward",
                        lane, budget, v
                    );
                }
            }
        }
    }
}

/// A batch with more than 64 distinct endpoint pairs sharing one source:
/// one 64-lane cohort cannot hold it (the solo plan splits it in two), one
/// 256-lane cohort runs it in a single traversal — and both widths'
/// answers are bit-identical to the per-query path at 1, 2 and 4 threads.
#[test]
fn wide_cohorts_match_per_query_at_every_thread_count() {
    let g = gnm_random(200, 1_200, 3);
    // 100 distinct pairs fanning out of vertex 0 at alternating hop
    // budgets; unreachable targets are fine (the answer is empty, not an
    // error) — the lane still occupies a cohort slot.
    let batch: Vec<Query> = (1u32..=100)
        .map(|t| Query::new(0, t, 4 + (t % 2) * 2))
        .collect();

    let eve = Eve::with_defaults(&g);
    let per_query = BatchExecutor::new(1).shared_phase1(false);
    let expected: Vec<Vec<(u32, u32)>> = per_query
        .run(&eve, &batch)
        .into_iter()
        .map(|slot| slot.expect("valid queries").edges().to_vec())
        .collect();

    // Solo plans have no member cap: the cohort count is exactly the
    // lane-capacity split.
    let narrow = BatchExecutor::new(1).phase1_lanes(LaneWidth::W64);
    let narrow_outcome = narrow.run_detailed(&eve, &batch);
    assert_eq!(
        narrow_outcome.stats.phase1.cohorts, 2,
        "100 pairs must split across two 64-lane cohorts"
    );
    let wide = BatchExecutor::new(1).phase1_lanes(LaneWidth::W256);
    let wide_outcome = wide.run_detailed(&eve, &batch);
    assert_eq!(
        wide_outcome.stats.phase1.cohorts, 1,
        "100 pairs must fit one 256-lane cohort"
    );
    assert_eq!(wide_outcome.stats.phase1.distinct_endpoints, 100);

    for (threads, width) in [
        (1, LaneWidth::W64),
        (1, LaneWidth::W256),
        (2, LaneWidth::W64),
        (2, LaneWidth::W256),
        (4, LaneWidth::W64),
        (4, LaneWidth::W256),
    ] {
        let executor = BatchExecutor::new(threads).phase1_lanes(width);
        let results = executor.run(&eve, &batch);
        for (i, (got, exp)) in results.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.as_ref().expect("valid queries").edges(),
                exp.as_slice(),
                "slot {i} diverged at {threads} threads / {width:?}"
            );
        }
    }
}
