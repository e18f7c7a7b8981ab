//! Differential property tests for the parallel [`BatchExecutor`].
//!
//! The contract under test: at every thread count, `BatchExecutor::run`
//! produces a result vector *bit-identical* to answering each query
//! sequentially on a fresh workspace — same edges per `Ok` slot, same
//! `QueryError` per `Err` slot, in input order. Batches deliberately mix
//! hop constraints, shuffled endpoints, huge clamped `k`s and malformed
//! queries so error slots land on arbitrary workers and units.

use proptest::collection::vec;
use proptest::prelude::*;

use hop_spg::eve::{BatchExecutor, Eve, LaneWidth, Query};
use hop_spg::graph::DiGraph;
use hop_spg::workloads::{inject_invalid, mixed_k_queries, shared_endpoint_queries};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Strategy: a small random digraph plus a raw query batch that includes
/// invalid shapes (s == t, endpoints past the vertex range, k == 0) and
/// occasionally a clamp-stressing huge k.
fn graph_and_batch() -> impl Strategy<Value = (DiGraph, Vec<Query>)> {
    (4usize..16).prop_flat_map(|n| {
        let edges = vec((0..n as u32, 0..n as u32), 0..(4 * n));
        // Endpoints range two past the vertex count and k may be 0: both
        // invalid shapes must surface as per-slot errors, not disturbances.
        let queries = vec((0..n as u32 + 2, 0..n as u32 + 2, 0u32..10), 1..24);
        (edges, queries).prop_map(move |(edges, qs)| {
            let g = DiGraph::from_edges(n, edges);
            let batch: Vec<Query> = qs
                .into_iter()
                .enumerate()
                .map(|(i, (s, t, k))| {
                    // Every seventh query stresses the entry-point clamp.
                    let k = if i % 7 == 3 { u32::MAX - k } else { k };
                    Query::new(s, t, k)
                })
                .collect();
            (g, batch)
        })
    })
}

/// Sequential ground truth: a fresh workspace per query.
fn sequential_fresh(eve: &Eve<'_>, batch: &[Query]) -> Vec<Result<Vec<(u32, u32)>, String>> {
    batch
        .iter()
        .map(|&q| {
            eve.query(q)
                .map(|spg| spg.edges().to_vec())
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn assert_matches_sequential(
    eve: &Eve<'_>,
    batch: &[Query],
    expected: &[Result<Vec<(u32, u32)>, String>],
    threads: usize,
) -> Result<(), String> {
    let outcome = BatchExecutor::new(threads).run_detailed(eve, batch);
    prop_assert_eq!(outcome.results.len(), expected.len());
    let mut errors = 0usize;
    for (i, (got, exp)) in outcome.results.iter().zip(expected).enumerate() {
        match (got, exp) {
            (Ok(spg), Ok(edges)) => {
                prop_assert!(
                    spg.edges() == edges.as_slice(),
                    "slot {i} threads {threads}: {:?} != {:?}",
                    spg.edges(),
                    edges
                );
            }
            (Err(e), Err(msg)) => {
                errors += 1;
                prop_assert!(
                    &e.to_string() == msg,
                    "slot {i} threads {threads}: {e} != {msg}"
                );
            }
            _ => prop_assert!(false, "slot {i} threads {threads}: Ok/Err mismatch"),
        }
    }
    prop_assert_eq!(outcome.stats.errors, errors);
    prop_assert_eq!(outcome.stats.queries(), batch.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The executor is bit-identical to sequential fresh-workspace queries
    /// at 1, 2, 4 and 8 threads, including error slots.
    #[test]
    fn parallel_batches_match_sequential((g, batch) in graph_and_batch()) {
        let eve = Eve::with_defaults(&g);
        let expected = sequential_fresh(&eve, &batch);
        for threads in THREAD_COUNTS {
            assert_matches_sequential(&eve, &batch, &expected, threads)?;
        }
    }

    /// Fraud-ring-shaped batches (few sources × few targets, so cohorts are
    /// dense with duplicate `(s, t)` pairs at mixed `k` including huge
    /// clamped ones and invalid slots) stay bit-identical to sequential
    /// fresh-workspace queries at every thread count, with and without
    /// sharing.
    #[test]
    fn shared_endpoint_cohorts_match_sequential(
        (g, raw) in (6usize..16).prop_flat_map(|n| {
            let edges = vec((0..n as u32, 0..n as u32), n..(5 * n));
            // Endpoints are drawn from 3-vertex pools so pairs repeat a lot;
            // k = 0 slots are invalid, every ninth k is clamp-stressing.
            let queries = vec((0u32..3, 0u32..3, 0u32..12), 2..40);
            (edges, queries).prop_map(move |(edges, qs)| {
                (DiGraph::from_edges(n, edges), (n, qs))
            })
        }),
    ) {
        let (n, qs) = raw;
        let src_pool = [0u32, 1, (n - 1) as u32];
        let dst_pool = [(n - 2) as u32, 2, 1];
        let batch: Vec<Query> = qs
            .into_iter()
            .enumerate()
            .map(|(i, (si, ti, k))| {
                let k = if i % 9 == 4 { u32::MAX - k } else { k };
                Query::new(src_pool[si as usize], dst_pool[ti as usize], k)
            })
            .collect();
        let eve = Eve::with_defaults(&g);
        let expected = sequential_fresh(&eve, &batch);
        for threads in THREAD_COUNTS {
            assert_matches_sequential(&eve, &batch, &expected, threads)?;
        }
        // Every valid query was either cohort-shared or a singleton
        // fallback, and lanes never exceed the distinct-pair count per
        // cohort (a pair recurring in several member-capped cohorts is
        // traversed once per cohort).
        let outcome = BatchExecutor::new(3).run_detailed(&eve, &batch);
        let valid = batch.iter().filter(|q| q.validate(&g).is_ok()).count();
        let p1 = &outcome.stats.phase1;
        prop_assert!(p1.phase1_shared <= valid);
        prop_assert!(
            p1.distinct_endpoints <= 9 * p1.cohorts.max(1),
            "at most 3 × 3 pairs per cohort"
        );
        if p1.phase1_shared > 0 {
            prop_assert!(p1.dedup_ratio().unwrap() >= 1.0);
        }
        // Sharing off is the same answer, slot for slot.
        let legacy = BatchExecutor::new(2)
            .shared_phase1(false)
            .run_detailed(&eve, &batch);
        prop_assert_eq!(legacy.stats.phase1.phase1_shared, 0);
        for (i, (got, exp)) in legacy.results.iter().zip(&expected).enumerate() {
            match (got, exp) {
                (Ok(a), Ok(b)) => prop_assert!(a.edges() == b.as_slice(), "slot {i} legacy"),
                (Err(a), Err(b)) => prop_assert!(&a.to_string() == b, "slot {i} legacy"),
                _ => prop_assert!(false, "slot {i} legacy: Ok/Err mismatch"),
            }
        }
    }
}

/// Deterministic multi-cohort check, pinned to 64-lane cohorts (the
/// default 256-lane capacity would swallow the whole batch in one — the
/// `wide_cohorts_match_per_query_at_every_thread_count` test covers that
/// side): more than 64 distinct endpoint pairs forces the planner to split
/// cohorts, duplicate `(s, t, k)` entries and `u32::MAX` clamp aliases
/// land in the same lanes, and every slot stays bit-identical to the
/// sequential fresh-workspace answer at every thread count.
#[test]
fn multi_cohort_batches_with_duplicates_and_aliases() {
    // Deliberately tiny host graph: the u32::MAX aliases below clamp to
    // k = n − 1, and the verification phase's witness search over a dense
    // small world at that hop budget must stay cheap enough for CI — a
    // 24-vertex host still offers 552 ordered pairs, plenty to overflow a
    // 64-lane cohort.
    let g = hop_spg::graph::generators::gnm_random(24, 96, 99);
    let eve = Eve::with_defaults(&g);
    // ~80 distinct pairs from wide pools (forces ≥ 2 cohorts) plus a
    // fraud-ring block from narrow pools (dense dedup), duplicates and
    // clamp aliases of existing pairs, and invalid slots.
    let mut batch = mixed_k_queries(&g, 90, &[2, 4, 6], 0x00D1);
    batch.extend(shared_endpoint_queries(&g, 60, &[3, 6], 4, 4, 0x00D2));
    let dups: Vec<Query> = batch.iter().step_by(7).copied().collect();
    batch.extend(dups);
    let aliases: Vec<Query> = batch
        .iter()
        .step_by(11)
        .map(|q| Query::new(q.source, q.target, u32::MAX))
        .collect();
    batch.extend(aliases);
    let injected = inject_invalid(&mut batch, &g, 13);
    assert!(injected > 0);

    let expected: Vec<_> = batch.iter().map(|&q| eve.query(q)).collect();
    let mut distinct_pairs: Vec<(u32, u32)> = batch
        .iter()
        .filter(|q| q.validate(&g).is_ok())
        .map(|q| (q.source, q.target))
        .collect();
    distinct_pairs.sort_unstable();
    distinct_pairs.dedup();
    assert!(distinct_pairs.len() > 64, "the batch must span ≥ 2 cohorts");

    for threads in THREAD_COUNTS {
        let outcome = BatchExecutor::new(threads)
            .phase1_lanes(LaneWidth::W64)
            .run_detailed(&eve, &batch);
        assert_eq!(outcome.stats.errors, injected, "threads {threads}");
        let p1 = &outcome.stats.phase1;
        assert!(p1.cohorts >= 2, "threads {threads}: {} cohorts", p1.cohorts);
        assert!(p1.distinct_endpoints <= p1.phase1_shared);
        assert!(p1.traversal.total_edge_scans() > 0);
        for (i, (got, exp)) in outcome.results.iter().zip(&expected).enumerate() {
            match (got, exp) {
                (Ok(a), Ok(b)) => assert_eq!(a.edges(), b.edges(), "slot {i} threads {threads}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "slot {i} threads {threads}"),
                other => panic!("slot {i} threads {threads}: Ok/Err mismatch {other:?}"),
            }
        }
    }

    // Exact cohort accounting on the single-worker (uncapped) plan, where
    // lane overflow is the only reason to split cohorts.
    let solo = BatchExecutor::new(1)
        .phase1_lanes(LaneWidth::W64)
        .run_detailed(&eve, &batch)
        .stats;
    let p1 = &solo.phase1;
    assert!(p1.cohorts >= 2, "{} cohorts", p1.cohorts);
    // Only the final cohort can degenerate to a singleton fallback
    // (overflow-closed cohorts hold 64 lanes ≥ 2 members), so at most one
    // valid query escapes sharing.
    let valid = batch.len() - injected;
    assert!(p1.phase1_shared >= valid - 1 && p1.phase1_shared <= valid);
    // A pair recurring in two cohorts is traversed once per cohort, so
    // lanes can exceed the global distinct-pair count, but never the
    // shared-member count.
    assert!(p1.distinct_endpoints >= 64, "first cohort fills its lanes");
    assert!(p1.distinct_endpoints <= p1.phase1_shared);
    assert!(
        p1.dedup_ratio().unwrap() > 1.0,
        "duplicates must dedup: {:?}",
        p1.dedup_ratio()
    );
}

/// Deterministic large-batch check on a realistic graph: a 300-vertex gnm
/// batch with every fifth slot replaced by an invalid query, compared across
/// all thread counts with sharing on and off (so both the cohort plan and
/// the all-singles plan meet error slots on every worker).
#[test]
fn large_mixed_batch_with_error_slots() {
    let g = hop_spg::graph::generators::gnm_random(300, 1500, 77);
    let eve = Eve::with_defaults(&g);
    let mut batch = mixed_k_queries(&g, 120, &[2, 4, 6, 8], 0xBA7C);
    let injected = inject_invalid(&mut batch, &g, 5);
    assert!(injected > 0);
    let expected: Vec<_> = batch.iter().map(|&q| eve.query(q)).collect();

    for threads in THREAD_COUNTS {
        for shared in [true, false] {
            let outcome = BatchExecutor::new(threads)
                .shared_phase1(shared)
                .run_detailed(&eve, &batch);
            assert_eq!(outcome.stats.errors, injected);
            for (i, (got, exp)) in outcome.results.iter().zip(&expected).enumerate() {
                match (got, exp) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        a.edges(),
                        b.edges(),
                        "slot {i} threads {threads} shared {shared}"
                    ),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    other => panic!("slot {i}: Ok/Err mismatch {other:?}"),
                }
            }
        }
    }
}
