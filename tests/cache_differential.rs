//! Differential proptests proving the result cache invisible.
//!
//! The contract under test: routing a batch through the versioned
//! [`SpgCache`] — sequentially via [`CachedEve`] or in parallel via
//! [`BatchExecutor::run_cached_coalesced_with_deadlines`] at any thread
//! count — produces slots
//! *bit-identical* to the uncached pipeline: same edges and vertex counts
//! per `Ok` slot, same stats-relevant fields (`upper_bound_edges`, recorded
//! clamped query), same [`QueryError`] per `Err` slot, in input order.
//! Batches are shuffled and repeat-heavy so hot keys hit from every worker,
//! include malformed queries (errors must bypass the cache), and include
//! `k`-clamp aliases (`k ≥ n − 1` values that must share one cache entry).

use proptest::collection::vec;
use proptest::prelude::*;

use hop_spg::eve::{
    BatchExecutor, BatchOutcome, CachedEve, Eve, FlightGroup, Query, QueryWorkspace, SpgCache,
};
use hop_spg::graph::{DiGraph, VersionedGraph};
use hop_spg::workloads::repeat_heavy_queries;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Strategy: a small random digraph plus a repeat-heavy shuffled batch that
/// mixes valid, invalid (s == t, out-of-range endpoint, k == 0) and
/// clamp-stressing huge-k queries.
fn graph_and_batch() -> impl Strategy<Value = (DiGraph, Vec<Query>)> {
    (4usize..16).prop_flat_map(|n| {
        let edges = vec((0..n as u32, 0..n as u32), 0..(4 * n));
        // A short "seed" batch of raw triples…
        let seeds = vec((0..n as u32 + 2, 0..n as u32 + 2, 0u32..10), 1..10);
        // …plus an index sequence that replays seeds with repetition, which
        // is what makes the batch cache-hot and shuffled at once.
        let replay = vec(0usize..64, 8..40);
        (edges, seeds, replay).prop_map(move |(edges, seeds, replay)| {
            let g = DiGraph::from_edges(n, edges);
            let batch: Vec<Query> = replay
                .into_iter()
                .enumerate()
                .map(|(i, idx)| {
                    let (s, t, k) = seeds[idx % seeds.len()];
                    // Every seventh slot stresses the entry-point clamp; the
                    // cache must key these onto the clamped-k entry.
                    let k = if i % 7 == 3 { u32::MAX - k } else { k };
                    Query::new(s, t, k)
                })
                .collect();
            (g, batch)
        })
    })
}

/// One cached drain at `threads` workers, collapsing duplicates within the
/// batch only.
fn run_cached(cached: &CachedEve<'_, '_>, batch: &[Query], threads: usize) -> BatchOutcome {
    BatchExecutor::new(threads).run_cached_coalesced_with_deadlines(
        cached,
        &FlightGroup::new(),
        batch,
        &[],
    )
}

/// One uncached ground-truth slot: edges, upper-bound edge count and the
/// recorded (clamped) `k` of an `Ok` answer, or the stringified error.
type UncachedSlot = Result<(Vec<(u32, u32)>, usize, u32), String>;

/// Uncached ground truth: a fresh workspace per query.
fn uncached_fresh(eve: &Eve<'_>, batch: &[Query]) -> Vec<UncachedSlot> {
    batch
        .iter()
        .map(|&q| {
            eve.query(q)
                .map(|spg| {
                    (
                        spg.edges().to_vec(),
                        spg.stats().upper_bound_edges,
                        spg.query().k,
                    )
                })
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn assert_cached_matches(
    cached: &CachedEve<'_, '_>,
    batch: &[Query],
    expected: &[UncachedSlot],
    threads: usize,
) -> Result<(), String> {
    let outcome = run_cached(cached, batch, threads);
    prop_assert_eq!(outcome.results.len(), expected.len());
    let mut errors = 0usize;
    for (i, (got, exp)) in outcome.results.iter().zip(expected).enumerate() {
        match (got, exp) {
            (Ok(spg), Ok((edges, ub_edges, clamped_k))) => {
                prop_assert!(
                    spg.edges() == edges.as_slice(),
                    "slot {i} threads {threads}: {:?} != {:?}",
                    spg.edges(),
                    edges
                );
                prop_assert!(
                    spg.stats().upper_bound_edges == *ub_edges,
                    "slot {i} threads {threads}: upper-bound edges diverged"
                );
                prop_assert!(
                    spg.query().k == *clamped_k,
                    "slot {i} threads {threads}: recorded clamp diverged"
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
    // Error slots bypass the cache entirely; every valid slot is exactly a
    // hit, a computed miss, or a duplicate coalesced onto a miss in flight.
    prop_assert_eq!(outcome.stats.errors, errors);
    prop_assert_eq!(
        outcome.stats.cache_hits + outcome.stats.cache_misses + outcome.stats.cache_coalesced,
        outcome.stats.answered
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached execution is bit-identical to the uncached pipeline at 1, 2,
    /// 4 and 8 threads. The cache persists across thread counts, so later
    /// ladders run almost entirely on hits — and must still be identical.
    #[test]
    fn cached_batches_match_uncached((g, batch) in graph_and_batch()) {
        let vg = VersionedGraph::new(g);
        let eve = Eve::with_defaults(vg.graph());
        let expected = uncached_fresh(&eve, &batch);
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        for threads in THREAD_COUNTS {
            assert_cached_matches(&cached, &batch, &expected, threads)?;
        }
        // A fully warm rerun is all hits and still identical.
        let warm = run_cached(&cached, &batch, 4);
        prop_assert_eq!(warm.stats.cache_misses, 0);
        assert_cached_matches(&cached, &batch, &expected, 4)?;
    }

    /// A *tiny* budget (perpetual eviction pressure) must never change
    /// answers — only the hit rate.
    #[test]
    fn eviction_pressure_never_changes_answers((g, batch) in graph_and_batch()) {
        let vg = VersionedGraph::new(g);
        let eve = Eve::with_defaults(vg.graph());
        let expected = uncached_fresh(&eve, &batch);
        // ~1 KiB across 2 shards: most inserts evict or get rejected.
        let cache = SpgCache::with_shards(1024, 2);
        let cached = CachedEve::with_defaults(&vg, &cache);
        for threads in [1usize, 4] {
            assert_cached_matches(&cached, &batch, &expected, threads)?;
        }
        prop_assert!(cache.bytes() <= 1024);
    }

    /// Sequential `CachedEve::query_with` on one reused workspace agrees
    /// with the parallel cached executor slot-for-slot.
    #[test]
    fn sequential_cached_agrees_with_parallel((g, batch) in graph_and_batch()) {
        let vg = VersionedGraph::new(g);
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        let mut ws = QueryWorkspace::new();
        let sequential: Vec<_> = batch.iter().map(|&q| cached.query_with(&mut ws, q)).collect();
        let parallel = run_cached(&cached, &batch, 4).results;
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            match (s, p) {
                (Ok(a), Ok(b)) => prop_assert!(a.edges() == b.edges(), "slot {i} differs"),
                (Err(a), Err(b)) => prop_assert!(a == b, "slot {i} differs"),
                _ => prop_assert!(false, "slot {i}: Ok/Err mismatch"),
            }
        }
    }

}

proptest! {
    // The heavy sweep runs only in the CI `cargo test --release -- --ignored`
    // step, with double the case count of the default-suite proptests above.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Heavier variant for the CI `--ignored` job: more cases, bigger
    /// graphs, longer repeat-heavy batches and a deliberately tiny cache
    /// budget, checked at every thread count.
    #[test]
    #[ignore = "heavy differential sweep; run via cargo test --release -- --ignored"]
    fn heavy_cached_differential_sweep(seed in 0u64..1u64 << 48) {
        let n = 60 + (seed % 60) as usize;
        let g = hop_spg::graph::generators::gnm_random(n, 5 * n, seed);
        let batch = repeat_heavy_queries(&g, 160, &[2, 4, 6, 9], 24, 0.7, seed ^ 0xFEED);
        prop_assert!(!batch.is_empty(), "dense gnm graphs always yield a pool");
        let vg = VersionedGraph::new(g);
        let eve = Eve::with_defaults(vg.graph());
        let expected = uncached_fresh(&eve, &batch);
        for budget in [4 << 10, 1 << 20] {
            let cache = SpgCache::with_shards(budget, 4);
            let cached = CachedEve::with_defaults(&vg, &cache);
            for threads in THREAD_COUNTS {
                assert_cached_matches(&cached, &batch, &expected, threads)?;
            }
            prop_assert!(cache.bytes() <= budget);
        }
    }
}

/// Regression: duplicate missed keys inside a single drain must compute
/// once. Before the two-phase singleflight drain, a batch of 64 identical
/// cold queries ran the pipeline 64 times and published 64 times; the cache
/// insert counter pins the fixed behaviour, and every slot still matches
/// the uncached answer bit for bit.
#[test]
fn duplicate_cold_misses_in_one_batch_compute_once() {
    let g = hop_spg::graph::generators::gnm_random(40, 200, 0xD00D);
    let vg = VersionedGraph::new(g);
    let eve = Eve::with_defaults(vg.graph());
    let cache = SpgCache::new(1 << 20);
    let cached = CachedEve::with_defaults(&vg, &cache);

    let hot = Query::new(0, 1, 5);
    let reference = eve.query(hot).unwrap();
    for threads in THREAD_COUNTS {
        cache.clear();
        let before = cache.stats().insertions;
        let batch = vec![hot; 64];
        let outcome = run_cached(&cached, &batch, threads);
        assert_eq!(
            cache.stats().insertions - before,
            1,
            "threads {threads}: 64 identical cold misses must publish once"
        );
        assert_eq!(outcome.stats.cache_misses, 1);
        assert_eq!(outcome.stats.cache_coalesced, 63);
        for slot in &outcome.results {
            assert_eq!(slot.as_ref().unwrap().edges(), reference.edges());
        }
    }
}

/// Deterministic k-clamp aliasing: all hop constraints ≥ n − 1 must share
/// one cache entry, and the served answers must carry the clamped query.
#[test]
fn clamp_aliases_share_one_entry_and_match_uncached() {
    // Small graph: k = n − 1 with an unrestricted search space is the
    // worst case for the verification phase, so keep n modest (the same
    // scale as the huge-k clamp regression test in spg-core).
    let g = hop_spg::graph::generators::gnm_random(12, 50, 99);
    let n = g.vertex_count() as u32;
    let vg = VersionedGraph::new(g);
    let eve = Eve::with_defaults(vg.graph());
    let cache = SpgCache::new(1 << 20);
    let cached = CachedEve::with_defaults(&vg, &cache);

    let reference = eve.query(Query::new(0, 1, n - 1)).unwrap();
    for (i, k) in [n - 1, n, n + 7, u32::MAX / 2, u32::MAX]
        .into_iter()
        .enumerate()
    {
        let got = cached.query(Query::new(0, 1, k)).unwrap();
        assert_eq!(got.edges(), reference.edges(), "k={k}");
        assert_eq!(got.query().k, n - 1, "k={k} must be recorded clamped");
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "k={k}: clamp aliases share one entry");
        assert_eq!(stats.misses, 1, "only the first alias computes");
        assert_eq!(stats.hits as usize, i, "k={k}");
    }
}
