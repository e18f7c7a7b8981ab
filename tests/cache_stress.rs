//! Concurrency stress for the shared result cache.
//!
//! Many threads hammer one [`SpgCache`] with a hit/miss workload
//! (`hit_miss_queries` plus repeat-heavy hot keys) under eviction pressure,
//! then the test checks global consistency:
//!
//! * **no torn entries** — every answer served anywhere, and everything
//!   still resident afterwards, is bit-identical to a fresh uncached
//!   compute;
//! * **counters sum** — cache hits + misses equal the total lookups issued
//!   across all threads, and the per-thread executor counters sum to the
//!   global ones;
//! * **budget** — the byte bound holds at the end (it holds throughout by
//!   the invariant tests; here it survives real contention).

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use hop_spg::eve::{BatchExecutor, CachedEve, Eve, FlightGroup, Query, QueryWorkspace, SpgCache};
use hop_spg::graph::generators::gnm_random;
use hop_spg::graph::VersionedGraph;
use hop_spg::workloads::{hit_miss_queries, repeat_heavy_queries};

/// Deterministic per-thread shuffle so threads interleave hot keys
/// differently without an RNG dependency in the test.
fn rotate(mut batch: Vec<Query>, by: usize) -> Vec<Query> {
    let len = batch.len();
    batch.rotate_left(by % len.max(1));
    batch
}

fn stress(threads: usize, rounds: usize, budget: usize) {
    let vg = VersionedGraph::new(gnm_random(300, 1800, 0xCAFE));
    let eve = Eve::with_defaults(vg.graph());
    let cache = SpgCache::with_shards(budget, 8);
    let cached = CachedEve::with_defaults(&vg, &cache);

    // Hit/miss mix (cheap misses stress insert/evict) plus hot repeats
    // (stress the same shard entries from every thread).
    let mut workload = hit_miss_queries(vg.graph(), 60, 4, 0.5, 0x5EED);
    workload.extend(repeat_heavy_queries(
        vg.graph(),
        120,
        &[3, 4, 6],
        12,
        0.8,
        0x5EED,
    ));
    assert!(workload.len() >= 120, "workload generation failed");
    let lookups = AtomicU64::new(0);

    thread::scope(|scope| {
        for tid in 0..threads {
            let workload = rotate(workload.clone(), 17 * tid + 1);
            let cached = &cached;
            let eve = &eve;
            let lookups = &lookups;
            scope.spawn(move || {
                let mut ws = QueryWorkspace::new();
                let mut check = QueryWorkspace::new();
                for round in 0..rounds {
                    for (i, &q) in workload.iter().enumerate() {
                        let got = cached.query_with(&mut ws, q).expect("valid workload");
                        lookups.fetch_add(1, Ordering::Relaxed);
                        // Spot-check served answers against a fresh compute
                        // on a rotating subset (checking all 180 × rounds
                        // would dominate the test's runtime).
                        if (i + round) % 29 == tid % 29 {
                            let fresh = eve.query_with(&mut check, q).expect("valid workload");
                            assert_eq!(
                                got.edges(),
                                fresh.edges(),
                                "torn or stale entry for {q} (thread {tid}, round {round})"
                            );
                            assert_eq!(
                                got.stats().upper_bound_edges,
                                fresh.stats().upper_bound_edges
                            );
                        }
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups.load(Ordering::Relaxed),
        "every lookup is exactly one hit or one miss"
    );
    assert!(stats.hits > 0, "hot keys must hit under repetition");
    assert!(cache.bytes() <= budget, "budget violated under contention");
    assert_eq!(stats.bytes, cache.bytes());

    // Everything still resident is consistent: replay the workload once
    // more single-threaded and compare every slot against fresh computes.
    let mut ws = QueryWorkspace::new();
    let mut fresh_ws = QueryWorkspace::new();
    for &q in &workload {
        let via_cache = cached.query_with(&mut ws, q).unwrap();
        let fresh = eve.query_with(&mut fresh_ws, q).unwrap();
        assert_eq!(via_cache.edges(), fresh.edges(), "final consistency: {q}");
    }

    // The parallel executor path over the same shared cache: compute-worker
    // counters must sum to the global miss count (the probe phase counts
    // hits and coalesced duplicates on the draining thread) and slots stay
    // correct.
    let outcome = BatchExecutor::new(threads).run_cached_coalesced_with_deadlines(
        &cached,
        &FlightGroup::new(),
        &workload,
        &[],
    );
    let misses: usize = outcome
        .stats
        .per_thread
        .iter()
        .map(|t| t.cache_misses)
        .sum();
    assert_eq!(misses, outcome.stats.cache_misses);
    assert_eq!(
        outcome.stats.cache_hits + outcome.stats.cache_misses + outcome.stats.cache_coalesced,
        outcome.stats.answered
    );
    for (got, &q) in outcome.results.iter().zip(&workload) {
        let fresh = eve.query_with(&mut fresh_ws, q).unwrap();
        assert_eq!(got.as_ref().unwrap().edges(), fresh.edges());
    }
}

/// Eviction pressure: a budget far smaller than the working set.
#[test]
fn hammering_one_small_cache_stays_consistent() {
    stress(8, 2, 32 << 10);
}

/// Ample budget: the all-hits steady state with every thread on hot keys.
#[test]
fn hammering_one_large_cache_stays_consistent() {
    stress(4, 2, 8 << 20);
}

/// Heavier variant for the CI `--ignored` job: more threads, more rounds,
/// tighter budget — maximum contention on the shard locks.
#[test]
#[ignore = "heavy concurrency stress; run via cargo test --release -- --ignored"]
fn heavy_cache_contention_sweep() {
    for (threads, rounds, budget) in [(16, 4, 16 << 10), (12, 6, 64 << 10), (8, 8, 4 << 20)] {
        stress(threads, rounds, budget);
    }
}
