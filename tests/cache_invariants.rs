//! Structural invariants of the versioned result cache.
//!
//! Three properties, independent of what the cached answers *are*:
//!
//! 1. **Budget** — after any interleaving of inserts, lookups, version
//!    purges and clears, the bytes charged across all shards never exceed
//!    the configured budget (proptest over random operation scripts);
//! 2. **LRU order** — under a scripted access trace on a single-shard cache
//!    the eviction order is exactly least-recently-used (scripted in the
//!    `spg-core` unit tests; re-checked here through the public API with a
//!    longer trace);
//! 3. **Version invalidation** — after a [`VersionedGraph`] bump, entries of
//!    the old snapshot are unreachable and the recomputed answers reflect
//!    the new graph;
//! 4. **Scoped purge** — over random multi-version caches (witness-less
//!    entries, refreshed keys, slots reused after eviction or purge, tiny
//!    budgets) and random add/remove batches, `purge_scoped` removes exactly
//!    the resident entries [`InvalidationScope::affects`] selects over each
//!    entry's full witness, and `max_resident_k` always equals the
//!    brute-force maximum (proptest over random operation scripts).

use proptest::collection::vec;
use proptest::prelude::*;

use std::collections::BTreeMap;

use hop_spg::eve::{
    cache::entry_cost, CachedEve, Eve, EveStats, InvalidationScope, Query, SimplePathGraph,
    SpgCache,
};
use hop_spg::graph::generators::gnm_random;
use hop_spg::graph::{DiGraph, EdgeDelta, EdgeSubgraph, VersionedGraph};

/// A synthetic answer with `edges` edges, for deterministic cost scripting.
fn answer(tag: u32, edges: usize) -> SimplePathGraph {
    let list: Vec<(u32, u32)> = (0..edges as u32).map(|i| (tag * 1000 + i, i + 1)).collect();
    SimplePathGraph::from_parts(
        Query::new(0, 1, 1),
        EdgeSubgraph::from_edges(list),
        EveStats::default(),
    )
}

/// One scripted cache operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert an answer of the given size class under (version, s).
    Insert { version: u64, s: u32, edges: usize },
    /// Look up (version, s) — refreshes recency on a hit.
    Get { version: u64, s: u32 },
    /// Purge everything except the given version.
    Purge { keep: u64 },
    /// Drop everything.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u64..3, 0u32..24, 0usize..120).prop_map(|(kind, version, s, edges)| match kind {
        0..=4 => Op::Insert {
            version: version + 1,
            s,
            edges,
        },
        5..=7 => Op::Get {
            version: version + 1,
            s,
        },
        8 => Op::Purge { keep: version + 1 },
        _ => Op::Clear,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The byte budget holds after *every* operation of a random script, for
    /// several budget / shard-count shapes, and the bytes/entries bookkeeping
    /// stays self-consistent (clearing reclaims everything).
    #[test]
    fn budget_never_exceeded_under_random_scripts(
        ops in vec(op_strategy(), 1..120),
        budget_kb in 1usize..8,
        shards in 1usize..5,
    ) {
        let budget = budget_kb * 512;
        let cache = SpgCache::with_shards(budget, shards);
        for op in &ops {
            match *op {
                Op::Insert { version, s, edges } => {
                    cache.insert(version, Query::new(s, s + 1, 3), &answer(s, edges));
                }
                Op::Get { version, s } => {
                    let _ = cache.get(version, Query::new(s, s + 1, 3));
                }
                Op::Purge { keep } => {
                    cache.purge_other_versions(keep);
                }
                Op::Clear => cache.clear(),
            }
            let bytes = cache.bytes();
            prop_assert!(
                bytes <= budget,
                "budget exceeded after {op:?}: {bytes} > {budget}"
            );
            let stats = cache.stats();
            prop_assert_eq!(stats.bytes, bytes);
            prop_assert_eq!(stats.entries, cache.len());
            prop_assert!(stats.entries == 0 || stats.bytes > 0);
        }
        cache.clear();
        prop_assert_eq!(cache.bytes(), 0);
        prop_assert_eq!(cache.len(), 0);
    }

    /// Heavier variant for the CI `--ignored` job: longer scripts, more
    /// shard shapes, and a cross-check that evicted + resident insertions
    /// balance the counters.
    #[test]
    #[ignore = "heavy invariant sweep; run via cargo test --release -- --ignored"]
    fn heavy_budget_and_counter_sweep(
        ops in vec(op_strategy(), 100..600),
        shards in 1usize..9,
    ) {
        let budget = 3 * 512;
        let cache = SpgCache::with_shards(budget, shards);
        for op in &ops {
            if let Op::Insert { version, s, edges } = *op {
                cache.insert(version, Query::new(s, s + 1, 3), &answer(s, edges));
            }
            prop_assert!(cache.bytes() <= budget);
        }
        let stats = cache.stats();
        // Every insertion either remains resident, was evicted, was purged/
        // cleared (not scripted here), or displaced by a same-key refresh;
        // with only inserts in this variant, resident + evicted can never
        // exceed insertions.
        prop_assert!(stats.entries as u64 + stats.evictions <= stats.insertions);
    }
}

/// LRU eviction order through the public API: a longer scripted trace on a
/// single-shard cache (exact global LRU), interleaving refreshes by both
/// `get` and re-`insert`.
#[test]
fn scripted_trace_evicts_in_lru_order() {
    let unit = entry_cost(&answer(0, 10));
    let cache = SpgCache::with_shards(3 * unit + unit / 2, 1); // fits 3
    let q = |s: u32| Query::new(s, s + 1, 3);

    cache.insert(1, q(0), &answer(0, 10)); // LRU: 0
    cache.insert(1, q(1), &answer(1, 10)); // LRU: 0 1
    cache.insert(1, q(2), &answer(2, 10)); // LRU: 0 1 2
    assert!(cache.get(1, q(0)).is_some()); // LRU: 1 2 0
    cache.insert(1, q(1), &answer(1, 10)); // refresh    LRU: 2 0 1
    cache.insert(1, q(3), &answer(3, 10)); // evicts 2   LRU: 0 1 3
    assert!(cache.get(1, q(2)).is_none(), "2 was least recently used");
    cache.insert(1, q(4), &answer(4, 10)); // evicts 0   LRU: 1 3 4
    assert!(cache.get(1, q(0)).is_none(), "0 went second");
    for survivor in [1u32, 3, 4] {
        assert!(cache.get(1, q(survivor)).is_some(), "{survivor} resident");
    }
    assert_eq!(cache.stats().evictions, 2);
    assert!(cache.bytes() <= cache.budget_bytes());
}

/// After a graph bump, old-version entries are unreachable and the cache
/// serves answers computed on the *new* snapshot — even for the same
/// `(s, t, k)` triple. Binding a `CachedEve` to the new snapshot eagerly
/// reclaims the retired version's entries, so nothing stale lingers.
#[test]
fn version_bump_makes_old_entries_unreachable() {
    // Chain 0 -> 1 -> 2 -> 3 plus shortcut 0 -> 2.
    let mut vg = VersionedGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]);
    let cache = SpgCache::new(1 << 20);
    let old_version = vg.version();

    let q = Query::new(0, 3, 3);
    let with_shortcut = {
        let cached = CachedEve::with_defaults(&vg, &cache);
        let first = cached.query(q).unwrap();
        let hit = cached.query(q).unwrap();
        assert_eq!(first.edges(), hit.edges());
        first
    };
    assert!(with_shortcut.contains_edge(0, 2));
    assert_eq!(cache.stats().hits, 1);

    // Drop the shortcut edge; the answer for the same query changes.
    let new_version = vg.update(|g| {
        DiGraph::from_edges(
            g.vertex_count(),
            g.edges().filter(|&(u, v)| (u, v) != (0, 2)),
        )
    });
    assert!(new_version > old_version);

    let cached = CachedEve::with_defaults(&vg, &cache);
    let recomputed = cached.query(q).unwrap();
    assert!(
        !recomputed.contains_edge(0, 2),
        "post-bump answers reflect the new graph"
    );
    assert_eq!(
        recomputed.edges(),
        Eve::with_defaults(vg.graph()).query(q).unwrap().edges()
    );
    // The lookup on the new version was a miss: the old entry never served.
    assert_eq!(cache.stats().hits, 1, "no new hits after the bump");
    // Binding to the bumped snapshot eagerly purged the retired entry, so
    // only the freshly recomputed answer is resident.
    assert_eq!(cache.len(), 1, "stale entry reclaimed on bind");
    assert_eq!(cache.stats().purged_stale, 1);

    // A manual sweep finds nothing left to reclaim.
    assert_eq!(cache.purge_other_versions(cached.version()), 0);
    assert_eq!(cache.len(), 1);
    let served = cached.query(q).unwrap();
    assert_eq!(served.edges(), recomputed.edges());
}

/// Vertex universe of the scoped-purge model. Witnesses of up to 160 of
/// these vertices set most bits of a row's witness signature, so many
/// removed edges outside a witness still pass the signature test (vertices
/// that share signature bits) and the exact witness search must reject
/// them.
const PURGE_VERTICES: u32 = 512;

/// Deterministic xorshift stream expanding one scripted op's seed.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn vertex(&mut self) -> u32 {
        self.below(u64::from(PURGE_VERTICES)) as u32
    }
}

/// `(version, s, t, k)`.
type PurgeKey = (u64, u32, u32, u32);

/// Every resident key with the witness it serves, probed through `get`.
fn resident(
    cache: &SpgCache,
    model: &BTreeMap<PurgeKey, Option<Vec<u32>>>,
) -> Result<BTreeMap<PurgeKey, Option<Vec<u32>>>, String> {
    let mut out = BTreeMap::new();
    for (&(version, s, t, k), witness) in model {
        if let Some(hit) = cache.get(version, Query::new(s, t, k)) {
            prop_assert_eq!(hit.witness(), witness.as_deref());
            prop_assert_eq!(hit.query(), Query::new(s, t, k));
            out.insert((version, s, t, k), witness.clone());
        }
    }
    Ok(out)
}

/// Runs one scripted scoped-purge case; see property 4 of the module docs.
fn scoped_purge_script(
    ops: &[(u8, u64)],
    budget: usize,
    shards: usize,
    graph_seed: u64,
) -> Result<(), String> {
    let graph = gnm_random(PURGE_VERTICES as usize, 1200, graph_seed);
    let cache = SpgCache::with_shards(budget, shards);
    // The newest accepted value of every key ever published.
    let mut model: BTreeMap<PurgeKey, Option<Vec<u32>>> = BTreeMap::new();
    for (step, &(kind, seed)) in ops.iter().enumerate() {
        let mut rng = Stream::new(seed);
        let version = 1 + rng.below(3);
        match kind {
            // Publish (or refresh) a key from a small pool so refreshes and
            // slot reuse are common; every fifth entry is witness-less.
            0..=5 => {
                let (s, t, k) = (
                    rng.below(12) as u32,
                    12 + rng.below(12) as u32,
                    1 + rng.below(7) as u32,
                );
                let size = [2, 12, 40, 160][rng.below(4) as usize];
                let witness = (rng.below(5) != 0).then(|| {
                    let mut w: Vec<u32> = (0..size).map(|_| rng.vertex()).collect();
                    w.extend([s, t]);
                    w.sort_unstable();
                    w.dedup();
                    w
                });
                let edges: Vec<(u32, u32)> = (0..rng.below(8)).map(|i| (s, i as u32)).collect();
                let mut answer = SimplePathGraph::from_parts(
                    Query::new(s, t, k),
                    EdgeSubgraph::from_edges(edges),
                    EveStats::default(),
                );
                if let Some(w) = &witness {
                    answer = answer.with_witness(w);
                }
                let rejected = cache.stats().oversize_rejections;
                cache.insert(version, Query::new(s, t, k), &answer);
                if cache.stats().oversize_rejections == rejected {
                    model.insert((version, s, t, k), witness);
                }
            }
            // A random add/remove batch against one version.
            6..=8 => {
                let before = resident(&cache, &model)?;
                let mut deltas = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let (u, v) = (rng.vertex(), rng.vertex());
                    // Some removals come from a resident witness, so true
                    // positives are exercised, not only misses.
                    let (u, v) = match before.values().flatten().nth(rng.below(8) as usize) {
                        Some(w) if rng.below(2) == 0 => (
                            w[rng.below(w.len() as u64) as usize],
                            w[rng.below(w.len() as u64) as usize],
                        ),
                        _ => (u, v),
                    };
                    deltas.push(if rng.below(3) == 0 {
                        EdgeDelta::add(u, v)
                    } else {
                        EdgeDelta::remove(u, v)
                    });
                }
                let scope =
                    InvalidationScope::build(&graph, &deltas, cache.max_resident_k(version));
                let expected: Vec<PurgeKey> = before
                    .iter()
                    .filter(|(&(v, s, t, k), w)| {
                        v == version && scope.affects(s, t, k, w.as_deref())
                    })
                    .map(|(&key, _)| key)
                    .collect();
                let purged = cache.purge_scoped(version, &scope);
                prop_assert!(
                    purged == expected.len(),
                    "step {step}: purged {purged}, affects selects {expected:?} for {deltas:?}"
                );
                let after = resident(&cache, &model)?;
                for key in before.keys() {
                    prop_assert_eq!(after.contains_key(key), !expected.contains(key));
                }
            }
            // Reclaim every version but one.
            _ => {
                let before = resident(&cache, &model)?;
                let purged = cache.purge_other_versions(version);
                let expected = before.keys().filter(|key| key.0 != version).count();
                prop_assert_eq!(purged, expected);
            }
        }
        let now = resident(&cache, &model)?;
        prop_assert_eq!(now.len(), cache.len());
        prop_assert!(cache.bytes() <= budget);
        for v in 1..=3 {
            let brute = now.keys().filter(|key| key.0 == v).map(|key| key.3).max();
            prop_assert_eq!(cache.max_resident_k(v), brute.unwrap_or(0));
        }
    }
    Ok(())
}

/// Budgets from a few entries per shard (constant eviction and slot reuse)
/// to ample.
fn purge_budget() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|class| [2 << 10, 6 << 10, 24 << 10, 1 << 20][class])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 4: the row-streaming purge removes exactly what `affects`
    /// selects, and the `k` tallies stay exact.
    #[test]
    fn scoped_purge_matches_affects_over_random_caches(
        ops in vec((0u8..10, 0u64..u64::MAX), 1..80),
        budget in purge_budget(),
        shards in 1usize..5,
        graph_seed in 0u64..1_000,
    ) {
        scoped_purge_script(&ops, budget, shards, graph_seed)?;
    }

    /// Heavier variant for the CI `--ignored` job: longer scripts, more cases.
    #[test]
    #[ignore = "heavy purge sweep; run via cargo test --release -- --ignored"]
    fn heavy_scoped_purge_sweep(
        ops in vec((0u8..10, 0u64..u64::MAX), 100..400),
        budget in purge_budget(),
        shards in 1usize..9,
        graph_seed in 0u64..1_000,
    ) {
        scoped_purge_script(&ops, budget, shards, graph_seed)?;
    }
}
