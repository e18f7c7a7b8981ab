//! Differential harness for delta-aware graph updates.
//!
//! The contract under test: an overlay-patched [`VersionedGraph`] is
//! indistinguishable from a from-scratch rebuild. Every interleaving of
//! [`apply_delta_scoped`], [`VersionedGraph::compact`] and (cached,
//! parallel) query batches must produce answers *bit-identical* — same
//! edges, same `upper_bound_edges`, same recorded clamped `k`, same
//! [`QueryError`](hop_spg::eve::QueryError) strings per `Err` slot — to a
//! fresh [`Eve`] on a `DiGraph::from_edges` rebuild of the mutated edge
//! set. Scoped cache invalidation rides along: cached requeries after a
//! purge must serve the new graph's answers, never stale ones, at every
//! thread count and under tiny eviction-pressure budgets.

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;

use hop_spg::eve::{
    apply_delta_scoped, BatchExecutor, CachedEve, Eve, FlightGroup, Query, SpgCache,
};
use hop_spg::graph::{DiGraph, EdgeDelta, VersionedGraph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// One step of an interleaving, decoded from a raw tuple.
#[derive(Debug, Clone)]
enum Op {
    /// Apply a delta batch (adds and removes mixed).
    Apply(Vec<EdgeDelta>),
    /// Fold the overlay into a fresh CSR.
    Compact,
    /// Run the query batch through the cache and diff against a rebuild.
    Queries,
}

/// Decodes `(tag, a, b, c)` into an [`Op`] over an `n`-vertex graph. Deltas
/// avoid self-loops by construction (the wire layer rejects them), so every
/// generated batch is valid and `apply_delta_scoped` must return `Ok`.
fn decode_op(n: u32, (tag, a, b, c): (u8, u32, u32, u32)) -> Op {
    match tag % 6 {
        0..=2 => {
            let mut deltas = Vec::new();
            let (s, t) = (a % n, b % n);
            if s != t {
                deltas.push(if tag % 2 == 0 {
                    EdgeDelta::add(s, t)
                } else {
                    EdgeDelta::remove(s, t)
                });
            }
            let (s, t) = (b % n, c % n);
            if s != t {
                deltas.push(EdgeDelta::remove(s, t));
            }
            let (s, t) = (c % n, a % n);
            if s != t {
                deltas.push(EdgeDelta::add(s, t));
            }
            if deltas.is_empty() {
                Op::Compact
            } else {
                Op::Apply(deltas)
            }
        }
        3 => Op::Compact,
        _ => Op::Queries,
    }
}

/// Strategy: a small graph, an op interleaving, and a reusable query batch
/// mixing valid, erroring (`s == t`, out-of-range) and clamp-stressing
/// queries.
#[allow(clippy::type_complexity)]
fn graph_ops_and_batch() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, Vec<Op>, Vec<Query>)> {
    (4usize..12).prop_flat_map(|n| {
        let edges = vec((0..n as u32, 0..n as u32), 0..(3 * n));
        let ops = vec((0u8..255, 0u32..64, 0u32..64, 0u32..64), 4..14);
        let seeds = vec((0..n as u32 + 2, 0..n as u32 + 2, 0u32..9), 3..9);
        (edges, ops, seeds).prop_map(move |(edges, ops, seeds)| {
            let ops = ops
                .into_iter()
                .map(|raw| decode_op(n as u32, raw))
                .collect();
            let batch = seeds
                .into_iter()
                .enumerate()
                .map(|(i, (s, t, k))| {
                    let k = if i % 5 == 2 { u32::MAX - k } else { k };
                    Query::new(s, t, k)
                })
                .collect();
            (n, edges, ops, batch)
        })
    })
}

/// Ground-truth slot from a fresh uncached `Eve` on a rebuilt graph.
type Slot = Result<(Vec<(u32, u32)>, usize, u32), String>;

fn rebuild_reference(n: usize, model: &BTreeSet<(u32, u32)>, batch: &[Query]) -> Vec<Slot> {
    let rebuilt = DiGraph::from_edges(n, model.iter().copied());
    let eve = Eve::with_defaults(&rebuilt);
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

/// Runs the interleaving against one cache budget, diffing every query
/// phase (and a final one) against the full-rebuild reference.
fn run_interleaving(
    n: usize,
    initial: &[(u32, u32)],
    ops: &[Op],
    batch: &[Query],
    cache: &SpgCache,
    compact_threshold: usize,
) -> Result<(), String> {
    let mut model: BTreeSet<(u32, u32)> =
        initial.iter().copied().filter(|&(s, t)| s != t).collect();
    let mut vg = VersionedGraph::new(DiGraph::from_edges(n, model.iter().copied()));
    vg.set_compact_threshold(compact_threshold);

    let check = |vg: &VersionedGraph, model: &BTreeSet<(u32, u32)>| -> Result<(), String> {
        let expected = rebuild_reference(n, model, batch);
        let cached = CachedEve::with_defaults(vg, cache);
        for threads in THREAD_COUNTS {
            let results = BatchExecutor::new(threads)
                .run_cached_coalesced_with_deadlines(&cached, &FlightGroup::new(), batch, &[])
                .results;
            prop_assert_eq!(results.len(), expected.len());
            for (i, (got, exp)) in results.iter().zip(&expected).enumerate() {
                match (got, exp) {
                    (Ok(spg), Ok((edges, ub_edges, clamped_k))) => {
                        prop_assert!(
                            spg.edges() == edges.as_slice(),
                            "slot {i} threads {threads}: overlay answer != rebuild"
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
                    (Err(e), Err(msg)) => prop_assert!(
                        &e.to_string() == msg,
                        "slot {i} threads {threads}: {e} != {msg}"
                    ),
                    _ => prop_assert!(false, "slot {i} threads {threads}: Ok/Err mismatch"),
                }
            }
        }
        Ok(())
    };

    for op in ops {
        match op {
            Op::Apply(deltas) => {
                apply_delta_scoped(&mut vg, cache, deltas).map_err(|e| e.to_string())?;
                for d in deltas {
                    match d.op {
                        hop_spg::graph::DeltaOp::Add => {
                            model.insert((d.source, d.target));
                        }
                        hop_spg::graph::DeltaOp::Remove => {
                            model.remove(&(d.source, d.target));
                        }
                    }
                }
            }
            Op::Compact => {
                vg.compact();
            }
            Op::Queries => check(&vg, &model)?,
        }
    }
    check(&vg, &model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of delta batches, compactions and cached parallel
    /// query phases is bit-identical to full rebuilds — with a roomy cache.
    #[test]
    fn interleavings_match_full_rebuild((n, edges, ops, batch) in graph_ops_and_batch()) {
        let cache = SpgCache::new(1 << 20);
        run_interleaving(n, &edges, &ops, &batch, &cache, usize::MAX)?;
    }

    /// The same interleavings under a tiny two-shard budget (perpetual
    /// eviction pressure racing the scoped purges) and a compact threshold
    /// of one patched row, so auto-compaction fires mid-interleaving.
    #[test]
    fn interleavings_survive_tiny_budgets_and_auto_compaction(
        (n, edges, ops, batch) in graph_ops_and_batch()
    ) {
        let cache = SpgCache::with_shards(1024, 2);
        run_interleaving(n, &edges, &ops, &batch, &cache, 1)?;
        prop_assert!(cache.bytes() <= 1024);
    }
}

/// Deterministic medium-scale differential: a long alternating run of
/// delta batches and cached requeries on a random graph, checked against
/// rebuilds both while the overlay is live and after an explicit
/// `compact()`.
#[test]
fn overlay_and_post_purge_answers_match_rebuild_deterministic() {
    let n = 48usize;
    let g = hop_spg::graph::generators::gnm_random(n, 4 * n, 0x9_D17);
    let mut model: BTreeSet<(u32, u32)> = (0..g.vertex_count() as u32)
        .flat_map(|s| {
            g.out_neighbors(s)
                .iter()
                .map(move |&t| (s, t))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut vg = VersionedGraph::new(g);
    let cache = SpgCache::new(1 << 20);

    // SplitMix64 so the delta stream is reproducible without any RNG dep.
    let mut state = 0xDE17A_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let batch: Vec<Query> = (0..24)
        .map(|i| Query::new(i % n as u32, (i * 7 + 3) % n as u32, 2 + i % 5))
        .collect();

    for round in 0..12 {
        let mut deltas = Vec::new();
        for _ in 0..6 {
            let r = next();
            let (s, t) = ((r % n as u64) as u32, ((r >> 20) % n as u64) as u32);
            if s == t {
                continue;
            }
            let d = if r >> 63 == 0 {
                EdgeDelta::add(s, t)
            } else {
                EdgeDelta::remove(s, t)
            };
            match d.op {
                hop_spg::graph::DeltaOp::Add => model.insert((s, t)),
                hop_spg::graph::DeltaOp::Remove => model.remove(&(s, t)),
            };
            deltas.push(d);
        }
        if deltas.is_empty() {
            continue;
        }
        apply_delta_scoped(&mut vg, &cache, &deltas).expect("valid batch");
        if round == 7 {
            vg.compact();
            assert!(!vg.graph().is_overlaid(), "compact folds the overlay");
        }

        let rebuilt = DiGraph::from_edges(n, model.iter().copied());
        let eve = Eve::with_defaults(&rebuilt);
        let cached = CachedEve::with_defaults(&vg, &cache);
        for (i, &q) in batch.iter().enumerate() {
            match (cached.query(q), eve.query(q)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.edges(), b.edges(), "round {round} slot {i}");
                    assert_eq!(
                        a.stats().upper_bound_edges,
                        b.stats().upper_bound_edges,
                        "round {round} slot {i}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "round {round} slot {i}"),
                (a, b) => panic!("round {round} slot {i}: {a:?} vs {b:?}"),
            }
        }
    }
    assert!(
        cache.stats().purged_scoped > 0,
        "twelve delta rounds over a warm cache must scope-purge something"
    );
}
