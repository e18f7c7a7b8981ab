//! Delta-aware updates with scoped cache invalidation.
//!
//! A graph swap re-stamps the version and makes *every* cache entry
//! unreachable; a streaming [`EdgeDelta`] batch keeps the version and pairs
//! the mutation with a **scoped purge**: only entries the batch could have
//! affected are dropped, the rest keep serving hits. The hop budget is what
//! makes this scopable — a `(s, t, k)` answer only sees the part of the
//! graph within `k` hops of the query pair, so a delta far away provably
//! cannot change it.
//!
//! [`InvalidationScope`] encodes two sound (conservative) affect tests:
//!
//! * **Removals** — the pipeline records each answer's *witness*: the sorted
//!   vertex set of its search space `G^k_st` ([`SimplePathGraph::witness`]).
//!   Every `G^k_st` distance is realised by paths inside the space, so an
//!   edge with an endpoint outside the witness is not a space edge and its
//!   removal leaves the space — and therefore the bit-exact answer and
//!   upper bound — untouched. Purge iff **both** endpoints are in the
//!   witness; witness-less entries (baseline-built answers) purge
//!   pessimistically.
//! * **Additions** — tested on the *post-delta* graph with two depth-bounded
//!   multi-source BFS sweeps: `ds(x)` = distance from `x` to the nearest
//!   added-edge source (backward sweep), `dt(x)` = distance from the nearest
//!   added-edge target to `x` (forward sweep). If
//!   `ds(s) + 1 + dt(t) > k`, no added edge lies on any ≤ `k`-hop `s → t`
//!   walk, no search-space distance can have changed, and the entry
//!   survives. Mixing sources and targets of *different* added edges only
//!   over-purges, never under-purges.
//!
//! [`apply_delta_scoped`] is the one-call orchestration the server uses:
//! apply the batch ([`VersionedGraph::apply_delta`] — version unchanged,
//! overlay folds past its threshold), size the BFS depth by the largest
//! resident `k` for this version, build the scope, purge. Callers must
//! serialise it with concurrent cached readers the same way `replace` is
//! serialised (the server runs it under its graph write lock).
//!
//! **What an update costs.** Everything after the apply is paid under that
//! write lock, so it is kept proportional to what the batch touches:
//!
//! * the resident-`k` probe reads per-shard, per-version tallies — O(shards);
//!   when no entry of the version is resident the update stops there, for
//!   additions and removals alike;
//! * the scope build runs the two BFS sweeps only for batches that add
//!   edges, bounded by the resident `k`;
//! * the purge streams each shard's compact rows (64 bytes per entry,
//!   stored column-wise: a 16-byte key with liveness, and a 384-bit
//!   witness signature). The addition test reads the keys alone; the
//!   removal test first checks the signatures for both endpoints of each
//!   removed edge and reads the witness only on a signature hit. A shard holding no entry of the
//!   version is skipped after one tally probe.
//!
//! **A purge that fails never leaves stale answers reachable.** If the
//! scope build or the purge panics or errors (the `update_purge` failpoint
//! injects both), [`apply_delta_scoped`] catches it and restamps the graph
//! ([`VersionedGraph::restamp`], O(1)): the old version is retired, every
//! entry keyed by it becomes unreachable, and the next bind reclaims its
//! bytes. The deltas stay applied and are reported as such.

use std::panic::{catch_unwind, AssertUnwindSafe};

use spg_graph::{
    DeltaError, DeltaVersion, DiGraph, Direction, EdgeDelta, VersionedGraph, VertexId,
};

use crate::cache::SpgCache;
use crate::failpoints::{self, sites};
use crate::query::QueryError;
use crate::spg::SimplePathGraph;

/// Unreachable / beyond-depth sentinel shared with the traversal layer.
const INF: u32 = u32::MAX;

/// Pre-computed affect test for one delta batch (see the module docs).
#[derive(Debug, Clone)]
pub struct InvalidationScope {
    /// Removed edges of the batch (endpoints of `Remove` deltas).
    removed: Vec<(VertexId, VertexId)>,
    /// Addition reachability, present only when the batch adds edges.
    additions: Option<AdditionReach>,
}

/// The two bounded multi-source BFS distance maps of the addition test.
#[derive(Debug, Clone)]
struct AdditionReach {
    /// `ds[x]` = hops from `x` to the nearest added-edge *source*.
    to_sources: Vec<u32>,
    /// `dt[x]` = hops from the nearest added-edge *target* to `x`.
    from_targets: Vec<u32>,
}

impl InvalidationScope {
    /// Builds the scope for `deltas` against the **post-delta** graph.
    /// `max_k` bounds the BFS depth — pass the largest hop constraint
    /// resident in the cache for this graph's version
    /// ([`SpgCache::max_resident_k`]); entries with larger `k` cannot exist,
    /// so deeper exploration would be wasted.
    pub fn build(graph: &DiGraph, deltas: &[EdgeDelta], max_k: u32) -> Self {
        let mut removed = Vec::new();
        let mut add_sources = Vec::new();
        let mut add_targets = Vec::new();
        for d in deltas {
            match d.op {
                spg_graph::DeltaOp::Remove => removed.push((d.source, d.target)),
                spg_graph::DeltaOp::Add => {
                    add_sources.push(d.source);
                    add_targets.push(d.target);
                }
            }
        }
        let additions = (!add_sources.is_empty() && max_k > 0).then(|| AdditionReach {
            to_sources: spg_graph::multi_source_distances(
                graph,
                &add_sources,
                Direction::Backward,
                max_k,
            ),
            from_targets: spg_graph::multi_source_distances(
                graph,
                &add_targets,
                Direction::Forward,
                max_k,
            ),
        });
        InvalidationScope { removed, additions }
    }

    /// `true` when the batch could change the answer of `(source, target,
    /// k)` computed before it was applied. `witness` is the entry's recorded
    /// search-space vertex set, if any (see [`SimplePathGraph::witness`] —
    /// `None` forces a purge whenever the batch removes edges).
    pub fn affects(
        &self,
        source: VertexId,
        target: VertexId,
        k: u32,
        witness: Option<&[VertexId]>,
    ) -> bool {
        self.reaches(source, target, k) || self.removes_from(witness)
    }

    /// The addition test alone: some added edge may lie on a ≤ `k`-hop
    /// `source → target` walk.
    pub(crate) fn reaches(&self, source: VertexId, target: VertexId, k: u32) -> bool {
        let Some(reach) = &self.additions else {
            return false;
        };
        let ds = reach
            .to_sources
            .get(source as usize)
            .copied()
            .unwrap_or(INF);
        let dt = reach
            .from_targets
            .get(target as usize)
            .copied()
            .unwrap_or(INF);
        // In u64 an unreached side (INF = u32::MAX) already exceeds every
        // k, so no branch is needed: a purge runs this once per row.
        u64::from(ds) + 1 + u64::from(dt) <= u64::from(k)
    }

    /// The removal test alone: some removed edge has both endpoints in
    /// `witness` (always, for a witness-less entry, when the batch removes
    /// anything).
    pub(crate) fn removes_from(&self, witness: Option<&[VertexId]>) -> bool {
        if self.removed.is_empty() {
            return false;
        }
        match witness {
            None => true,
            Some(w) => self
                .removed
                .iter()
                .any(|&(u, v)| w.binary_search(&u).is_ok() && w.binary_search(&v).is_ok()),
        }
    }

    /// `true` when the batch adds edges (and the addition test can fire).
    pub(crate) fn adds_edges(&self) -> bool {
        self.additions.is_some()
    }

    /// The removed edges of the batch.
    pub(crate) fn removed_edges(&self) -> &[(VertexId, VertexId)] {
        &self.removed
    }

    /// `true` when the scope can never match anything (an all-no-op batch).
    pub fn is_vacuous(&self) -> bool {
        self.removed.is_empty() && self.additions.is_none()
    }
}

/// Receipt of one [`apply_delta_scoped`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaUpdate {
    /// The (unchanged-version) delta receipt from the graph layer.
    pub delta: DeltaVersion,
    /// Cache entries dropped by the scoped purge.
    pub purged: usize,
}

/// Applies `deltas` to `graph` and purges exactly the cache entries the
/// batch could have affected (see the module docs for the soundness
/// argument and the cost). On `Err` neither the graph nor the cache
/// changed. The caller serialises this against concurrent cached readers of
/// the same graph — `&mut VersionedGraph` already excludes same-thread
/// readers, and the server performs it under its graph write lock.
///
/// If the scope build or the purge panics or errors, the graph is
/// restamped ([`VersionedGraph::restamp`]) so no entry of the old version
/// stays reachable; the deltas remain applied, the receipt still reports
/// them (under the pre-restamp version) and `purged` is 0 — the orphaned
/// entries are reclaimed as stale on the next [`crate::CachedEve`] bind.
pub fn apply_delta_scoped(
    graph: &mut VersionedGraph,
    cache: &SpgCache,
    deltas: &[EdgeDelta],
) -> Result<DeltaUpdate, DeltaError> {
    let delta = graph.apply_delta(deltas)?;
    let version = graph.version();
    let scoped = catch_unwind(AssertUnwindSafe(|| -> Result<usize, QueryError> {
        failpoints::check(sites::UPDATE_PURGE)?;
        // Depth-bound the BFS sweeps by the deepest entry that could be
        // hit; with no entry of this version resident there is nothing to
        // purge, whatever the batch does.
        let Some(max_k) = cache.resident_k(version) else {
            return Ok(0);
        };
        let scope = InvalidationScope::build(graph.graph(), deltas, max_k);
        Ok(if scope.is_vacuous() {
            0
        } else {
            cache.purge_scoped(version, &scope)
        })
    }));
    let purged = match scoped {
        Ok(Ok(purged)) => purged,
        Ok(Err(_)) | Err(_) => {
            graph.restamp();
            0
        }
    };
    Ok(DeltaUpdate { delta, purged })
}

/// Convenience for harnesses: the witness an answer would need for the
/// removal test when the pipeline did not attach one — the sorted incident
/// vertex set of the answer edges (hash-free via
/// [`spg_graph::EdgeSubgraph::sorted_vertices`]). Note this is **not** a
/// sound substitute for the search-space witness (the recorded upper bound
/// can depend on vertices outside the answer); it exists for experiments
/// that only compare answer edges.
pub fn answer_vertices(spg: &SimplePathGraph) -> Vec<VertexId> {
    spg.as_subgraph().sorted_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedEve;
    use crate::paper_example::{self, names::*};
    use crate::query::Query;

    #[test]
    fn additions_far_from_the_pair_do_not_affect_it() {
        // Path 0 -> 1 -> 2 plus a far-away pair 3 -> 4.
        let mut g = DiGraph::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        g.apply_delta(&[EdgeDelta::add(4, 5)]).unwrap();
        let scope = InvalidationScope::build(&g, &[EdgeDelta::add(4, 5)], 4);
        assert!(
            !scope.affects(0, 2, 4, None),
            "added edge unreachable from the (0, 2) pair"
        );
        assert!(scope.affects(3, 5, 2, None), "pair that crosses the edge");
        assert!(
            !scope.affects(3, 5, 1, None),
            "k too small to cross the added edge"
        );
    }

    #[test]
    fn removals_consult_the_witness() {
        let scope = InvalidationScope::build(
            &DiGraph::from_edges(8, [(0, 1)]),
            &[EdgeDelta::remove(5, 6)],
            4,
        );
        assert!(scope.affects(0, 1, 4, None), "no witness: pessimistic");
        assert!(
            scope.affects(0, 1, 4, Some(&[0, 1, 5, 6])),
            "both endpoints"
        );
        assert!(!scope.affects(0, 1, 4, Some(&[0, 1, 5])), "target outside");
        assert!(!scope.affects(0, 1, 4, Some(&[0, 1])), "both outside");
        assert!(!scope.is_vacuous());
        assert!(InvalidationScope::build(&DiGraph::empty(2), &[], 4).is_vacuous());
    }

    /// End-to-end: survivors keep serving hits, affected entries recompute
    /// to the post-delta answer.
    #[test]
    fn apply_delta_scoped_purges_only_affected_entries() {
        let mut vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        {
            let cached = CachedEve::with_defaults(&vg, &cache);
            cached.query(Query::new(S, T, 4)).unwrap();
            cached.query(Query::new(I, J, 1)).unwrap(); // i -> j, disjoint from (s,t,4) space
        }
        assert_eq!(cache.len(), 2);
        // Remove c -> t: inside the (S,T,4) space, outside the (I,J,1) one.
        let up = apply_delta_scoped(&mut vg, &cache, &[EdgeDelta::remove(C, T)]).unwrap();
        assert_eq!(up.purged, 1, "only the affected entry is dropped");
        assert_eq!(cache.len(), 1);
        let cached = CachedEve::with_defaults(&vg, &cache);
        let hits_before = cache.stats().hits;
        cached.query(Query::new(I, J, 1)).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1, "survivor still hits");
        // The recomputed answer matches a full rebuild.
        let recomputed = cached.query(Query::new(S, T, 4)).unwrap();
        let mut edges: Vec<_> = paper_example::figure1_graph().edges().collect();
        edges.retain(|&e| e != (C, T));
        let rebuilt = VersionedGraph::from_edges(8, edges);
        let reference = crate::Eve::with_defaults(rebuilt.graph())
            .query(Query::new(S, T, 4))
            .unwrap();
        assert_eq!(recomputed.edges(), reference.edges());
    }

    #[test]
    fn empty_cache_skips_the_sweep_and_errors_pass_through() {
        let mut vg = VersionedGraph::from_edges(4, [(0, 1), (1, 2)]);
        let cache = SpgCache::new(1 << 16);
        let up = apply_delta_scoped(&mut vg, &cache, &[EdgeDelta::add(2, 3)]).unwrap();
        assert_eq!(up.purged, 0);
        assert_eq!(up.delta.seq, 1);
        assert!(apply_delta_scoped(&mut vg, &cache, &[EdgeDelta::add(0, 9)]).is_err());
        assert_eq!(vg.delta_seq(), 1, "rejected batch left the graph alone");

        // A removal with nothing of this version resident skips the sweep
        // too: another graph's witness-less entry, which any scoped sweep
        // of its own version would purge, is not even looked at.
        let other = VersionedGraph::from_edges(4, [(0, 1), (1, 2)]);
        CachedEve::with_defaults(&other, &cache)
            .query(Query::new(0, 2, 2))
            .unwrap();
        let up = apply_delta_scoped(&mut vg, &cache, &[EdgeDelta::remove(0, 1)]).unwrap();
        assert_eq!((up.purged, up.delta.applied, up.delta.seq), (0, 1, 2));
        assert_eq!(cache.len(), 1, "the other graph's entry survives");
        assert_eq!(cache.max_resident_k(vg.version()), 0);
    }

    #[test]
    fn answer_vertices_are_sorted() {
        let g = paper_example::figure1_graph();
        let spg = crate::Eve::with_defaults(&g)
            .query(Query::new(S, T, 4))
            .unwrap();
        let verts = answer_vertices(&spg);
        assert!(verts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(verts.len(), spg.vertex_count());
    }
}
