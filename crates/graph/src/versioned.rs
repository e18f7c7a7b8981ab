//! Version-stamped graph handles for result-cache invalidation.
//!
//! A [`DiGraph`] is immutable, so "mutation" in this workspace historically
//! meant building a new graph and swapping it in. Anything that memoises
//! per-graph answers (notably `spg_core`'s result cache) must be able to
//! tell those swaps apart: serving an answer computed on the pre-swap graph
//! would be a correctness bug, not a staleness nuisance. [`VersionedGraph`]
//! makes the distinction structural — every handle carries a
//! [`GraphVersion`] drawn from one process-wide monotone counter, and every
//! replacement draws a fresh stamp:
//!
//! * two *different* graph snapshots can never share a version, even across
//!   independent `VersionedGraph` values (the counter is global, not
//!   per-handle), so a cache keyed by `(version, query)` can serve entries
//!   for many graphs at once without cross-talk;
//! * a version is never reused, even if a replacement happens to rebuild a
//!   bit-identical graph — invalidation errs on the side of recomputing.
//!
//! Two mutation paths coexist:
//!
//! * [`VersionedGraph::replace`] / [`VersionedGraph::update`] — wholesale
//!   snapshot swaps. These re-stamp the version and record the old stamp in
//!   the **retired list**, which cache layers drain to purge the now
//!   permanently-unreachable entries eagerly instead of waiting for LRU
//!   pressure. [`VersionedGraph::restamp`] does the same in O(1) without
//!   touching the graph: the fallback when a delta's scoped purge fails.
//! * [`VersionedGraph::apply_delta`] — streaming edge deltas applied as a
//!   CSR overlay ([`DiGraph::apply_delta`]). The version is deliberately
//!   **unchanged**: cache entries whose answers survive the delta stay
//!   reachable, and the caller pairs the delta with a *scoped* purge of the
//!   entries it actually affected (see `spg_core`'s dynamic-update module).
//!   Once the overlay outgrows [`VersionedGraph::compact_threshold`], it is
//!   folded into a fresh CSR automatically — a pure representation change
//!   that keeps version and cache entries intact.
//!
//! The handle dereferences to [`DiGraph`], so read-side code (queries,
//! traversal, statistics) works on a `&VersionedGraph` unchanged.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::csr::{DiGraph, VertexId};
use crate::delta::{DeltaError, DeltaVersion, EdgeDelta};

/// Monotone, process-wide unique stamp identifying one graph snapshot.
pub type GraphVersion = u64;

/// Source of version stamps. Starts at 1 so 0 can serve as a "no version"
/// sentinel in downstream code that wants one.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// Retired stamps kept per handle; older ones are dropped FIFO (they are a
/// purge hint, not a correctness requirement — version-keyed lookups can
/// never hit a retired version anyway).
const MAX_RETIRED: usize = 64;

fn fresh_version() -> GraphVersion {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed) // spg-analyze: allow(hot-loop) — once per graph build, nowhere near a query loop
}

/// A [`DiGraph`] plus the [`GraphVersion`] of its current snapshot (see the
/// module docs for the invalidation contract).
///
/// ```
/// use spg_graph::{EdgeDelta, VersionedGraph};
///
/// let mut vg = VersionedGraph::from_edges(3, [(0, 1), (1, 2)]);
/// let v0 = vg.version();
/// assert_eq!(vg.edge_count(), 2); // derefs to DiGraph
///
/// // Streaming path: the version survives a delta batch.
/// let dv = vg.apply_delta(&[EdgeDelta::add(0, 2)]).unwrap();
/// assert_eq!(dv.version, v0);
/// assert_eq!(vg.edge_count(), 3);
///
/// // Wholesale swap: fresh stamp, old one lands on the retired list.
/// let v1 = vg.update(|g| {
///     let edges: Vec<_> = g.edges().collect();
///     spg_graph::DiGraph::from_edges(g.vertex_count(), edges)
/// });
/// assert!(v1 > v0, "every snapshot swap bumps the version");
/// assert_eq!(vg.retired(), &[v0]);
/// ```
#[derive(Debug, Clone)]
pub struct VersionedGraph {
    graph: DiGraph,
    version: GraphVersion,
    /// Delta batches applied to the current snapshot.
    delta_seq: u64,
    /// Versions retired by `replace`/`update`, newest last (bounded FIFO).
    retired: Vec<GraphVersion>,
    /// Overlay row count beyond which `apply_delta` folds the overlay.
    compact_threshold: usize,
    /// Overlay folds performed (automatic and explicit).
    compactions: u64,
}

impl VersionedGraph {
    /// Wraps `graph` in a handle stamped with a fresh version.
    pub fn new(graph: DiGraph) -> Self {
        let compact_threshold = Self::default_compact_threshold(&graph);
        VersionedGraph {
            graph,
            version: fresh_version(),
            delta_seq: 0,
            retired: Vec::new(),
            compact_threshold,
            compactions: 0,
        }
    }

    /// Builds a stamped graph directly from an edge iterator
    /// (see [`DiGraph::from_edges`]).
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        VersionedGraph::new(DiGraph::from_edges(n, edges))
    }

    /// Default overlay-fold threshold: an overlay touching more than an
    /// eighth of the vertices (but at least 64 rows) has lost its locality
    /// advantage over a rebuild.
    fn default_compact_threshold(graph: &DiGraph) -> usize {
        (graph.vertex_count() / 8).max(64)
    }

    /// The current snapshot's version stamp.
    #[inline]
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// The current graph snapshot. Equivalent to the `Deref` impl; useful
    /// when an explicit `&DiGraph` is clearer than a coercion.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Applies a batch of edge deltas to the current snapshot as a CSR
    /// overlay ([`DiGraph::apply_delta`]); validation is atomic — on `Err`
    /// nothing changed. The version stamp is **unchanged** (cache entries
    /// unaffected by the batch stay reachable); the returned
    /// [`DeltaVersion`] pairs it with the per-snapshot batch sequence
    /// number. Folds the overlay into a fresh CSR when it outgrows
    /// [`VersionedGraph::compact_threshold`].
    pub fn apply_delta(&mut self, deltas: &[EdgeDelta]) -> Result<DeltaVersion, DeltaError> {
        let applied = self.graph.apply_delta(deltas)?;
        self.delta_seq += 1;
        if self.graph.overlay_rows() > self.compact_threshold {
            self.graph.compact();
            self.compactions += 1;
        }
        Ok(DeltaVersion {
            version: self.version,
            seq: self.delta_seq,
            applied,
        })
    }

    /// Explicitly folds any pending overlay into a fresh CSR (a pure
    /// representation change: same graph, same version, cache entries stay
    /// valid). Returns `true` when an overlay was folded.
    pub fn compact(&mut self) -> bool {
        let folded = self.graph.compact();
        if folded {
            self.compactions += 1;
        }
        folded
    }

    /// Overlay row count beyond which [`VersionedGraph::apply_delta`] folds
    /// automatically.
    #[inline]
    pub fn compact_threshold(&self) -> usize {
        self.compact_threshold
    }

    /// Overrides the automatic fold threshold (clamped to ≥ 1).
    pub fn set_compact_threshold(&mut self, rows: usize) {
        self.compact_threshold = rows.max(1);
    }

    /// Number of overlay folds performed so far (automatic and explicit).
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Delta batches applied to the current snapshot.
    #[inline]
    pub fn delta_seq(&self) -> u64 {
        self.delta_seq
    }

    /// Versions retired by snapshot swaps, oldest first. Cache layers purge
    /// these eagerly (`spg_core`'s `SpgCache::purge_versions`); the list is
    /// bounded, so it is a purge *hint* — a version falling off the end just
    /// means its entries wait for LRU pressure as before.
    #[inline]
    pub fn retired(&self) -> &[GraphVersion] {
        &self.retired
    }

    fn retire_current(&mut self) {
        if self.retired.len() == MAX_RETIRED {
            self.retired.remove(0);
        }
        self.retired.push(self.version);
    }

    /// Replaces the snapshot with `graph`, returning the fresh version stamp
    /// and retiring the old one. Requires `&mut self`, so no
    /// `&VersionedGraph` borrow (e.g. a live cached-query handle) can
    /// outlive the swap.
    pub fn replace(&mut self, graph: DiGraph) -> GraphVersion {
        self.compact_threshold = Self::default_compact_threshold(&graph);
        self.graph = graph;
        self.restamp()
    }

    /// Declares the current graph a new snapshot without touching it:
    /// retires the old stamp, which orphans every cache entry keyed by it,
    /// and draws a fresh one. `update(|g| g.clone())` minus the copy, so
    /// O(1); the per-snapshot delta sequence restarts at 0. The fallback
    /// when a delta batch's scoped purge cannot complete.
    pub fn restamp(&mut self) -> GraphVersion {
        self.retire_current();
        self.version = fresh_version();
        self.delta_seq = 0;
        self.version
    }

    /// Rebuilds the snapshot through `f` (e.g. add/remove edges by
    /// constructing a new [`DiGraph`]) and stamps the result, returning the
    /// fresh version.
    pub fn update<F>(&mut self, f: F) -> GraphVersion
    where
        F: FnOnce(&DiGraph) -> DiGraph,
    {
        let next = f(&self.graph);
        self.replace(next)
    }

    /// Unwraps the handle into its graph, discarding the version.
    pub fn into_graph(self) -> DiGraph {
        self.graph
    }
}

impl Deref for VersionedGraph {
    type Target = DiGraph;

    #[inline]
    fn deref(&self) -> &DiGraph {
        &self.graph
    }
}

impl From<DiGraph> for VersionedGraph {
    fn from(graph: DiGraph) -> Self {
        VersionedGraph::new(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_unique_across_handles() {
        let a = VersionedGraph::from_edges(2, [(0, 1)]);
        let b = VersionedGraph::from_edges(2, [(0, 1)]);
        assert_ne!(
            a.version(),
            b.version(),
            "identical contents still get distinct stamps"
        );
    }

    #[test]
    fn replace_and_update_bump_monotonically_and_retire() {
        let mut vg = VersionedGraph::from_edges(3, [(0, 1), (1, 2)]);
        let v0 = vg.version();
        let v1 = vg.replace(DiGraph::from_edges(3, [(0, 1)]));
        assert!(v1 > v0);
        assert_eq!(vg.version(), v1);
        assert_eq!(vg.edge_count(), 1);
        assert_eq!(vg.retired(), &[v0]);
        // Rebuilding a bit-identical graph still invalidates.
        let v2 = vg.update(|g| g.clone());
        assert!(v2 > v1);
        assert_eq!(vg.retired(), &[v0, v1]);
    }

    #[test]
    fn restamp_retires_the_version_and_keeps_the_graph() {
        let mut vg = VersionedGraph::from_edges(3, [(0, 1), (1, 2)]);
        vg.apply_delta(&[EdgeDelta::add(0, 2)]).unwrap();
        let v0 = vg.version();
        let v1 = vg.restamp();
        assert!(v1 > v0);
        assert_eq!(vg.version(), v1);
        assert_eq!(vg.retired(), &[v0]);
        assert_eq!(vg.delta_seq(), 0);
        assert_eq!(
            vg.edge_count(),
            3,
            "the graph, overlay included, is untouched"
        );
        assert!(vg.has_edge(0, 2));
    }

    #[test]
    fn retired_list_is_bounded() {
        let mut vg = VersionedGraph::from_edges(2, [(0, 1)]);
        let first_retired = vg.version();
        for _ in 0..MAX_RETIRED + 5 {
            vg.update(|g| g.clone());
        }
        assert_eq!(vg.retired().len(), MAX_RETIRED);
        assert!(!vg.retired().contains(&first_retired), "oldest dropped");
    }

    #[test]
    fn deltas_keep_the_version_and_count_batches() {
        let mut vg = VersionedGraph::from_edges(4, [(0, 1), (1, 2)]);
        let v0 = vg.version();
        let d1 = vg.apply_delta(&[EdgeDelta::add(2, 3)]).unwrap();
        let d2 = vg.apply_delta(&[EdgeDelta::remove(0, 1)]).unwrap();
        assert_eq!(d1.version, v0);
        assert_eq!(d2.version, v0);
        assert_eq!((d1.seq, d2.seq), (1, 2));
        assert_eq!(vg.version(), v0, "deltas never re-stamp");
        assert_eq!(vg.delta_seq(), 2);
        assert!(vg.retired().is_empty());
        assert!(vg.has_edge(2, 3));
        assert!(!vg.has_edge(0, 1));
        // A rejected batch changes nothing.
        assert!(vg.apply_delta(&[EdgeDelta::add(0, 9)]).is_err());
        assert_eq!(vg.delta_seq(), 2);
        // Replace resets the per-snapshot sequence.
        vg.replace(DiGraph::from_edges(4, [(0, 1)]));
        assert_eq!(vg.delta_seq(), 0);
    }

    #[test]
    fn overlay_folds_past_the_threshold() {
        let mut vg = VersionedGraph::from_edges(6, [(0, 1), (1, 2), (2, 3)]);
        vg.set_compact_threshold(2);
        assert_eq!(vg.compact_threshold(), 2);
        vg.apply_delta(&[EdgeDelta::add(3, 4)]).unwrap();
        assert!(vg.is_overlaid(), "two patched rows stay under threshold 2");
        let v = vg.version();
        vg.apply_delta(&[EdgeDelta::add(4, 5)]).unwrap();
        assert!(!vg.is_overlaid(), "threshold crossing folds the overlay");
        assert_eq!(vg.compactions(), 1);
        assert_eq!(vg.version(), v, "a fold never re-stamps");
        assert!(vg.has_edge(3, 4) && vg.has_edge(4, 5));
        // Explicit compaction on a clean graph is a no-op.
        assert!(!vg.compact());
        assert_eq!(vg.compactions(), 1);
        vg.apply_delta(&[EdgeDelta::remove(0, 1)]).unwrap();
        assert!(vg.compact());
        assert_eq!(vg.compactions(), 2);
    }

    #[test]
    fn deref_and_accessors_expose_the_snapshot() {
        let vg = VersionedGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(vg.vertex_count(), 4);
        assert!(vg.has_edge(1, 2));
        assert_eq!(vg.graph().edge_count(), 3);
        let g = vg.clone().into_graph();
        assert_eq!(&g, vg.graph());
        let from: VersionedGraph = g.into();
        assert_eq!(from.edge_count(), 3);
    }

    #[test]
    fn clone_preserves_the_version_of_the_same_snapshot() {
        let vg = VersionedGraph::from_edges(2, [(0, 1)]);
        let cl = vg.clone();
        // A clone is the *same* snapshot, so sharing the stamp is correct;
        // any mutation of either handle re-stamps from the global counter.
        assert_eq!(vg.version(), cl.version());
        let mut cl = cl;
        let v = cl.replace(DiGraph::empty(2));
        assert_ne!(v, vg.version());
    }
}
