//! Compressed sparse row (CSR) storage for immutable directed graphs.
//!
//! [`DiGraph`] stores both the out-adjacency and the in-adjacency of a
//! directed graph. The EVE algorithm needs both: forward propagation and
//! forward BFS walk out-edges, backward propagation / backward BFS walk
//! in-edges (equivalently, the out-edges of the reversed graph `Gʳ`). Keeping
//! both directions inside one structure avoids materialising a second graph
//! per query.
//!
//! Vertices are dense `u32` identifiers `0..n`. Edges are identified by their
//! position in the out-adjacency array ([`EdgeId`]), which gives every edge a
//! stable dense id that the edge-labeling phase of EVE uses for its per-edge
//! label array. Adjacency lists are sorted, so `has_edge`/`edge_id` are
//! `O(log d)` binary searches and neighbourhood intersections stream in
//! order.

use std::sync::Arc;

use crate::builder::GraphBuilder;
use crate::delta::{validate_deltas, DeltaError, DeltaOp, EdgeDelta};

/// Dense vertex identifier (`0..vertex_count`).
pub type VertexId = u32;

/// Dense edge identifier: the position of the edge in out-adjacency order.
pub type EdgeId = u32;

/// One adjacency direction of a delta overlay: the handful of vertices whose
/// rows differ from the base CSR each own a full replacement row (merged,
/// sorted, deduplicated — byte-identical to what a from-scratch rebuild
/// would produce for that vertex).
#[derive(Clone, PartialEq, Eq)]
struct PatchSide {
    /// Per-vertex slot into `rows`; `u32::MAX` means "row unpatched".
    idx: Vec<u32>,
    /// Replacement adjacency rows for the patched vertices.
    rows: Vec<Vec<VertexId>>,
}

impl PatchSide {
    fn new(n: usize) -> Self {
        PatchSide {
            idx: vec![u32::MAX; n],
            rows: Vec::new(),
        }
    }

    /// The replacement row for `v`, if `v` is patched.
    #[inline]
    fn row(&self, v: VertexId) -> Option<&[VertexId]> {
        let slot = self.idx[v as usize];
        if slot == u32::MAX {
            None
        } else {
            Some(&self.rows[slot as usize])
        }
    }

    /// The mutable replacement row for `v`, materialising it from `base` on
    /// first touch.
    fn row_mut(&mut self, v: VertexId, base: &[VertexId]) -> &mut Vec<VertexId> {
        let mut slot = self.idx[v as usize];
        if slot == u32::MAX {
            slot = self.rows.len() as u32;
            self.idx[v as usize] = slot;
            self.rows.push(base.to_vec());
        }
        &mut self.rows[slot as usize]
    }

    fn memory_bytes(&self) -> usize {
        self.idx.len() * std::mem::size_of::<u32>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * std::mem::size_of::<VertexId>())
                .sum::<usize>()
    }
}

/// The delta overlay of a [`DiGraph`]: patched rows for both adjacency
/// directions plus the effective edge count of the merged graph.
#[derive(Clone, PartialEq, Eq)]
struct Overlay {
    out: PatchSide,
    inc: PatchSide,
    edge_count: usize,
}

/// The base CSR arrays of a [`DiGraph`], never mutated once built.
#[derive(PartialEq, Eq)]
struct Csr {
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets` for vertex `u`.
    out_offsets: Vec<u32>,
    /// Concatenated, per-vertex-sorted out-neighbour lists.
    out_targets: Vec<VertexId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources` for vertex `v`.
    in_offsets: Vec<u32>,
    /// Concatenated, per-vertex-sorted in-neighbour lists.
    in_sources: Vec<VertexId>,
}

impl Csr {
    /// Out-neighbours of `u`, ignoring any overlay.
    #[inline]
    fn out_row(&self, u: VertexId) -> &[VertexId] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `v`, ignoring any overlay.
    #[inline]
    fn in_row(&self, v: VertexId) -> &[VertexId] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }
}

/// An immutable directed graph in CSR form with out- and in-adjacency.
///
/// "Immutable" describes the base CSR arrays; [`DiGraph::apply_delta`] layers
/// an **overlay** of patched adjacency rows on top without rebuilding them.
/// Every traversal accessor (`neighbors`, `edges`, degrees, `has_edge`, …)
/// merges base + overlay at lookup time, so engines observe exactly the
/// graph a from-scratch rebuild would produce; [`DiGraph::compact`] folds
/// the overlay into fresh CSR arrays. `PartialEq` is representational (an
/// overlaid graph and its compacted twin compare unequal) — compare
/// [`DiGraph::edges`] for semantic equality.
///
/// `clone` is O(1): the base arrays and the overlay sit behind shared
/// [`Arc`]s. A clone is still an independent graph — `apply_delta` copies
/// a shared overlay before patching it, and `compact` builds fresh arrays —
/// so mutating one side never changes what the other observes.
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    /// The base CSR, shared by every clone.
    base: Arc<Csr>,
    /// Patched rows from applied [`EdgeDelta`] batches, if any.
    overlay: Option<Arc<Overlay>>,
}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiGraph")
            .field("vertices", &self.vertex_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl DiGraph {
    /// Builds a graph from raw CSR arrays. Intended for use by
    /// [`GraphBuilder`]; invariants (sorted adjacency, consistent offsets)
    /// must already hold.
    pub(crate) fn from_csr_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<VertexId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), in_offsets.len());
        debug_assert_eq!(out_targets.len(), in_sources.len());
        DiGraph {
            base: Arc::new(Csr {
                out_offsets,
                out_targets,
                in_offsets,
                in_sources,
            }),
            overlay: None,
        }
    }

    /// Creates an empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Convenience constructor: builds a graph with `n` vertices from an edge
    /// iterator, deduplicating parallel edges and dropping self-loops
    /// (self-loops can never participate in a simple path).
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.base.out_offsets.len() - 1
    }

    /// Number of directed edges (overlay-aware).
    #[inline]
    pub fn edge_count(&self) -> usize {
        match &self.overlay {
            Some(o) => o.edge_count,
            None => self.base.out_targets.len(),
        }
    }

    /// `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count() as VertexId
    }

    /// Out-neighbours of `u`, sorted ascending (overlay-aware: a patched row
    /// shadows the base CSR, still a plain slice fetch plus one branch).
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        if let Some(o) = &self.overlay {
            if let Some(row) = o.out.row(u) {
                return row;
            }
        }
        self.base.out_row(u)
    }

    /// In-neighbours of `v`, sorted ascending (overlay-aware).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        if let Some(o) = &self.overlay {
            if let Some(row) = o.inc.row(v) {
                return row;
            }
        }
        self.base.in_row(v)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.in_degree(v) + self.out_degree(v)
    }

    /// Neighbours in a chosen direction: out-neighbours for
    /// [`Direction::Forward`], in-neighbours for [`Direction::Backward`].
    #[inline]
    pub fn neighbors(&self, v: VertexId, dir: Direction) -> &[VertexId] {
        match dir {
            Direction::Forward => self.out_neighbors(v),
            Direction::Backward => self.in_neighbors(v),
        }
    }

    /// `true` if the directed edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Dense id of edge `(u, v)` if present.
    ///
    /// Dense edge ids index the **base** CSR; on an overlaid graph call
    /// [`DiGraph::compact`] first to re-densify them.
    #[inline]
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        debug_assert!(self.overlay.is_none(), "edge ids index the base CSR");
        let base = self.base.out_offsets[u as usize];
        self.base
            .out_row(u)
            .binary_search(&v)
            .ok()
            .map(|pos| base + pos as EdgeId)
    }

    /// Endpoints `(u, v)` of the edge with dense id `e` (base CSR; see
    /// [`DiGraph::edge_id`]).
    ///
    /// `O(log n)` — the source vertex is located by binary search over the
    /// offset array.
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        debug_assert!(self.overlay.is_none(), "edge ids index the base CSR");
        debug_assert!((e as usize) < self.base.out_targets.len());
        let v = self.base.out_targets[e as usize];
        // partition_point returns the first u with offset > e, so source = u-1.
        let u = self.base.out_offsets.partition_point(|&off| off <= e) - 1;
        (u as VertexId, v)
    }

    /// Iterator over `(EdgeId, source, target)` for the out-edges of `u`
    /// (base CSR; see [`DiGraph::edge_id`]).
    #[inline]
    pub fn out_edges(&self, u: VertexId) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        debug_assert!(self.overlay.is_none(), "edge ids index the base CSR");
        let base = self.base.out_offsets[u as usize];
        self.base
            .out_row(u)
            .iter()
            .enumerate()
            .map(move |(i, &v)| (base + i as EdgeId, v))
    }

    /// Iterator over all edges as `(source, target)` pairs in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterator over all edges as `(EdgeId, source, target)` triples
    /// (base CSR; see [`DiGraph::edge_id`]).
    pub fn edges_with_ids(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        debug_assert!(self.overlay.is_none(), "edge ids index the base CSR");
        self.vertices().flat_map(move |u| {
            let base = self.base.out_offsets[u as usize];
            self.base
                .out_row(u)
                .iter()
                .enumerate()
                .map(move |(i, &v)| (base + i as EdgeId, u, v))
        })
    }

    /// Returns the reversed graph `Gʳ` (every edge flipped). An overlay is
    /// carried over with its patch sides swapped, so the reversal of an
    /// overlaid graph is the overlaid reversal.
    ///
    /// Note that most algorithms in this workspace do not need this: backward
    /// traversal can use [`DiGraph::in_neighbors`] directly. The method is
    /// mainly useful for tests and for feeding forward-only third-party code.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            base: Arc::new(Csr {
                out_offsets: self.base.in_offsets.clone(),
                out_targets: self.base.in_sources.clone(),
                in_offsets: self.base.out_offsets.clone(),
                in_sources: self.base.out_targets.clone(),
            }),
            overlay: self.overlay.as_ref().map(|o| {
                Arc::new(Overlay {
                    out: o.inc.clone(),
                    inc: o.out.clone(),
                    edge_count: o.edge_count,
                })
            }),
        }
    }

    /// Maximum of in- and out-degree over all vertices (`d_max` in the paper).
    pub fn max_degree(&self) -> usize {
        self.vertices()
            .map(|v| self.out_degree(v).max(self.in_degree(v)))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree (`d_avg = |E| / |V|`).
    pub fn avg_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.vertex_count() as f64
        }
    }

    /// Approximate heap footprint of the CSR arrays (plus any overlay) in
    /// bytes.
    pub fn memory_bytes(&self) -> usize {
        let base = &self.base;
        (base.out_offsets.len() + base.in_offsets.len()) * std::mem::size_of::<u32>()
            + (base.out_targets.len() + base.in_sources.len()) * std::mem::size_of::<VertexId>()
            + self
                .overlay
                .as_ref()
                .map_or(0, |o| o.out.memory_bytes() + o.inc.memory_bytes())
    }

    /// Applies a batch of edge deltas as an overlay patch, returning how many
    /// deltas actually changed the graph (adding a present edge or removing
    /// an absent one is an idempotent no-op). The batch is validated as a
    /// unit **before** any mutation — on `Err` the graph is untouched.
    ///
    /// After the call every traversal accessor observes the merged graph,
    /// edge-for-edge identical to `DiGraph::from_edges` over the mutated
    /// edge list; only the touched adjacency rows were copied. Dense edge
    /// ids are not maintained by the overlay — [`DiGraph::compact`]
    /// re-densifies them.
    pub fn apply_delta(&mut self, deltas: &[EdgeDelta]) -> Result<usize, DeltaError> {
        validate_deltas(self, deltas)?;
        if deltas.is_empty() {
            return Ok(0);
        }
        let n = self.vertex_count();
        let base = &self.base;
        let mut shared = self.overlay.take().unwrap_or_else(|| {
            Arc::new(Overlay {
                out: PatchSide::new(n),
                inc: PatchSide::new(n),
                edge_count: base.out_targets.len(),
            })
        });
        // Copy-on-write: a clone still holding this overlay keeps its rows.
        let overlay = Arc::make_mut(&mut shared);
        let mut applied = 0usize;
        for d in deltas {
            let present = match overlay.out.row(d.source) {
                Some(row) => row.binary_search(&d.target).is_ok(),
                None => base.out_row(d.source).binary_search(&d.target).is_ok(),
            };
            match d.op {
                DeltaOp::Add if !present => {
                    let row = overlay.out.row_mut(d.source, base.out_row(d.source));
                    if let Err(pos) = row.binary_search(&d.target) {
                        row.insert(pos, d.target);
                    }
                    let row = overlay.inc.row_mut(d.target, base.in_row(d.target));
                    if let Err(pos) = row.binary_search(&d.source) {
                        row.insert(pos, d.source);
                    }
                    overlay.edge_count += 1;
                    applied += 1;
                }
                DeltaOp::Remove if present => {
                    let row = overlay.out.row_mut(d.source, base.out_row(d.source));
                    if let Ok(pos) = row.binary_search(&d.target) {
                        row.remove(pos);
                    }
                    let row = overlay.inc.row_mut(d.target, base.in_row(d.target));
                    if let Ok(pos) = row.binary_search(&d.source) {
                        row.remove(pos);
                    }
                    overlay.edge_count -= 1;
                    applied += 1;
                }
                _ => {}
            }
        }
        self.overlay = Some(shared);
        Ok(applied)
    }

    /// `true` when delta patches are currently overlaid on the base CSR.
    #[inline]
    pub fn is_overlaid(&self) -> bool {
        self.overlay.is_some()
    }

    /// Number of patched adjacency rows (both directions) in the overlay —
    /// the measure [`crate::VersionedGraph`] compares against its compaction
    /// threshold.
    pub fn overlay_rows(&self) -> usize {
        self.overlay
            .as_ref()
            .map_or(0, |o| o.out.rows.len() + o.inc.rows.len())
    }

    /// Folds the overlay into fresh CSR arrays, restoring dense edge ids.
    /// Returns `false` (and does nothing) when no overlay is present. The
    /// merged structure is unchanged, so answers (and cache entries keyed by
    /// the owning snapshot's version) remain valid across a compaction.
    pub fn compact(&mut self) -> bool {
        let Some(o) = self.overlay.take() else {
            return false;
        };
        let n = self.vertex_count();
        let base = &self.base;
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(o.edge_count);
        out_offsets.push(0u32);
        for u in 0..n as VertexId {
            let row = o.out.row(u).unwrap_or_else(|| base.out_row(u));
            out_targets.extend_from_slice(row);
            out_offsets.push(out_targets.len() as u32);
        }
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(o.edge_count);
        in_offsets.push(0u32);
        for v in 0..n as VertexId {
            let row = o.inc.row(v).unwrap_or_else(|| base.in_row(v));
            in_sources.extend_from_slice(row);
            in_offsets.push(in_sources.len() as u32);
        }
        debug_assert_eq!(out_targets.len(), o.edge_count);
        debug_assert_eq!(in_sources.len(), o.edge_count);
        // Fresh arrays: a clone sharing the old base keeps it.
        self.base = Arc::new(Csr {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        });
        true
    }
}

/// Traversal direction selector used by BFS and propagation routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges in their natural orientation (walk out-neighbours).
    Forward,
    /// Follow edges against their orientation (walk in-neighbours).
    Backward,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn flipped(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of Figure 1(a) in the paper, with the vertex
    /// naming s=0, a=1, c=2, t=3, h=4, b=5, i=6, j=7.
    pub(crate) fn figure1_graph() -> DiGraph {
        DiGraph::from_edges(
            8,
            [
                (0, 1), // s -> a
                (0, 2), // s -> c
                (1, 2), // a -> c
                (1, 4), // a -> h
                (1, 6), // a -> i
                (2, 3), // c -> t
                (2, 5), // c -> b
                (4, 5), // h -> b
                (5, 3), // b -> t
                (5, 1), // b -> a
                (5, 7), // b -> j
                (6, 7), // i -> j
                (7, 4), // j -> h
            ],
        )
    }

    #[test]
    fn counts_and_degrees() {
        let g = figure1_graph();
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.edge_count(), 13);
        assert_eq!(g.out_degree(1), 3); // a -> {c, h, i}
        assert_eq!(g.in_degree(3), 2); // t <- {c, b}
        assert_eq!(g.degree(5), 5); // b: in {c, h}, out {t, a, j}
        assert!(g.max_degree() >= 3);
        assert!((g.avg_degree() - 13.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn adjacency_is_sorted_and_queriable() {
        let g = figure1_graph();
        assert_eq!(g.out_neighbors(1), &[2, 4, 6]);
        assert_eq!(g.in_neighbors(5), &[2, 4]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        assert!(g.edge_id(0, 2).is_some());
        assert_eq!(g.edge_id(2, 0), None);
    }

    #[test]
    fn edge_ids_round_trip() {
        let g = figure1_graph();
        for (e, u, v) in g.edges_with_ids() {
            assert_eq!(g.edge_endpoints(e), (u, v));
            assert_eq!(g.edge_id(u, v), Some(e));
        }
        let ids: Vec<EdgeId> = g.edges_with_ids().map(|(e, _, _)| e).collect();
        let expected: Vec<EdgeId> = (0..g.edge_count() as EdgeId).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn reversal_flips_every_edge() {
        let g = figure1_graph();
        let r = g.reversed();
        assert_eq!(r.vertex_count(), g.vertex_count());
        assert_eq!(r.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(r.has_edge(v, u));
        }
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn empty_graph_behaves() {
        let g = DiGraph::empty(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn self_loops_and_duplicates_removed() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 1), (1, 1), (1, 2), (1, 2), (2, 0)]);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn directions_select_the_right_adjacency() {
        let g = figure1_graph();
        assert_eq!(g.neighbors(1, Direction::Forward), g.out_neighbors(1));
        assert_eq!(g.neighbors(1, Direction::Backward), g.in_neighbors(1));
        assert_eq!(Direction::Forward.flipped(), Direction::Backward);
        assert_eq!(Direction::Backward.flipped(), Direction::Forward);
    }

    #[test]
    fn memory_estimate_is_positive_for_nonempty_graphs() {
        let g = figure1_graph();
        assert!(g.memory_bytes() > 0);
        assert!(g.memory_bytes() >= g.edge_count() * 8);
    }

    /// The merged view after `apply_delta` must be edge-for-edge identical to
    /// a from-scratch rebuild, before and after `compact()`.
    #[test]
    fn overlay_matches_rebuild_and_compacts() {
        let mut g = figure1_graph();
        let deltas = [
            EdgeDelta::add(3, 0),    // new edge t -> s
            EdgeDelta::add(0, 1),    // already present: no-op
            EdgeDelta::remove(5, 1), // drop b -> a
            EdgeDelta::remove(6, 0), // absent: no-op
        ];
        let applied = g.apply_delta(&deltas).unwrap();
        assert_eq!(applied, 2);
        assert!(g.is_overlaid());
        assert!(g.overlay_rows() > 0);

        let mut edges: Vec<_> = figure1_graph().edges().collect();
        edges.push((3, 0));
        edges.retain(|&e| e != (5, 1));
        let rebuilt = DiGraph::from_edges(8, edges);
        assert_eq!(g.edge_count(), rebuilt.edge_count());
        let overlay_edges: Vec<_> = g.edges().collect();
        let rebuilt_edges: Vec<_> = rebuilt.edges().collect();
        assert_eq!(overlay_edges, rebuilt_edges);
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), rebuilt.out_neighbors(v), "out {v}");
            assert_eq!(g.in_neighbors(v), rebuilt.in_neighbors(v), "in {v}");
        }
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(5, 1));

        // Folding the overlay yields a bit-identical CSR.
        assert!(g.compact());
        assert!(!g.is_overlaid());
        assert_eq!(g, rebuilt);
        assert!(!g.compact(), "no overlay left to fold");
    }

    #[test]
    fn overlay_rejects_invalid_deltas_atomically() {
        let mut g = figure1_graph();
        let before: Vec<_> = g.edges().collect();
        assert!(g
            .apply_delta(&[EdgeDelta::add(0, 3), EdgeDelta::add(0, 99)])
            .is_err());
        assert!(g.apply_delta(&[EdgeDelta::add(2, 2)]).is_err());
        assert!(
            !g.is_overlaid(),
            "rejected batches leave the graph untouched"
        );
        assert_eq!(g.edges().collect::<Vec<_>>(), before);
        // An empty batch is accepted and does nothing.
        assert_eq!(g.apply_delta(&[]).unwrap(), 0);
        assert!(!g.is_overlaid());
    }

    #[test]
    fn overlaid_reversal_flips_patched_rows() {
        let mut g = figure1_graph();
        g.apply_delta(&[EdgeDelta::add(3, 0), EdgeDelta::remove(2, 5)])
            .unwrap();
        let r = g.reversed();
        assert_eq!(r.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            assert!(r.has_edge(v, u));
        }
        assert!(r.has_edge(0, 3));
        assert!(!r.has_edge(5, 2));
    }

    /// A clone shares its base rows, and mutating either side — a delta or
    /// a compaction, with or without an overlay in place — never changes
    /// what the other side observes.
    #[test]
    fn clone_is_shared_and_copy_on_write() {
        let g = figure1_graph();
        let c = g.clone();
        for u in g.vertices() {
            assert_eq!(g.out_neighbors(u).as_ptr(), c.out_neighbors(u).as_ptr());
            assert_eq!(g.in_neighbors(u).as_ptr(), c.in_neighbors(u).as_ptr());
        }
        let original: Vec<_> = g.edges().collect();
        let delta = [EdgeDelta::add(3, 0), EdgeDelta::remove(5, 1)];

        // No overlay yet: a delta on the clone leaves the original alone.
        let mut patched = g.clone();
        patched.apply_delta(&delta).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), original);
        assert!(!g.is_overlaid());

        // A shared overlay is copied before it is patched, either way round.
        let snapshot = patched.clone();
        let patched_edges: Vec<_> = patched.edges().collect();
        patched.apply_delta(&[EdgeDelta::add(6, 0)]).unwrap();
        assert_eq!(snapshot.edges().collect::<Vec<_>>(), patched_edges);
        let mut other = snapshot.clone();
        other.apply_delta(&[EdgeDelta::remove(0, 1)]).unwrap();
        assert_eq!(snapshot.edges().collect::<Vec<_>>(), patched_edges);
        assert!(patched.has_edge(6, 0) && !snapshot.has_edge(6, 0));
        assert!(!other.has_edge(0, 1) && snapshot.has_edge(0, 1));

        // Compacting one side leaves the other's overlay and base intact.
        let mut folded = snapshot.clone();
        assert!(folded.compact());
        assert!(snapshot.is_overlaid());
        assert_eq!(snapshot.edges().collect::<Vec<_>>(), patched_edges);
        assert_eq!(folded.edges().collect::<Vec<_>>(), patched_edges);
        let mut plain = g.clone();
        assert!(!plain.compact());
        assert_eq!(g.edges().collect::<Vec<_>>(), original);
    }

    #[test]
    fn removing_then_readding_restores_the_row() {
        let mut g = figure1_graph();
        g.apply_delta(&[EdgeDelta::remove(1, 4)]).unwrap();
        assert!(!g.has_edge(1, 4));
        g.apply_delta(&[EdgeDelta::add(1, 4)]).unwrap();
        assert_eq!(g.out_neighbors(1), figure1_graph().out_neighbors(1));
        assert_eq!(g.edge_count(), 13);
    }
}
