//! Dense compaction of the per-query search space `G^k_st`.
//!
//! [`FlatDistances`] identifies the search space on graph-sized arrays
//! indexed by global vertex id. [`SearchSpace`] relabels the space vertices
//! to dense **local ids** `0..n'` (in ascending global-id order, so local
//! order and global order coincide) and re-materialises both adjacency
//! directions of `G^k_st` as local-id CSR slices. The EVE phases
//! (propagation, edge labeling, verification) index flat `Vec`s by local id
//! and never touch the host graph again.
//!
//! Construction itself is a linear scan over the adjacency of the space
//! vertices. The global→local translation uses [`SpaceScratch`], an
//! epoch-stamped array sized by the *graph* (not the query) that is reused
//! across queries without clearing — bumping the epoch invalidates every
//! entry in O(1).

use crate::csr::{DiGraph, Direction, VertexId};
use crate::traversal::FlatDistances;

/// Sentinel local id meaning "not in the search space".
pub const NO_LOCAL: u32 = u32::MAX;

/// Reusable epoch-stamped global→local vertex translation table.
///
/// Sized to the host graph's vertex count on first use; reuse across queries
/// (and across graphs — the table regrows as needed) never requires a clear.
#[derive(Debug, Clone, Default)]
pub struct SpaceScratch {
    /// Current epoch; entries with a different stamp are invalid.
    epoch: u32,
    /// `(stamp, local id)` per global vertex id.
    slots: Vec<(u32, u32)>,
}

impl SpaceScratch {
    /// Creates an empty scratch table.
    pub fn new() -> Self {
        SpaceScratch::default()
    }

    /// Starts a new translation epoch covering global ids `0..n`.
    fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, (0, NO_LOCAL));
        }
        // Epoch 0 is the "never written" stamp of freshly grown slots.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: invalidate everything explicitly.
            self.slots.fill((0, NO_LOCAL));
            self.epoch = 1;
        }
    }

    #[inline]
    fn set(&mut self, global: VertexId, local: u32) {
        self.slots[global as usize] = (self.epoch, local);
    }

    #[inline]
    fn get(&self, global: VertexId) -> u32 {
        let (stamp, local) = self.slots[global as usize];
        if stamp == self.epoch {
            local
        } else {
            NO_LOCAL
        }
    }

    /// Heap footprint of the translation table in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The compacted search space of one query: the vertices of `G^k_st`
/// relabeled to dense local ids `0..n'` with flat distance arrays and a
/// local-id CSR of both adjacency directions.
///
/// An edge `(u, v)` of the host graph is kept iff
/// `Δ(s,u) + 1 + Δ(v,t) ≤ k`, i.e. the edge set of `G^k_st`.
///
/// The structure is a reusable container: [`SearchSpace::rebuild_from_flat`]
/// refills it for a new query while retaining every buffer's capacity, so a
/// warmed-up instance performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SearchSpace {
    k: u32,
    s_local: u32,
    t_local: u32,
    /// Local id → global id, ascending (so local order == global order).
    verts: Vec<VertexId>,
    /// `Δ(s, v)` per local id.
    dist_s: Vec<u32>,
    /// `Δ(v, t)` per local id.
    dist_t: Vec<u32>,
    out_offsets: Vec<u32>,
    out_targets: Vec<u32>,
    in_offsets: Vec<u32>,
    in_sources: Vec<u32>,
}

impl SearchSpace {
    /// Creates an empty, reusable container.
    pub fn new() -> Self {
        SearchSpace::default()
    }

    /// Refills the container with the search space held by `fd`, reusing
    /// all buffer capacity from previous queries.
    pub fn rebuild_from_flat(
        &mut self,
        g: &DiGraph,
        fd: &FlatDistances,
        scratch: &mut SpaceScratch,
    ) {
        self.reset(fd.hop_constraint());
        if !fd.is_feasible() {
            self.finish_empty();
            return;
        }
        self.verts.extend(
            fd.forward_seen()
                .iter()
                .copied()
                .filter(|&v| fd.in_search_space(v)),
        );
        self.verts.sort_unstable();
        self.rebuild_inner(
            g,
            scratch,
            fd.source(),
            fd.target(),
            |v| fd.dist_from_s(v),
            |v| fd.dist_to_t(v),
        );
    }

    fn reset(&mut self, k: u32) {
        self.k = k;
        self.verts.clear();
        self.dist_s.clear();
        self.dist_t.clear();
        self.out_offsets.clear();
        self.out_targets.clear();
        self.in_offsets.clear();
        self.in_sources.clear();
        self.s_local = NO_LOCAL;
        self.t_local = NO_LOCAL;
    }

    fn finish_empty(&mut self) {
        self.out_offsets.push(0);
        self.in_offsets.push(0);
    }

    /// Tail of the rebuild: `self.verts` holds the sorted space vertices;
    /// fills the distance arrays, endpoint locals and both CSR directions.
    fn rebuild_inner<Fs, Ft>(
        &mut self,
        g: &DiGraph,
        scratch: &mut SpaceScratch,
        s: VertexId,
        t: VertexId,
        dist_s: Fs,
        dist_t: Ft,
    ) where
        Fs: Fn(VertexId) -> u32,
        Ft: Fn(VertexId) -> u32,
    {
        scratch.begin(g.vertex_count());
        for (local, &v) in self.verts.iter().enumerate() {
            scratch.set(v, local as u32);
            self.dist_s.push(dist_s(v));
            self.dist_t.push(dist_t(v));
            if v == s {
                self.s_local = local as u32;
            } else if v == t {
                self.t_local = local as u32;
            }
        }
        debug_assert!(self.s_local != NO_LOCAL && self.t_local != NO_LOCAL);

        // Out-adjacency: for each space vertex, keep the out-edges of G^k_st.
        // Host adjacency is sorted by global id and local order preserves
        // global order, so every CSR slice comes out sorted.
        self.out_offsets.push(0);
        for (local, &u) in self.verts.iter().enumerate() {
            let du = self.dist_s[local];
            for &v in g.out_neighbors(u) {
                let lv = scratch.get(v);
                if lv == NO_LOCAL {
                    continue;
                }
                if du + 1 + self.dist_t[lv as usize] <= self.k {
                    self.out_targets.push(lv);
                }
            }
            self.out_offsets.push(self.out_targets.len() as u32);
        }

        // In-adjacency of the same edge set.
        self.in_offsets.push(0);
        for (local, &v) in self.verts.iter().enumerate() {
            let dv = self.dist_t[local];
            for &u in g.in_neighbors(v) {
                let lu = scratch.get(u);
                if lu == NO_LOCAL {
                    continue;
                }
                if self.dist_s[lu as usize] + 1 + dv <= self.k {
                    self.in_sources.push(lu);
                }
            }
            self.in_offsets.push(self.in_sources.len() as u32);
        }
        debug_assert_eq!(self.out_targets.len(), self.in_sources.len());
    }

    /// Hop constraint the space was built for.
    #[inline]
    pub fn hop_constraint(&self) -> u32 {
        self.k
    }

    /// `true` if the query was infeasible (the space has no vertices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Number of vertices `n'` in the space.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.verts.len()
    }

    /// Number of `G^k_st` edges in the space.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Local id of the query source (only valid when non-empty).
    #[inline]
    pub fn source_local(&self) -> u32 {
        self.s_local
    }

    /// Local id of the query target (only valid when non-empty).
    #[inline]
    pub fn target_local(&self) -> u32 {
        self.t_local
    }

    /// Global id of local vertex `v`.
    #[inline]
    pub fn global(&self, v: u32) -> VertexId {
        self.verts[v as usize]
    }

    /// The space's vertices as sorted global ids (local order == global
    /// order). This is the **witness** the result cache records per entry
    /// for scoped invalidation: every edge whose removal could change the
    /// answer has both endpoints in this set.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.verts
    }

    /// Local id of global vertex `v`, if it belongs to the space
    /// (`O(log n')` — intended for tests and non-hot-path callers).
    pub fn local_of(&self, v: VertexId) -> Option<u32> {
        self.verts.binary_search(&v).ok().map(|i| i as u32)
    }

    /// `Δ(s, v)` for local id `v`.
    #[inline]
    pub fn dist_from_s(&self, v: u32) -> u32 {
        self.dist_s[v as usize]
    }

    /// `Δ(v, t)` for local id `v`.
    #[inline]
    pub fn dist_to_t(&self, v: u32) -> u32 {
        self.dist_t[v as usize]
    }

    /// Local-id out-neighbours of local vertex `u` within `G^k_st`, sorted.
    #[inline]
    pub fn out_neighbors(&self, u: u32) -> &[u32] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// Local-id in-neighbours of local vertex `v` within `G^k_st`, sorted.
    #[inline]
    pub fn in_neighbors(&self, v: u32) -> &[u32] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Neighbours in the chosen direction (out for forward, in for backward).
    #[inline]
    pub fn neighbors(&self, v: u32, dir: Direction) -> &[u32] {
        match dir {
            Direction::Forward => self.out_neighbors(v),
            Direction::Backward => self.in_neighbors(v),
        }
    }

    /// The remaining distance that the forward-looking pruning rule of
    /// Theorem 3.6 consults: `Δ(v, t)` for forward propagation, `Δ(s, v)`
    /// for backward propagation.
    #[inline]
    pub fn remaining_dist(&self, v: u32, dir: Direction) -> u32 {
        match dir {
            Direction::Forward => self.dist_to_t(v),
            Direction::Backward => self.dist_from_s(v),
        }
    }

    /// Live bytes of the current query's compacted space (length-based, so a
    /// small query on a warmed container is not charged for capacity retained
    /// from earlier, larger queries; see [`SearchSpace::retained_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        let w = std::mem::size_of::<u32>();
        (self.verts.len()
            + self.dist_s.len()
            + self.dist_t.len()
            + self.out_offsets.len()
            + self.out_targets.len()
            + self.in_offsets.len()
            + self.in_sources.len())
            * w
    }

    /// Bytes of buffer capacity retained for reuse across queries.
    pub fn retained_bytes(&self) -> usize {
        let w = std::mem::size_of::<u32>();
        (self.verts.capacity()
            + self.dist_s.capacity()
            + self.dist_t.capacity()
            + self.out_offsets.capacity()
            + self.out_targets.capacity()
            + self.in_offsets.capacity()
            + self.in_sources.capacity())
            * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs::search_space_oracle;
    use crate::traversal::DistanceStrategy;
    use crate::INF_DIST;

    /// Figure 1(a) graph; naming s=0, a=1, c=2, t=3, h=4, b=5, i=6, j=7.
    fn figure1() -> DiGraph {
        DiGraph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 4),
                (1, 6),
                (2, 3),
                (2, 5),
                (4, 5),
                (5, 3),
                (5, 1),
                (5, 7),
                (6, 7),
                (7, 4),
            ],
        )
    }

    /// Distances of the query `⟨0, 3, k⟩`.
    fn distances(g: &DiGraph, k: u32) -> FlatDistances {
        let mut fd = FlatDistances::new();
        fd.compute(g, 0, 3, k, DistanceStrategy::AdaptiveBidirectional);
        fd
    }

    fn space(g: &DiGraph, k: u32) -> SearchSpace {
        let mut space = SearchSpace::new();
        space.rebuild_from_flat(g, &distances(g, k), &mut SpaceScratch::new());
        space
    }

    #[test]
    fn space_matches_bfs_oracle_membership() {
        let g = figure1();
        for k in 2..=8u32 {
            let oracle = search_space_oracle(&g, 0, 3, k);
            let space = space(&g, k);
            for v in g.vertices() {
                assert_eq!(
                    space.local_of(v).is_some(),
                    oracle[v as usize].0 != INF_DIST,
                    "k={k} v={v}"
                );
            }
            for local in 0..space.vertex_count() as u32 {
                let v = space.global(local);
                assert_eq!(
                    (space.dist_from_s(local), space.dist_to_t(local)),
                    oracle[v as usize]
                );
            }
        }
    }

    #[test]
    fn edges_are_exactly_the_gkst_edges() {
        let g = figure1();
        for k in 2..=8u32 {
            let oracle = search_space_oracle(&g, 0, 3, k);
            let space = space(&g, k);
            let mut space_edges: Vec<(VertexId, VertexId)> = Vec::new();
            for u in 0..space.vertex_count() as u32 {
                for &v in space.out_neighbors(u) {
                    space_edges.push((space.global(u), space.global(v)));
                }
            }
            let expected: Vec<(VertexId, VertexId)> = g
                .edges()
                .filter(|&(u, v)| {
                    let (du, dv) = (oracle[u as usize].0, oracle[v as usize].1);
                    du != INF_DIST && dv != INF_DIST && du + 1 + dv <= k
                })
                .collect();
            assert_eq!(space_edges, expected, "k={k}");
            assert_eq!(space.edge_count(), expected.len());
        }
    }

    #[test]
    fn in_adjacency_mirrors_out_adjacency() {
        let g = figure1();
        let space = space(&g, 7);
        for u in 0..space.vertex_count() as u32 {
            for &v in space.out_neighbors(u) {
                assert!(space.in_neighbors(v).contains(&u));
            }
            // CSR slices stay sorted because local order preserves global order.
            assert!(space.out_neighbors(u).windows(2).all(|w| w[0] < w[1]));
            assert!(space.in_neighbors(u).windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(
            space.neighbors(0, Direction::Forward),
            space.out_neighbors(0)
        );
        assert_eq!(
            space.neighbors(0, Direction::Backward),
            space.in_neighbors(0)
        );
    }

    #[test]
    fn endpoints_and_reuse() {
        let g = figure1();
        let mut scratch = SpaceScratch::new();
        let mut space = SearchSpace::new();
        // Reuse the same containers across different k values.
        for k in [7u32, 3, 8, 2] {
            let fd = distances(&g, k);
            space.rebuild_from_flat(&g, &fd, &mut scratch);
            assert_eq!(space.global(space.source_local()), 0, "k={k}");
            assert_eq!(space.global(space.target_local()), 3, "k={k}");
            assert_eq!(space.hop_constraint(), k);
            assert_eq!(
                space.remaining_dist(space.source_local(), Direction::Forward),
                fd.dist_to_t(0)
            );
            assert_eq!(
                space.remaining_dist(space.target_local(), Direction::Backward),
                fd.dist_from_s(3)
            );
            assert!(space.memory_bytes() > 0);
            assert!(scratch.memory_bytes() > 0);
        }
    }

    #[test]
    fn infeasible_query_yields_empty_space() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let space = space(&g, 6);
        assert!(space.is_empty());
        assert_eq!(space.vertex_count(), 0);
        assert_eq!(space.edge_count(), 0);
        assert_eq!(space.local_of(0), None);
    }

    #[test]
    fn scratch_epochs_isolate_queries() {
        let g = figure1();
        let mut scratch = SpaceScratch::new();
        let mut space = SearchSpace::new();
        // k = 3 excludes vertex i (6); a later k = 8 rebuild must include it
        // again, and a subsequent k = 3 rebuild must exclude it without any
        // clearing in between.
        let small = distances(&g, 3);
        let large = distances(&g, 8);
        space.rebuild_from_flat(&g, &small, &mut scratch);
        assert_eq!(space.local_of(6), None);
        space.rebuild_from_flat(&g, &large, &mut scratch);
        assert!(space.local_of(6).is_some());
        space.rebuild_from_flat(&g, &small, &mut scratch);
        assert_eq!(space.local_of(6), None);
    }
}
