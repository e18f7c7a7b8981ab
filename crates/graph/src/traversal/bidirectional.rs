//! Distance index construction: single, bidirectional and adaptive
//! bidirectional hop-bounded search (§3.3, Figure 6(a) of the paper).
//!
//! All three strategies produce the same [`DistanceIndex`]: the forward
//! distances `Δ(s, v)` (computed without routing through `t`) and the
//! backward distances `Δ(v, t)` (computed without routing through `s`),
//! restricted to the search space `{v : Δ(s,v) + Δ(v,t) ≤ k}`. Vertices
//! outside the search space are treated as having distance `+∞`, exactly as
//! the paper prescribes, because the forward-looking pruning rule stops any
//! propagation into them anyway.
//!
//! The strategies differ only in the number of vertices and edges they touch
//! while computing the index, which is what the Figure 11 ablation measures;
//! [`SearchSpaceStats`] records those counts.
//!
//! Both bidirectional strategies finish each side inside the region the
//! other side explored. The adaptive one also confines that finish to the
//! search space: it expands a vertex at depth `d` only once the other side
//! holds it within `k − d`. The balanced one keeps the unpruned finish,
//! which each lane of the shared MS-BFS engine reproduces.

use crate::csr::{DiGraph, Direction, VertexId};
use crate::hash::{map_with_capacity, FxHashMap};
use crate::INF_DIST;

/// Strategy used to compute the [`DistanceIndex`] (§3.3, Figure 6(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceStrategy {
    /// Two independent single-directional BFS passes bounded by `k`.
    Single,
    /// Balanced bidirectional BFS: forward to depth `⌈k/2⌉`, backward to
    /// depth `⌊k/2⌋`, then each side finishes inside the other's explored
    /// region.
    Bidirectional,
    /// Adaptive bidirectional BFS: at every step the side with the smaller
    /// frontier advances, until the combined depth reaches `k`; each side
    /// then finishes inside the other's explored region, expanding only
    /// vertices the other side already proves to lie in the search space
    /// (held at depth `d` by one side and within `k − d` by the other).
    /// This is the default used by EVE.
    #[default]
    AdaptiveBidirectional,
}

impl DistanceStrategy {
    /// All strategies, in the order they appear in the Figure 11 ablation.
    pub const ALL: [DistanceStrategy; 3] = [
        DistanceStrategy::Single,
        DistanceStrategy::Bidirectional,
        DistanceStrategy::AdaptiveBidirectional,
    ];

    /// Short human-readable name used by the benchmark harness.
    pub fn name(self) -> &'static str {
        match self {
            DistanceStrategy::Single => "single",
            DistanceStrategy::Bidirectional => "bidirectional",
            DistanceStrategy::AdaptiveBidirectional => "adaptive",
        }
    }
}

/// Work counters for the distance phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchSpaceStats {
    /// Edges scanned top-down by the forward search (frontier relaxations,
    /// including the restricted extension phase of bidirectional search).
    pub forward_edge_scans: usize,
    /// Edges scanned top-down by the backward search.
    pub backward_edge_scans: usize,
    /// Reverse-adjacency entries probed by bottom-up (direction-optimizing)
    /// levels of the shared MS-BFS Phase-1 engine. Always 0 for the
    /// per-query engines, which only relax top-down; kept separate from the
    /// relaxation counters so direction switching stays observable instead
    /// of being folded into the top-down totals.
    pub bottom_up_edge_scans: usize,
    /// Vertices retained in the final search space.
    pub space_vertices: usize,
}

impl SearchSpaceStats {
    /// Total number of edge scans across both directions, top-down and
    /// bottom-up alike.
    pub fn total_edge_scans(&self) -> usize {
        self.forward_edge_scans + self.backward_edge_scans + self.bottom_up_edge_scans
    }
}

/// Which vertices one level of [`LevelBfs`] may touch; mirrors the flat
/// engine's gate so both engines keep identical traversals.
#[derive(Clone, Copy)]
enum Gate<'m> {
    /// A free level: every frontier vertex expands into every unseen
    /// neighbour.
    Open,
    /// Discover only vertices the other side's map holds (the balanced
    /// finish).
    Inside(&'m FxHashMap<VertexId, u32>),
    /// As `Inside`, and expand a frontier vertex at depth `d` only if that
    /// map holds it within `k − d`, the second field (the adaptive finish).
    InSpace(&'m FxHashMap<VertexId, u32>, u32),
}

/// Level-synchronous hop-bounded BFS engine used by all strategies.
struct LevelBfs<'a> {
    g: &'a DiGraph,
    dir: Direction,
    source: VertexId,
    forbidden: VertexId,
    dist: FxHashMap<VertexId, u32>,
    frontier: Vec<VertexId>,
    depth: u32,
    edge_scans: usize,
}

impl<'a> LevelBfs<'a> {
    fn new(g: &'a DiGraph, dir: Direction, source: VertexId, forbidden: VertexId) -> Self {
        let mut dist = map_with_capacity(64);
        dist.insert(source, 0);
        LevelBfs {
            g,
            dir,
            source,
            forbidden,
            dist,
            frontier: vec![source],
            depth: 0,
            edge_scans: 0,
        }
    }

    fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    fn exhausted(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Expands one BFS level under `gate` (the "finish inside the other
    /// side's region" phases of bidirectional search restrict it). Returns
    /// `false` once the frontier is empty.
    fn step(&mut self, gate: Gate<'_>) -> bool {
        if self.frontier.is_empty() {
            return false;
        }
        let mut next: Vec<VertexId> = Vec::new();
        for i in 0..self.frontier.len() {
            let u = self.frontier[i];
            if u == self.forbidden && u != self.source {
                continue;
            }
            if let Gate::InSpace(other, k) = gate {
                match other.get(&u) {
                    Some(&rest) if self.depth + rest <= k => {}
                    _ => continue,
                }
            }
            for &v in self.g.neighbors(u, self.dir) {
                self.edge_scans += 1;
                if self.dist.contains_key(&v) {
                    continue;
                }
                if let Gate::Inside(other) | Gate::InSpace(other, _) = gate {
                    if !other.contains_key(&v) {
                        continue;
                    }
                }
                self.dist.insert(v, self.depth + 1);
                next.push(v);
            }
        }
        self.depth += 1;
        self.frontier = next;
        !self.frontier.is_empty()
    }

    /// Runs `steps` additional levels (or until the frontier empties).
    fn run(&mut self, steps: u32, gate: Gate<'_>) {
        for _ in 0..steps {
            if !self.step(gate) {
                break;
            }
        }
    }
}

/// Forward and backward shortest distances restricted to the k-hop search
/// space of a query `⟨s, t, k⟩`.
#[derive(Debug, Clone)]
pub struct DistanceIndex {
    s: VertexId,
    t: VertexId,
    k: u32,
    dist_from_s: FxHashMap<VertexId, u32>,
    dist_to_t: FxHashMap<VertexId, u32>,
    stats: SearchSpaceStats,
}

impl DistanceIndex {
    /// Computes the index for query `⟨s, t, k⟩` with the chosen strategy.
    pub fn compute(
        g: &DiGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
        strategy: DistanceStrategy,
    ) -> DistanceIndex {
        assert!(
            s != t,
            "queries require distinct source and target vertices"
        );
        let mut forward = LevelBfs::new(g, Direction::Forward, s, t);
        let mut backward = LevelBfs::new(g, Direction::Backward, t, s);

        match strategy {
            DistanceStrategy::Single => {
                forward.run(k, Gate::Open);
                backward.run(k, Gate::Open);
            }
            DistanceStrategy::Bidirectional => {
                let kf = k.div_ceil(2);
                let kb = k / 2;
                forward.run(kf, Gate::Open);
                backward.run(kb, Gate::Open);
                let backward_snapshot = backward.dist.clone();
                forward.run(k - kf, Gate::Inside(&backward_snapshot));
                let forward_snapshot = forward.dist.clone();
                backward.run(k - kb, Gate::Inside(&forward_snapshot));
            }
            DistanceStrategy::AdaptiveBidirectional => {
                // Advance the smaller frontier until the combined depth is k
                // or one side is exhausted.
                while forward.depth + backward.depth < k
                    && !(forward.exhausted() && backward.exhausted())
                {
                    let advance_forward = if forward.exhausted() {
                        false
                    } else if backward.exhausted() {
                        true
                    } else {
                        forward.frontier_len() <= backward.frontier_len()
                    };
                    if advance_forward {
                        forward.step(Gate::Open);
                    } else {
                        backward.step(Gate::Open);
                    }
                }
                let backward_snapshot = backward.dist.clone();
                forward.run(k - forward.depth, Gate::InSpace(&backward_snapshot, k));
                let forward_snapshot = forward.dist.clone();
                backward.run(k - backward.depth, Gate::InSpace(&forward_snapshot, k));
            }
        }

        let mut dist_from_s: FxHashMap<VertexId, u32> = map_with_capacity(forward.dist.len());
        let mut dist_to_t: FxHashMap<VertexId, u32> = map_with_capacity(backward.dist.len());
        for (&v, &df) in &forward.dist {
            if let Some(&db) = backward.dist.get(&v) {
                if df + db <= k {
                    dist_from_s.insert(v, df);
                    dist_to_t.insert(v, db);
                }
            }
        }
        let stats = SearchSpaceStats {
            forward_edge_scans: forward.edge_scans,
            backward_edge_scans: backward.edge_scans,
            bottom_up_edge_scans: 0,
            space_vertices: dist_from_s.len(),
        };
        DistanceIndex {
            s,
            t,
            k,
            dist_from_s,
            dist_to_t,
            stats,
        }
    }

    /// Source vertex of the query.
    pub fn source(&self) -> VertexId {
        self.s
    }

    /// Target vertex of the query.
    pub fn target(&self) -> VertexId {
        self.t
    }

    /// Hop constraint of the query.
    pub fn hop_constraint(&self) -> u32 {
        self.k
    }

    /// Work counters recorded while building the index.
    pub fn stats(&self) -> SearchSpaceStats {
        self.stats
    }

    /// `Δ(s, v)` (not routing through `t`), or [`INF_DIST`] if `v` lies
    /// outside the search space.
    #[inline]
    pub fn dist_from_s(&self, v: VertexId) -> u32 {
        self.dist_from_s.get(&v).copied().unwrap_or(INF_DIST)
    }

    /// `Δ(v, t)` (not routing through `s`), or [`INF_DIST`] if `v` lies
    /// outside the search space.
    #[inline]
    pub fn dist_to_t(&self, v: VertexId) -> u32 {
        self.dist_to_t.get(&v).copied().unwrap_or(INF_DIST)
    }

    /// `true` if `v` belongs to the search space `Δ(s,v) + Δ(v,t) ≤ k`.
    #[inline]
    pub fn in_search_space(&self, v: VertexId) -> bool {
        self.dist_from_s.contains_key(&v)
    }

    /// `true` if the query is feasible, i.e. `t` is reachable from `s`
    /// within `k` hops (without the trivial `s = t` case).
    pub fn is_feasible(&self) -> bool {
        self.dist_from_s.contains_key(&self.t) && self.dist_to_t.contains_key(&self.s)
    }

    /// Shortest s-t distance `Δ(s, t)` if feasible.
    pub fn st_distance(&self) -> Option<u32> {
        self.dist_from_s.get(&self.t).copied()
    }

    /// Number of vertices in the search space.
    pub fn space_size(&self) -> usize {
        self.dist_from_s.len()
    }

    /// Iterator over the vertices of the search space.
    pub fn space_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.dist_from_s.keys().copied()
    }

    /// `true` if edge `(u, v)` can lie on *some* (not necessarily simple)
    /// s-t path within `k` hops: `Δ(s,u) + 1 + Δ(v,t) ≤ k`. This is the
    /// membership test of the k-hop subgraph `G^k_st` (§6.7).
    #[inline]
    pub fn edge_in_space(&self, u: VertexId, v: VertexId) -> bool {
        let du = self.dist_from_s(u);
        let dv = self.dist_to_t(v);
        du != INF_DIST && dv != INF_DIST && du + 1 + dv <= self.k
    }

    /// Approximate heap footprint of the index in bytes (used by the space
    /// accounting of Figure 9 / Figure 10(a)).
    pub fn memory_bytes(&self) -> usize {
        // Each map entry stores a key, a value and (amortised) hashing
        // overhead of roughly one extra word.
        (self.dist_from_s.len() + self.dist_to_t.len())
            * (std::mem::size_of::<VertexId>() + std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn strategies_agree_on_the_search_space() {
        let g = figure1();
        for k in 2..=8u32 {
            let single = DistanceIndex::compute(&g, 0, 3, k, DistanceStrategy::Single);
            let bi = DistanceIndex::compute(&g, 0, 3, k, DistanceStrategy::Bidirectional);
            let adaptive =
                DistanceIndex::compute(&g, 0, 3, k, DistanceStrategy::AdaptiveBidirectional);
            for v in g.vertices() {
                assert_eq!(single.dist_from_s(v), bi.dist_from_s(v), "k={k} v={v}");
                assert_eq!(single.dist_to_t(v), bi.dist_to_t(v), "k={k} v={v}");
                assert_eq!(
                    single.dist_from_s(v),
                    adaptive.dist_from_s(v),
                    "k={k} v={v}"
                );
                assert_eq!(single.dist_to_t(v), adaptive.dist_to_t(v), "k={k} v={v}");
            }
            assert_eq!(single.space_size(), adaptive.space_size());
        }
    }

    #[test]
    fn distances_match_figure1_expectations() {
        let g = figure1();
        let idx = DistanceIndex::compute(&g, 0, 3, 7, DistanceStrategy::AdaptiveBidirectional);
        assert!(idx.is_feasible());
        assert_eq!(idx.st_distance(), Some(2)); // s -> c -> t
        assert_eq!(idx.dist_from_s(1), 1); // s -> a
        assert_eq!(idx.dist_from_s(5), 2); // s -> c -> b
        assert_eq!(idx.dist_to_t(5), 1); // b -> t
        assert_eq!(idx.dist_to_t(6), 4); // i -> j -> h -> b -> t
        assert_eq!(idx.dist_to_t(1), 2); // a -> c -> t
    }

    #[test]
    fn search_space_excludes_far_vertices_for_small_k() {
        let g = figure1();
        // k = 3: vertex i (6) needs Δ(s,i)=2 and Δ(i,t)=4, sum 6 > 3.
        let idx = DistanceIndex::compute(&g, 0, 3, 3, DistanceStrategy::AdaptiveBidirectional);
        assert!(!idx.in_search_space(6));
        assert_eq!(idx.dist_from_s(6), INF_DIST);
        assert!(idx.in_search_space(2));
    }

    #[test]
    fn forward_distances_do_not_route_through_target() {
        // s -> t -> x: x is only reachable through t, so it must stay out of
        // the forward distance map.
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 1)]);
        let idx = DistanceIndex::compute(&g, 0, 1, 5, DistanceStrategy::Single);
        assert!(idx.is_feasible());
        assert!(!idx.in_search_space(2));
    }

    #[test]
    fn infeasible_query_yields_empty_space() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let idx = DistanceIndex::compute(&g, 0, 3, 6, DistanceStrategy::AdaptiveBidirectional);
        assert!(!idx.is_feasible());
        assert_eq!(idx.space_size(), 0);
        assert_eq!(idx.st_distance(), None);
    }

    #[test]
    fn k_too_small_yields_empty_space() {
        let g = figure1();
        let idx = DistanceIndex::compute(&g, 0, 3, 1, DistanceStrategy::AdaptiveBidirectional);
        assert!(!idx.is_feasible());
    }

    #[test]
    fn edge_in_space_reflects_distance_sum() {
        let g = figure1();
        let idx = DistanceIndex::compute(&g, 0, 3, 4, DistanceStrategy::AdaptiveBidirectional);
        // e(s, c): 0 + 1 + 1 = 2 <= 4.
        assert!(idx.edge_in_space(0, 2));
        // e(i, j): Δ(s,i)=2, Δ(j,t)=3, 2+1+3=6 > 4.
        assert!(!idx.edge_in_space(6, 7));
    }

    #[test]
    fn adaptive_never_scans_more_than_single_on_skewed_graphs() {
        // A "broom": s has a single path to the hub, the hub fans out widely;
        // backward search from t is tiny, so adaptive should scan fewer
        // forward edges than single-directional.
        let fan = 200u32;
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2)];
        for i in 0..fan {
            edges.push((2, 3 + i));
        }
        // target chain hanging off vertex 3 + fan
        let t = 3 + fan;
        edges.push((2, t));
        let g = DiGraph::from_edges(t as usize + 1, edges);
        let single = DistanceIndex::compute(&g, 0, t, 4, DistanceStrategy::Single);
        let adaptive = DistanceIndex::compute(&g, 0, t, 4, DistanceStrategy::AdaptiveBidirectional);
        assert_eq!(single.dist_from_s(t), adaptive.dist_from_s(t));
        assert!(
            adaptive.stats().total_edge_scans() <= single.stats().total_edge_scans(),
            "adaptive {} vs single {}",
            adaptive.stats().total_edge_scans(),
            single.stats().total_edge_scans()
        );
    }

    #[test]
    fn stats_and_memory_are_populated() {
        let g = figure1();
        let idx = DistanceIndex::compute(&g, 0, 3, 6, DistanceStrategy::AdaptiveBidirectional);
        assert!(idx.stats().total_edge_scans() > 0);
        assert_eq!(idx.stats().space_vertices, idx.space_size());
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.source(), 0);
        assert_eq!(idx.target(), 3);
        assert_eq!(idx.hop_constraint(), 6);
        let verts: Vec<_> = idx.space_vertices().collect();
        assert_eq!(verts.len(), idx.space_size());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_source_and_target_panics() {
        let g = figure1();
        DistanceIndex::compute(&g, 2, 2, 3, DistanceStrategy::Single);
    }
}
