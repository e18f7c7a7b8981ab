//! The distance strategies of §3.3 / Figure 6(a) and the distance phase's
//! work counters.
//!
//! Every strategy yields the same distances — the forward distances
//! `Δ(s, v)` (computed without routing through `t`) and the backward
//! distances `Δ(v, t)` (computed without routing through `s`), restricted to
//! the search space `{v : Δ(s,v) + Δ(v,t) ≤ k}`. Vertices outside the search
//! space are treated as having distance `+∞`, exactly as the paper
//! prescribes, because the forward-looking pruning rule stops any
//! propagation into them anyway. The strategies differ only in how many
//! vertices and edges the search touches, which is what the Figure 11
//! ablation measures; [`SearchSpaceStats`] records those counts.
//! [`crate::FlatDistances`] runs all three.
//!
//! Both bidirectional strategies finish each side inside the region the
//! other side explored. The adaptive one also confines that finish to the
//! search space: it expands a vertex at depth `d` only once the other side
//! holds it within `k − d`. The balanced one keeps the unpruned finish,
//! which each lane of the shared MS-BFS engine reproduces.

/// Strategy of the per-query distance search (§3.3, Figure 6(a)).
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
    /// per-query engine, which only relaxes top-down; kept separate from the
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::DiGraph;
    use crate::traversal::FlatDistances;
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

    fn adaptive(g: &DiGraph, s: u32, t: u32, k: u32) -> FlatDistances {
        let mut flat = FlatDistances::new();
        flat.compute(g, s, t, k, DistanceStrategy::AdaptiveBidirectional);
        flat
    }

    /// Single, bidirectional and adaptive search give every vertex the same
    /// distances, so they keep the same search space.
    #[test]
    fn strategies_agree_on_the_search_space() {
        let g = figure1();
        let [mut single, mut other] = [FlatDistances::new(), FlatDistances::new()];
        for k in 2..=8u32 {
            single.compute(&g, 0, 3, k, DistanceStrategy::Single);
            for strategy in [
                DistanceStrategy::Bidirectional,
                DistanceStrategy::AdaptiveBidirectional,
            ] {
                other.compute(&g, 0, 3, k, strategy);
                for v in g.vertices() {
                    let name = strategy.name();
                    assert_eq!(
                        single.dist_from_s(v),
                        other.dist_from_s(v),
                        "{name} k={k} v={v}"
                    );
                    assert_eq!(
                        single.dist_to_t(v),
                        other.dist_to_t(v),
                        "{name} k={k} v={v}"
                    );
                    assert_eq!(single.in_search_space(v), other.in_search_space(v));
                }
            }
        }
    }

    #[test]
    fn distances_match_figure1_expectations() {
        let g = figure1();
        let flat = adaptive(&g, 0, 3, 7);
        assert!(flat.is_feasible());
        assert_eq!(flat.dist_from_s(3), 2); // s -> c -> t
        assert_eq!(flat.dist_from_s(1), 1); // s -> a
        assert_eq!(flat.dist_from_s(5), 2); // s -> c -> b
        assert_eq!(flat.dist_to_t(5), 1); // b -> t
        assert_eq!(flat.dist_to_t(6), 4); // i -> j -> h -> b -> t
        assert_eq!(flat.dist_to_t(1), 2); // a -> c -> t
    }

    #[test]
    fn search_space_excludes_far_vertices_for_small_k() {
        let g = figure1();
        // k = 3: vertex i (6) needs Δ(s,i)=2 and Δ(i,t)=4, sum 6 > 3.
        let flat = adaptive(&g, 0, 3, 3);
        assert!(!flat.in_search_space(6));
        assert_eq!(flat.dist_from_s(6), INF_DIST);
        assert!(flat.in_search_space(2));
    }

    #[test]
    fn forward_distances_do_not_route_through_target() {
        // s -> t -> x: x is only reachable through t, so it must stay out of
        // the search space.
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 1)]);
        let mut flat = FlatDistances::new();
        flat.compute(&g, 0, 1, 5, DistanceStrategy::Single);
        assert!(flat.is_feasible());
        assert!(!flat.in_search_space(2));
    }

    #[test]
    fn infeasible_query_yields_empty_space() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let flat = adaptive(&g, 0, 3, 6);
        assert!(!flat.is_feasible());
        assert!(g.vertices().all(|v| !flat.in_search_space(v)));
        assert_eq!(flat.dist_from_s(3), INF_DIST);
    }

    #[test]
    fn k_too_small_yields_empty_space() {
        let g = figure1();
        let flat = adaptive(&g, 0, 3, 1);
        assert!(!flat.is_feasible());
        assert!(g.vertices().all(|v| !flat.in_search_space(v)));
    }

    #[test]
    fn edge_in_space_reflects_distance_sum() {
        let g = figure1();
        let flat = adaptive(&g, 0, 3, 4);
        let in_space = |u: u32, v: u32| {
            let (du, dv) = (flat.dist_from_s(u), flat.dist_to_t(v));
            du != INF_DIST && dv != INF_DIST && du + 1 + dv <= 4
        };
        // e(s, c): 0 + 1 + 1 = 2 <= 4.
        assert!(in_space(0, 2));
        // e(i, j): Δ(s,i)=2, Δ(j,t)=3, 2+1+3=6 > 4.
        assert!(!in_space(6, 7));
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
        let mut single = FlatDistances::new();
        single.compute(&g, 0, t, 4, DistanceStrategy::Single);
        let adaptive = adaptive(&g, 0, t, 4);
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
        let flat = adaptive(&g, 0, 3, 6);
        let stats = flat.stats();
        assert!(stats.total_edge_scans() > 0);
        assert_eq!(
            stats.total_edge_scans(),
            stats.forward_edge_scans + stats.backward_edge_scans
        );
        assert!(flat.memory_bytes() > 0);
        assert_eq!(flat.source(), 0);
        assert_eq!(flat.target(), 3);
        assert_eq!(flat.hop_constraint(), 6);
    }

    /// Loading a shared lane's distances rejects `s == t` as computing them
    /// does.
    #[test]
    #[should_panic(expected = "distinct")]
    fn same_source_and_target_panics() {
        FlatDistances::new().begin_load(8, 2, 2, 3);
    }
}
