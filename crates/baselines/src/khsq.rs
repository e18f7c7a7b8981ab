//! KHSQ / KHSQ+: k-hop s-t subgraph (`G^k_st`) construction.
//!
//! Liu et al. (DASFAA'21) define the k-hop s-t subgraph `G^k_st` as the
//! subgraph containing every path from `s` to `t` within `k` hops — paths
//! need not be simple, so `G^k_st` is a (usually strict) superset of
//! `SPG_k(s, t)`. An edge `e(u, v)` belongs to `G^k_st` iff
//! `Δ(s, u) + 1 + Δ(v, t) ≤ k`.
//!
//! * [`khsq`] follows the original algorithm: two single-directional
//!   hop-bounded BFS passes.
//! * [`khsq_plus`] is the optimised variant the paper introduces in §6.7: the
//!   same subgraph computed with the adaptive bidirectional search.
//!
//! Both are used by the harness for Table 4 / Table 5 / Figure 12(b), where
//! `G^k_st` serves as an alternative (looser) search space for PathEnum and
//! JOIN.

use spg_graph::{DiGraph, DistanceStrategy, EdgeSubgraph, FlatDistances, VertexId, INF_DIST};

/// Work counters of one `G^k_st` construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KhsqStats {
    /// Edges scanned by the distance searches.
    pub distance_edge_scans: usize,
    /// Edges scanned while materialising the subgraph.
    pub materialise_edge_scans: usize,
    /// Edges in the resulting `G^k_st`.
    pub subgraph_edges: usize,
}

/// `G^k_st` via two single-directional BFS passes (the original KHSQ).
pub fn khsq(g: &DiGraph, s: VertexId, t: VertexId, k: u32) -> (EdgeSubgraph, KhsqStats) {
    build(g, s, t, k, DistanceStrategy::Single)
}

/// `G^k_st` via adaptive bidirectional search (KHSQ+, §6.7).
pub fn khsq_plus(g: &DiGraph, s: VertexId, t: VertexId, k: u32) -> (EdgeSubgraph, KhsqStats) {
    build(g, s, t, k, DistanceStrategy::AdaptiveBidirectional)
}

fn build(
    g: &DiGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
    strategy: DistanceStrategy,
) -> (EdgeSubgraph, KhsqStats) {
    let mut dist = FlatDistances::new();
    dist.compute(g, s, t, k, strategy);
    let mut stats = KhsqStats {
        distance_edge_scans: dist.stats().total_edge_scans(),
        ..Default::default()
    };
    if !dist.is_feasible() {
        return (EdgeSubgraph::new(), stats);
    }
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for &u in dist.forward_seen() {
        let du = dist.dist_from_s(u);
        if du == INF_DIST {
            continue;
        }
        for &v in g.out_neighbors(u) {
            stats.materialise_edge_scans += 1;
            let dv = dist.dist_to_t(v);
            if dv != INF_DIST && du + 1 + dv <= k {
                edges.push((u, v));
            }
        }
    }
    let subgraph = EdgeSubgraph::from_edges(edges);
    stats.subgraph_edges = subgraph.edge_count();
    (subgraph, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::naive_dfs;
    use crate::sink::EdgeUnion;
    use spg_graph::generators::gnm_random;
    use spg_graph::traversal::BfsOptions;
    use spg_graph::{bfs_distances_from, bfs_distances_to};

    #[test]
    fn khsq_and_khsq_plus_produce_the_same_subgraph() {
        for seed in 0..10u64 {
            let g = gnm_random(30, 150, seed);
            for k in 2..7u32 {
                let (a, _) = khsq(&g, 0, 29, k);
                let (b, _) = khsq_plus(&g, 0, 29, k);
                assert_eq!(a, b, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn gkst_contains_the_simple_path_graph() {
        for seed in 0..10u64 {
            let g = gnm_random(15, 60, 40 + seed);
            for k in 3..7u32 {
                let (gkst, _) = khsq_plus(&g, 0, 14, k);
                let mut union = EdgeUnion::new();
                naive_dfs(&g, 0, 14, k, &mut union);
                let spg = union.into_subgraph();
                assert!(
                    spg.is_subgraph_of(&gkst),
                    "SPG ⊄ G^k_st for seed={seed} k={k}"
                );
            }
        }
    }

    #[test]
    fn every_gkst_edge_satisfies_the_distance_condition() {
        let g = gnm_random(40, 200, 3);
        let k = 5;
        let (gkst, stats) = khsq_plus(&g, 0, 39, k);
        let from_s = bfs_distances_from(&g, 0, BfsOptions::bounded_avoiding(k, 39));
        let to_t = bfs_distances_to(&g, 39, BfsOptions::bounded_avoiding(k, 0));
        assert!(!gkst.is_empty());
        for &(u, v) in gkst.edges() {
            assert!(from_s[&u] + 1 + to_t[&v] <= k);
        }
        assert_eq!(stats.subgraph_edges, gkst.edge_count());
        assert!(stats.distance_edge_scans > 0);
    }

    #[test]
    fn infeasible_query_gives_empty_subgraph() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let (sub, stats) = khsq(&g, 0, 3, 6);
        assert!(sub.is_empty());
        assert_eq!(stats.subgraph_edges, 0);
    }
}
