//! PathEnum-style enumeration: a lightweight per-query index plus a
//! cost-based choice between DFS-based and join-based evaluation.
//!
//! PathEnum (Sun et al., SIGMOD'21) answers a hop-constrained s-t simple path
//! query in two steps: (1) build a small online index containing only the
//! vertices and edges that can participate in an answer path, and (2) pick a
//! DFS-based or a join-based enumeration plan for that index using estimated
//! result cardinalities. This module reproduces that structure on top of the
//! workspace substrate:
//!
//! * the index is the distance-filtered search space
//!   `{e(u,v) : Δ(s,u) + 1 + Δ(v,t) ≤ k}` (`G^k_st`, built by
//!   [`crate::khsq::khsq_plus`]) materialised as a [`DiGraph`];
//! * cardinalities are estimated with a walk-count dynamic program over the
//!   index (number of length-bounded walks, an upper bound on the number of
//!   partial simple paths each plan materialises);
//! * the DFS plan runs the distance-cut DFS of [`crate::dfs::pruned_dfs`] on
//!   the index, the join plan runs [`crate::join::join_enumerate`] on it.

use spg_graph::hash::FxHashMap;
use spg_graph::{DiGraph, VertexId};

use crate::dfs::pruned_dfs;
use crate::join::join_enumerate_with_stats;
use crate::khsq::khsq_plus;
use crate::sink::PathSink;

/// Evaluation plan selected by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEnumStrategy {
    /// Depth-first search with distance cuts over the index.
    DfsBased,
    /// Middle-split join of partial paths over the index.
    JoinBased,
}

/// The per-query PathEnum index.
#[derive(Debug, Clone)]
pub struct PathEnumIndex {
    s: VertexId,
    t: VertexId,
    k: u32,
    /// The search-space subgraph, over the host graph's vertex id space.
    index_graph: DiGraph,
    index_edges: usize,
    index_vertices: usize,
    build_scans: usize,
}

impl PathEnumIndex {
    /// Builds the index for query `⟨s, t, k⟩` on `g`.
    pub fn build(g: &DiGraph, s: VertexId, t: VertexId, k: u32) -> PathEnumIndex {
        assert!(s != t, "queries require distinct endpoints");
        let (subgraph, stats) = khsq_plus(g, s, t, k);
        let index_edges = subgraph.edge_count();
        let index_vertices = subgraph.vertex_count();
        PathEnumIndex {
            s,
            t,
            k,
            index_graph: subgraph.to_graph(g.vertex_count()),
            index_edges,
            index_vertices,
            build_scans: stats.materialise_edge_scans,
        }
    }

    /// Number of edges retained in the index.
    pub fn edge_count(&self) -> usize {
        self.index_edges
    }

    /// Number of vertices incident to an index edge.
    pub fn vertex_count(&self) -> usize {
        self.index_vertices
    }

    /// Adjacency scans performed while building the index.
    pub fn build_scans(&self) -> usize {
        self.build_scans
    }

    /// The index materialised as a graph (same vertex id space as the host).
    pub fn graph(&self) -> &DiGraph {
        &self.index_graph
    }

    /// Approximate heap footprint of the index in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.index_graph.memory_bytes()
    }

    /// Estimated cost of the DFS plan: number of hop-bounded walks from `s`
    /// of length ≤ k inside the index (an upper bound on DFS node
    /// expansions).
    pub fn estimated_dfs_cost(&self) -> f64 {
        self.walk_count_from(self.s, self.k, true)
    }

    /// Estimated cost of the join plan: forward walks of length ≤ ⌈k/2⌉ plus
    /// backward walks of length ≤ ⌊k/2⌋ (an upper bound on the partial paths
    /// each side materialises).
    pub fn estimated_join_cost(&self) -> f64 {
        let kf = self.k.div_ceil(2);
        let kb = self.k - kf;
        self.walk_count_from(self.s, kf, true) + self.walk_count_from(self.t, kb, false)
    }

    /// Chooses the cheaper plan according to the walk-count estimates.
    pub fn choose_strategy(&self) -> PathEnumStrategy {
        if self.estimated_join_cost() < self.estimated_dfs_cost() {
            PathEnumStrategy::JoinBased
        } else {
            PathEnumStrategy::DfsBased
        }
    }

    /// Enumerates all k-hop-constrained s-t simple paths using the plan the
    /// cost model selects.
    pub fn enumerate(&self, sink: &mut dyn PathSink) -> PathEnumStrategy {
        let strategy = self.choose_strategy();
        self.enumerate_with(strategy, sink);
        strategy
    }

    /// Enumerates with an explicitly chosen plan.
    pub fn enumerate_with(&self, strategy: PathEnumStrategy, sink: &mut dyn PathSink) {
        if self.index_edges == 0 {
            return;
        }
        match strategy {
            PathEnumStrategy::DfsBased => {
                pruned_dfs(&self.index_graph, self.s, self.t, self.k, sink);
            }
            PathEnumStrategy::JoinBased => {
                join_enumerate_with_stats(&self.index_graph, self.s, self.t, self.k, sink);
            }
        }
    }

    /// Number of walks (vertex repetitions allowed) of length ≤ `depth`
    /// starting at `origin`, following out-edges (`forward = true`) or
    /// in-edges (`forward = false`) of the index. Saturates gracefully via
    /// `f64`.
    fn walk_count_from(&self, origin: VertexId, depth: u32, forward: bool) -> f64 {
        let mut current: FxHashMap<VertexId, f64> = FxHashMap::default();
        current.insert(origin, 1.0);
        let mut total = 1.0f64;
        for _ in 0..depth {
            let mut next: FxHashMap<VertexId, f64> = FxHashMap::default();
            for (&v, &count) in &current {
                let neighbors = if forward {
                    self.index_graph.out_neighbors(v)
                } else {
                    self.index_graph.in_neighbors(v)
                };
                for &w in neighbors {
                    *next.entry(w).or_insert(0.0) += count;
                }
            }
            total += next.values().sum::<f64>();
            if next.is_empty() {
                break;
            }
            current = next;
        }
        total
    }
}

/// Convenience wrapper: build the index and enumerate in one call (the shape
/// used by the benchmark harness).
pub fn pathenum_enumerate(g: &DiGraph, s: VertexId, t: VertexId, k: u32, sink: &mut dyn PathSink) {
    PathEnumIndex::build(g, s, t, k).enumerate(sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::naive_dfs;
    use crate::sink::{CollectPaths, CountPaths};
    use spg_graph::generators::{gnm_random, layered_dag};

    #[test]
    fn both_plans_match_naive_dfs() {
        for seed in 0..15u64 {
            let n = 10;
            let g = gnm_random(n, 30, 300 + seed);
            for k in 2..7u32 {
                let mut expected = CollectPaths::new();
                naive_dfs(&g, 0, (n - 1) as u32, k, &mut expected);
                let expected = expected.into_sorted();

                let index = PathEnumIndex::build(&g, 0, (n - 1) as u32, k);
                for strategy in [PathEnumStrategy::DfsBased, PathEnumStrategy::JoinBased] {
                    let mut got = CollectPaths::new();
                    index.enumerate_with(strategy, &mut got);
                    assert_eq!(
                        expected,
                        got.into_sorted(),
                        "seed={seed} k={k} {strategy:?}"
                    );
                }
                let mut auto = CollectPaths::new();
                index.enumerate(&mut auto);
                assert_eq!(expected, auto.into_sorted(), "seed={seed} k={k} auto");
            }
        }
    }

    #[test]
    fn index_is_never_larger_than_the_graph() {
        let g = gnm_random(200, 1500, 9);
        let index = PathEnumIndex::build(&g, 0, 199, 4);
        assert!(index.edge_count() <= g.edge_count());
        assert!(index.vertex_count() <= g.vertex_count());
        assert!(index.memory_bytes() > 0);
        assert!(index.build_scans() > 0);
        assert_eq!(index.graph().vertex_count(), g.vertex_count());
    }

    #[test]
    fn cost_model_prefers_join_on_wide_dags() {
        // A wide layered DAG has exponentially many forward walks of length k
        // but the halves are much smaller, so the join plan must win.
        let g = layered_dag(7, 4);
        let t = (7 * 4 - 1) as u32; // a sink-layer vertex
        let index = PathEnumIndex::build(&g, 0, t, 6);
        assert!(index.estimated_join_cost() <= index.estimated_dfs_cost());
        assert_eq!(index.choose_strategy(), PathEnumStrategy::JoinBased);
    }

    #[test]
    fn cost_model_prefers_dfs_on_tiny_spaces() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let index = PathEnumIndex::build(&g, 0, 3, 3);
        assert_eq!(index.choose_strategy(), PathEnumStrategy::DfsBased);
        let mut sink = CountPaths::new();
        index.enumerate(&mut sink);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn infeasible_queries_produce_empty_index() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let index = PathEnumIndex::build(&g, 0, 3, 5);
        assert_eq!(index.edge_count(), 0);
        let mut sink = CountPaths::new();
        index.enumerate(&mut sink);
        assert_eq!(sink.count(), 0);
        let mut sink = CountPaths::new();
        pathenum_enumerate(&g, 0, 3, 5, &mut sink);
        assert_eq!(sink.count(), 0);
    }
}
