//! The answer type: a k-hop-constrained s-t simple path graph.

use std::sync::Arc;

use spg_graph::hash::FxHashSet;
use spg_graph::{DiGraph, EdgeSubgraph, VertexId};

use crate::query::Query;
use crate::stats::EveStats;

/// The `k`-hop-constrained s-t simple path graph `SPG_k(s, t)`
/// (Definition 2.1): every edge lies on at least one simple path from `s` to
/// `t` of length at most `k`, and every such path's edges are present.
///
/// Produced by [`crate::Eve::query`]; carries the per-phase statistics
/// ([`EveStats`]) recorded while answering the query.
#[derive(Debug, Clone)]
pub struct SimplePathGraph {
    query: Query,
    edges: EdgeSubgraph,
    stats: EveStats,
    /// Invalidation witness: the sorted vertex set of the `G^k_st` search
    /// space this answer was derived from (see [`SimplePathGraph::witness`]).
    witness: Option<Arc<[VertexId]>>,
}

impl SimplePathGraph {
    /// Assembles an answer from its parts (used by the EVE pipeline and by
    /// the baseline adapters, which produce the same answer type). The
    /// answer carries no invalidation witness; attach one with
    /// [`SimplePathGraph::with_witness`].
    pub fn from_parts(query: Query, edges: EdgeSubgraph, stats: EveStats) -> Self {
        SimplePathGraph {
            query,
            edges,
            stats,
            witness: None,
        }
    }

    /// Attaches the invalidation witness: the **sorted** global vertex ids of
    /// the query's search space `G^k_st`. Every edge whose removal could
    /// change this answer (or its recorded upper bound) has both endpoints
    /// in the space, so a result cache can scope removal invalidation to
    /// entries whose witness contains both touched endpoints. Witness-less
    /// answers are purged pessimistically on any removal batch.
    pub fn with_witness(mut self, space_vertices: &[VertexId]) -> Self {
        debug_assert!(space_vertices.windows(2).all(|w| w[0] < w[1]));
        self.witness = Some(Arc::from(space_vertices));
        self
    }

    /// Rebuilds an answer the result cache served: the stored edge list
    /// (already sorted and deduplicated, so it is taken as is), the
    /// upper-bound size and the shared witness. No phase ran, so every
    /// timing and work counter is zero.
    pub(crate) fn from_cached(
        query: Query,
        edges: EdgeSubgraph,
        upper_bound_edges: usize,
        witness: Option<Arc<[VertexId]>>,
    ) -> Self {
        SimplePathGraph {
            query,
            edges,
            stats: EveStats {
                upper_bound_edges,
                ..EveStats::default()
            },
            witness,
        }
    }

    /// The invalidation witness, if the producer attached one: sorted global
    /// vertex ids of the search space (shared, not copied, across cache
    /// clones of this answer).
    pub fn witness(&self) -> Option<&[VertexId]> {
        self.witness.as_deref()
    }

    /// The witness allocation itself, so the cache can share it.
    pub(crate) fn shared_witness(&self) -> Option<&Arc<[VertexId]>> {
        self.witness.as_ref()
    }

    /// The query this answer belongs to.
    pub fn query(&self) -> Query {
        self.query
    }

    /// Number of edges `|E(SPG_k)|`.
    pub fn edge_count(&self) -> usize {
        self.edges.edge_count()
    }

    /// Number of distinct vertices `|V(SPG_k)|`.
    pub fn vertex_count(&self) -> usize {
        self.edges.vertex_count()
    }

    /// `true` if no simple path of length ≤ k connects `s` to `t`.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Sorted slice of the answer edges.
    pub fn edges(&self) -> &[(VertexId, VertexId)] {
        self.edges.edges()
    }

    /// The answer as an [`EdgeSubgraph`].
    pub fn as_subgraph(&self) -> &EdgeSubgraph {
        &self.edges
    }

    /// Membership test for a single edge.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edges.contains(u, v)
    }

    /// Set of vertices appearing in the answer.
    pub fn vertex_set(&self) -> FxHashSet<VertexId> {
        self.edges.vertex_set()
    }

    /// `true` if vertex `v` appears on some k-hop-constrained s-t simple
    /// path. This is the membership test used in the NP-hardness reduction
    /// (Theorem 2.5).
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.edges.edges().iter().any(|&(a, b)| a == v || b == v)
    }

    /// Coverage ratio `r_C = |E(SPG_k)| / |E(G)|` (§6.6, Figure 12(a)).
    pub fn coverage_ratio(&self, host: &DiGraph) -> f64 {
        if host.edge_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / host.edge_count() as f64
        }
    }

    /// Materialises the answer as a standalone [`DiGraph`] over the host
    /// graph's vertex id space — e.g. to hand it to a path enumerator as its
    /// search space (§6.7).
    pub fn to_graph(&self, host_vertex_count: usize) -> DiGraph {
        self.edges.to_graph(host_vertex_count)
    }

    /// Statistics recorded while computing this answer.
    pub fn stats(&self) -> &EveStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimplePathGraph {
        let edges = EdgeSubgraph::from_edges([(0, 1), (1, 2), (2, 3)]);
        SimplePathGraph::from_parts(Query::new(0, 3, 4), edges, EveStats::default())
    }

    #[test]
    fn basic_accessors() {
        let spg = sample();
        assert_eq!(spg.edge_count(), 3);
        assert_eq!(spg.vertex_count(), 4);
        assert!(!spg.is_empty());
        assert!(spg.contains_edge(1, 2));
        assert!(!spg.contains_edge(2, 1));
        assert!(spg.contains_vertex(0));
        assert!(!spg.contains_vertex(9));
        assert_eq!(spg.query().k, 4);
        assert_eq!(spg.edges().len(), 3);
        assert_eq!(spg.as_subgraph().edge_count(), 3);
        assert_eq!(spg.vertex_set().len(), 4);
    }

    #[test]
    fn coverage_ratio_against_host() {
        let host = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let spg = sample();
        let r = spg.coverage_ratio(&host);
        assert!((r - 0.5).abs() < 1e-12);
        assert_eq!(spg.coverage_ratio(&DiGraph::empty(3)), 0.0);
    }

    #[test]
    fn to_graph_round_trip() {
        let spg = sample();
        let g = spg.to_graph(6);
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(2, 3));
    }
}
