//! Hop-bounded breadth-first search with an optional forbidden vertex.
//!
//! The forbidden vertex models the paper's convention that forward searches
//! from `s` never route *through* the target `t` (and backward searches never
//! route through `s`): the forbidden vertex may receive a distance when first
//! reached, but its out-edges are never expanded. This matches the essential
//! vertex definition (Definition 3.1), which only considers paths that do not
//! pass through the opposite endpoint.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use crate::csr::{DiGraph, Direction, VertexId};
use crate::hash::{map_with_capacity, FxHashMap};

/// Options controlling a hop-bounded BFS.
#[derive(Debug, Clone, Copy)]
pub struct BfsOptions {
    /// Maximum number of hops to explore (inclusive).
    pub max_depth: u32,
    /// Vertex whose outgoing (or incoming, for backward BFS) edges are never
    /// expanded. It still receives a distance if reached.
    pub forbidden: Option<VertexId>,
}

impl BfsOptions {
    /// BFS up to `max_depth` hops with no forbidden vertex.
    pub fn bounded(max_depth: u32) -> Self {
        BfsOptions {
            max_depth,
            forbidden: None,
        }
    }

    /// BFS up to `max_depth` hops that never expands `forbidden`.
    pub fn bounded_avoiding(max_depth: u32, forbidden: VertexId) -> Self {
        BfsOptions {
            max_depth,
            forbidden: Some(forbidden),
        }
    }
}

/// Generic hop-bounded BFS in the chosen direction.
///
/// Returns a sparse map `vertex -> distance` containing every vertex whose
/// distance from (or to, for [`Direction::Backward`]) `source` is at most
/// `opts.max_depth`, subject to the forbidden-vertex rule.
pub fn bfs_distances(
    g: &DiGraph,
    source: VertexId,
    dir: Direction,
    opts: BfsOptions,
) -> FxHashMap<VertexId, u32> {
    let mut dist: FxHashMap<VertexId, u32> = map_with_capacity(64);
    dist.insert(source, 0);
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du >= opts.max_depth {
            continue;
        }
        if opts.forbidden == Some(u) && u != source {
            continue;
        }
        for &v in g.neighbors(u, dir) {
            if let Entry::Vacant(slot) = dist.entry(v) {
                slot.insert(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Forward BFS: distances `Δ(source, v)` for `v` within `max_depth` hops.
pub fn bfs_distances_from(
    g: &DiGraph,
    source: VertexId,
    opts: BfsOptions,
) -> FxHashMap<VertexId, u32> {
    bfs_distances(g, source, Direction::Forward, opts)
}

/// Backward BFS: distances `Δ(v, target)` for `v` within `max_depth` hops.
pub fn bfs_distances_to(
    g: &DiGraph,
    target: VertexId,
    opts: BfsOptions,
) -> FxHashMap<VertexId, u32> {
    bfs_distances(g, target, Direction::Backward, opts)
}

/// Test oracle for the per-query distance search: `(Δ(s, v), Δ(v, t))` per
/// vertex id, or `(INF_DIST, INF_DIST)` outside the search space
/// `Δ(s,v) + Δ(v,t) ≤ k`. Two plain BFS passes, each avoiding the other
/// endpoint; it shares no code with [`crate::FlatDistances`].
#[cfg(test)]
pub(crate) fn search_space_oracle(
    g: &DiGraph,
    s: VertexId,
    t: VertexId,
    k: u32,
) -> Vec<(u32, u32)> {
    let from_s = bfs_distances_from(g, s, BfsOptions::bounded_avoiding(k, t));
    let to_t = bfs_distances_to(g, t, BfsOptions::bounded_avoiding(k, s));
    g.vertices()
        .map(|v| match (from_s.get(&v), to_t.get(&v)) {
            (Some(&df), Some(&db)) if df + db <= k => (df, db),
            _ => (crate::INF_DIST, crate::INF_DIST),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn forward_distances_on_a_path() {
        let g = path_graph(6);
        let d = bfs_distances_from(&g, 0, BfsOptions::bounded(10));
        for v in 0..6u32 {
            assert_eq!(d[&v], v);
        }
    }

    #[test]
    fn backward_distances_on_a_path() {
        let g = path_graph(6);
        let d = bfs_distances_to(&g, 5, BfsOptions::bounded(10));
        for v in 0..6u32 {
            assert_eq!(d[&v], 5 - v);
        }
    }

    #[test]
    fn depth_bound_is_respected() {
        let g = path_graph(10);
        let d = bfs_distances_from(&g, 0, BfsOptions::bounded(3));
        assert_eq!(d.len(), 4); // vertices 0..=3
        assert!(!d.contains_key(&4));
    }

    #[test]
    fn forbidden_vertex_is_reached_but_not_expanded() {
        // 0 -> 1 -> 2 -> 3, and 0 -> 2 directly? No: make the only route to 3
        // pass through 2, and forbid 2.
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances_from(&g, 0, BfsOptions::bounded_avoiding(10, 2));
        assert_eq!(d[&2], 2);
        assert!(
            !d.contains_key(&3),
            "must not route through forbidden vertex"
        );
    }

    #[test]
    fn forbidden_source_still_expands() {
        // Forbidding the source itself must not suppress the whole search.
        let g = path_graph(4);
        let d = bfs_distances_from(&g, 0, BfsOptions::bounded_avoiding(10, 0));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn shortest_distance_ignores_longer_alternatives() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 2? Use diamond: 0->1->3, 0->2->3, plus 0->3.
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)]);
        let d = bfs_distances_from(&g, 0, BfsOptions::bounded(5));
        assert_eq!(d[&3], 1);
    }

    #[test]
    fn unreachable_vertices_absent_from_map() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let d = bfs_distances_from(&g, 0, BfsOptions::bounded(5));
        assert!(d.contains_key(&1));
        assert!(!d.contains_key(&2));
        assert!(!d.contains_key(&3));
    }
}
