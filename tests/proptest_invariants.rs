//! Property-based tests over random digraphs and queries (proptest).
//!
//! These complement the seeded integration tests with shrinking: if an
//! invariant breaks, proptest reduces the counterexample to a minimal graph.

use proptest::collection::vec;
use proptest::prelude::*;

use hop_spg::baselines::{khsq_plus, spg_by_enumeration, EnumerationAlgorithm};
use hop_spg::eve::{Eve, EveConfig, Query};
use hop_spg::graph::traversal::BfsOptions;
use hop_spg::graph::{bfs_distances_from, bfs_distances_to, DiGraph, DistanceStrategy};

/// Strategy: a small random digraph plus a query on it.
fn graph_and_query() -> impl Strategy<Value = (DiGraph, Query)> {
    (4usize..14, 1u32..10).prop_flat_map(|(n, k)| {
        let edges = vec((0..n as u32, 0..n as u32), 0..(3 * n));
        (edges, 0..n as u32, 0..n as u32).prop_filter_map(
            "source must differ from target",
            move |(edges, s, t)| {
                if s == t {
                    return None;
                }
                Some((DiGraph::from_edges(n, edges), Query::new(s, t, k)))
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fundamental correctness property: EVE equals the union of all
    /// enumerated simple paths.
    #[test]
    fn eve_equals_enumeration_union((g, q) in graph_and_query()) {
        let eve = Eve::with_defaults(&g);
        let spg = eve.query(q).unwrap();
        let expected = spg_by_enumeration(EnumerationAlgorithm::NaiveDfs, &g, q.source, q.target, q.k);
        prop_assert_eq!(spg.edges(), expected.edges());
    }

    /// All ablation configurations agree.
    #[test]
    fn naive_and_full_configurations_agree((g, q) in graph_and_query()) {
        let full = Eve::new(&g, EveConfig::full()).query(q).unwrap();
        let naive = Eve::new(&g, EveConfig::naive()).query(q).unwrap();
        let bi = Eve::new(
            &g,
            EveConfig {
                distance_strategy: DistanceStrategy::Bidirectional,
                forward_looking_pruning: true,
                search_ordering: false,
            },
        )
        .query(q)
        .unwrap();
        prop_assert_eq!(full.edges(), naive.edges());
        prop_assert_eq!(full.edges(), bi.edges());
    }

    /// The upper-bound graph contains the answer and is exact for k ≤ 4.
    #[test]
    fn upper_bound_soundness((g, q) in graph_and_query()) {
        let out = Eve::with_defaults(&g).query_detailed(q).unwrap();
        prop_assert!(out.spg.as_subgraph().is_subgraph_of(&out.upper_bound));
        if q.k <= 4 {
            prop_assert_eq!(out.upper_bound.edge_count(), out.spg.edge_count());
        }
    }

    /// `SPG_k ⊆ G^k_st` and the answer is monotone in k.
    #[test]
    fn containment_and_monotonicity((g, q) in graph_and_query()) {
        let eve = Eve::with_defaults(&g);
        let spg = eve.query(q).unwrap();
        let (gkst, _) = khsq_plus(&g, q.source, q.target, q.k);
        prop_assert!(spg.as_subgraph().is_subgraph_of(&gkst));

        let larger = eve.query(Query::new(q.source, q.target, q.k + 1)).unwrap();
        prop_assert!(spg.as_subgraph().is_subgraph_of(larger.as_subgraph()));
    }

    /// Baseline enumerators agree with each other on the edge union.
    #[test]
    fn baselines_agree_pairwise((g, q) in graph_and_query()) {
        let reference = spg_by_enumeration(EnumerationAlgorithm::NaiveDfs, &g, q.source, q.target, q.k);
        for alg in [
            EnumerationAlgorithm::PrunedDfs,
            EnumerationAlgorithm::BcDfs,
            EnumerationAlgorithm::Join,
            EnumerationAlgorithm::PathEnum,
        ] {
            let other = spg_by_enumeration(alg, &g, q.source, q.target, q.k);
            prop_assert_eq!(reference.edges(), other.edges());
        }
    }

    /// Every edge of the answer lies in `G^k_st`: `Δ(s,u) + 1 + Δ(v,t) ≤ k`
    /// on two plain BFS passes that each avoid the other endpoint.
    #[test]
    fn answer_edges_lie_in_the_search_space((g, q) in graph_and_query()) {
        let spg = Eve::with_defaults(&g).query(q).unwrap();
        let from_s = bfs_distances_from(&g, q.source, BfsOptions::bounded_avoiding(q.k, q.target));
        let to_t = bfs_distances_to(&g, q.target, BfsOptions::bounded_avoiding(q.k, q.source));
        for &(u, v) in spg.edges() {
            let within = match (from_s.get(&u), to_t.get(&v)) {
                (Some(&du), Some(&dv)) => du + 1 + dv <= q.k,
                _ => false,
            };
            prop_assert!(within, "edge ({u},{v}) outside search space");
        }
    }
}
