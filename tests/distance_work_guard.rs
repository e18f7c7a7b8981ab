//! Work guard for Phase 1a's per-query distance search: the adaptive
//! strategy's in-space finish must scan at most half the edges the
//! balanced bidirectional schedule scans on a uniform random graph.
//!
//! Answers are pinned elsewhere (`FlatDistances` against `Single`, EVE
//! against enumeration); this test pins the work, so a change that keeps the
//! answers but expands vertices outside the search space again fails here.

use hop_spg::eve::Query;
use hop_spg::graph::generators::gnm_random;
use hop_spg::graph::traversal::{DistanceStrategy, FlatDistances};
use hop_spg::graph::DiGraph;
use hop_spg::workloads::reachable_queries;

/// Total forward plus backward edge scans of `strategy` over `queries`.
fn edge_scans(g: &DiGraph, queries: &[Query], strategy: DistanceStrategy) -> usize {
    let mut flat = FlatDistances::new();
    queries
        .iter()
        .map(|q| {
            flat.compute(g, q.source, q.target, q.k, strategy);
            let stats = flat.stats();
            stats.forward_edge_scans + stats.backward_edge_scans
        })
        .sum()
}

#[test]
fn adaptive_scans_at_most_half_of_bidirectional() {
    let g = gnm_random(4000, 24000, 7);
    for k in 4..=8u32 {
        let queries = reachable_queries(&g, 64, k, 11);
        assert_eq!(queries.len(), 64, "k={k}");
        let adaptive = edge_scans(&g, &queries, DistanceStrategy::AdaptiveBidirectional);
        let balanced = edge_scans(&g, &queries, DistanceStrategy::Bidirectional);
        println!("k={k} adaptive={adaptive} bidirectional={balanced}");
        assert!(
            2 * adaptive <= balanced,
            "k={k}: adaptive scanned {adaptive} edges, bidirectional {balanced}"
        );
    }
}
