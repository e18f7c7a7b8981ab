//! Property tests for the reusable `QueryWorkspace` (proptest).
//!
//! The contract under test: answering a *shuffled batch* of queries through
//! one long-lived workspace returns bit-identical SPG edge sets to fresh
//! single-shot `query` calls — workspace reuse can never leak state between
//! queries, across hop constraints, endpoints, or even host graphs. Both
//! equal the union of all enumerated simple paths.

use proptest::collection::vec;
use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hop_spg::baselines::{spg_by_enumeration, EnumerationAlgorithm};
use hop_spg::eve::{Eve, Query, QueryWorkspace};
use hop_spg::graph::DiGraph;

/// Strategy: a small random digraph plus a batch of queries on it.
fn graph_and_batch() -> impl Strategy<Value = (DiGraph, Vec<Query>, u64)> {
    (4usize..16, 0u64..1_000_000).prop_flat_map(|(n, seed)| {
        let edges = vec((0..n as u32, 0..n as u32), 0..(4 * n));
        let queries = vec((0..n as u32, 0..n as u32, 1u32..9), 1..10);
        (edges, queries).prop_map(move |(edges, qs)| {
            let g = DiGraph::from_edges(n, edges);
            let batch: Vec<Query> = qs
                .into_iter()
                .filter(|&(s, t, _)| s != t)
                .map(|(s, t, k)| Query::new(s, t, k))
                .collect();
            (g, batch, seed)
        })
    })
}

fn shuffle(batch: &mut [Query], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..batch.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        batch.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffled-batch reuse equals fresh single-shot queries, and both equal
    /// the enumeration oracle.
    #[test]
    fn warm_workspace_matches_fresh_queries((g, mut batch, seed) in graph_and_batch()) {
        shuffle(&mut batch, seed);
        let eve = Eve::with_defaults(&g);
        let mut ws = QueryWorkspace::new();
        for &q in &batch {
            let warm = eve.query_with(&mut ws, q).unwrap();
            let fresh = eve.query(q).unwrap();
            let expected =
                spg_by_enumeration(EnumerationAlgorithm::NaiveDfs, &g, q.source, q.target, q.k);
            prop_assert_eq!(warm.edges(), fresh.edges());
            prop_assert_eq!(warm.edges(), expected.edges());
            prop_assert_eq!(
                warm.stats().upper_bound_edges,
                fresh.stats().upper_bound_edges
            );
        }
    }

    /// One workspace shared across two different graphs: interleaving must
    /// not leak state in either direction.
    #[test]
    fn workspace_reuse_across_graphs(
        (g1, mut batch1, seed) in graph_and_batch(),
        (g2, mut batch2, _) in graph_and_batch(),
    ) {
        shuffle(&mut batch1, seed);
        shuffle(&mut batch2, seed.wrapping_add(1));
        let eve1 = Eve::with_defaults(&g1);
        let eve2 = Eve::with_defaults(&g2);
        let mut ws = QueryWorkspace::new();
        let rounds = batch1.len().max(batch2.len());
        for i in 0..rounds {
            if let Some(&q) = batch1.get(i) {
                let warm = eve1.query_with(&mut ws, q).unwrap();
                let fresh = eve1.query(q).unwrap();
                prop_assert_eq!(warm.edges(), fresh.edges());
            }
            if let Some(&q) = batch2.get(i) {
                let warm = eve2.query_with(&mut ws, q).unwrap();
                let fresh = eve2.query(q).unwrap();
                prop_assert_eq!(warm.edges(), fresh.edges());
            }
        }
    }

    /// The detailed output (upper bound included) is reuse-safe too, and
    /// the upper bound contains the answer.
    #[test]
    fn detailed_output_is_reuse_safe((g, mut batch, seed) in graph_and_batch()) {
        shuffle(&mut batch, seed);
        let eve = Eve::with_defaults(&g);
        let mut ws = QueryWorkspace::new();
        for &q in &batch {
            let warm = eve.query_detailed_with(&mut ws, q).unwrap();
            let fresh = eve.query_detailed(q).unwrap();
            prop_assert_eq!(warm.spg.edges(), fresh.spg.edges());
            prop_assert_eq!(&warm.upper_bound, &fresh.upper_bound);
            prop_assert!(warm.spg.as_subgraph().is_subgraph_of(&warm.upper_bound));
            let ub = eve.upper_bound_with(&mut ws, q).unwrap();
            prop_assert_eq!(&ub, &warm.upper_bound);
        }
    }
}
