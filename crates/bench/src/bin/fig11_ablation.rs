//! Figure 11: effectiveness of the pruning strategies (k = 7).
//!
//! Compares, per dataset, the total query-batch time of:
//! * Naive EVE (single BFS, no forward-looking pruning, no search ordering),
//! * + forward-looking pruning,
//! * + bidirectional search,
//! * + adaptive bidirectional search,
//! * full EVE (adaptive + pruning + search ordering).
//!
//! The "+adaptive" column includes the adaptive strategy's in-space finish:
//! once the frontiers meet, each side expands only vertices the other side
//! already places in `G^k_st`. The "+bidirectional" column keeps the
//! balanced schedule's unpruned finish.
//!
//! Every variant answers the queries with `Eve::query_with` on one reusable
//! workspace, after one untimed pass over the same queries so that no
//! column pays first-touch costs. Propagation runs over the compacted
//! `G^k_st` CSR, whose space restriction structurally subsumes most of the
//! Theorem 3.6 rule, so the "+fwd-looking" step moves little here.

use std::time::{Duration, Instant};

use spg_bench::{build_dataset, fmt_ms, HarnessConfig, Table};
use spg_core::{Eve, EveConfig, QueryWorkspace};
use spg_graph::DistanceStrategy;
use spg_workloads::reachable_queries;

fn main() {
    let cfg = HarnessConfig::from_args();
    let k = 7u32;
    let variants: [(&str, EveConfig); 5] = [
        ("Naive EVE", EveConfig::naive()),
        (
            "+fwd-looking",
            EveConfig {
                distance_strategy: DistanceStrategy::Single,
                forward_looking_pruning: true,
                search_ordering: false,
            },
        ),
        (
            "+bidirectional",
            EveConfig {
                distance_strategy: DistanceStrategy::Bidirectional,
                forward_looking_pruning: true,
                search_ordering: false,
            },
        ),
        (
            "+adaptive",
            EveConfig {
                distance_strategy: DistanceStrategy::AdaptiveBidirectional,
                forward_looking_pruning: true,
                search_ordering: false,
            },
        ),
        ("full EVE (+ordering)", EveConfig::full()),
    ];
    let headers: Vec<&str> = std::iter::once("dataset")
        .chain(variants.iter().map(|(name, _)| *name))
        .collect();
    let mut table = Table::new(
        "Figure 11: total time (ms) per pruning configuration, k = 7",
        &headers,
    );
    let datasets = cfg.select_datasets(&[
        "ps", "ye", "wn", "uk", "sf", "bk", "tw", "bs", "gg", "hm", "wt", "lj", "dl", "fr", "hg",
    ]);
    for spec in datasets {
        let g = build_dataset(spec, &cfg);
        let queries = reachable_queries(&g, cfg.queries, k, cfg.seed);
        if queries.is_empty() {
            continue;
        }
        let mut row = vec![spec.code.to_string()];
        let mut ws = QueryWorkspace::new();
        for (_, config) in &variants {
            let eve = Eve::new(&g, *config);
            for &q in &queries {
                eve.query_with(&mut ws, q).expect("valid query");
            }
            let mut total = Duration::ZERO;
            for &q in &queries {
                let start = Instant::now();
                let _ = eve.query_with(&mut ws, q).expect("valid query");
                total += start.elapsed();
            }
            row.push(fmt_ms(total));
        }
        table.add_row(row);
    }
    table.print();
}
