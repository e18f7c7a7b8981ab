//! # spg-core — EVE: hop-constrained s-t simple path graph generation
//!
//! From-scratch Rust implementation of **EVE** (Essential Vertices based
//! Examination), the algorithm of *"Towards Generating Hop-constrained s-t
//! Simple Path Graphs"* (SIGMOD 2023). Given a directed graph and a query
//! `⟨s, t, k⟩`, EVE computes the subgraph `SPG_k(s, t)` containing exactly
//! the edges that lie on at least one simple path from `s` to `t` of length
//! at most `k` — without enumerating those paths.
//!
//! The pipeline has three phases (see [`Eve`]), each run on flat buffers
//! over the compacted search space `G^k_st` that a reusable
//! [`QueryWorkspace`] holds:
//!
//! 1. propagation — essential-vertex sets `EV*_l(s, ·)` / `EV*_l(·, t)`
//!    computed by level-wise propagation with forward-looking pruning;
//! 2. labeling — every edge in the search space is labeled failing /
//!    undetermined / definite, yielding the tight upper-bound graph
//!    `SPGᵘ_k(s, t)`;
//! 3. verification — each undetermined edge is confirmed or rejected by a
//!    DFS-oriented search for a witness path between a departure and an
//!    arrival vertex.
//!
//! [`EveStats`] carries each phase's counters ([`PropagationStats`],
//! [`LabelingStats`], [`VerificationStats`]) with every answer.
//!
//! Batch serving builds on the pipeline: [`executor`] runs query batches
//! across threads, and [`cache`] memoises answers for hot `(s, t, k)`
//! triples behind a graph-version key ([`spg_graph::VersionedGraph`]) so
//! cached runs are bit-identical to uncached ones. Streaming edge deltas
//! mutate the graph in place and invalidate only the affected cache entries
//! ([`dynamic`]).
//!
//! ```
//! use spg_core::{Eve, EveConfig, Query};
//! use spg_core::paper_example::{figure1_graph, names};
//!
//! let g = figure1_graph();
//! let eve = Eve::new(&g, EveConfig::default());
//! let spg = eve.query(Query::new(names::S, names::T, 4)).unwrap();
//! assert_eq!(spg.edge_count(), 8); // Figure 1(c)
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cohort;
mod compact;

pub mod cache;
pub mod dynamic;
pub mod eve;
pub mod executor;
pub mod failpoints;
pub mod flight;
pub mod paper_example;
pub mod query;
pub mod spg;
pub mod stats;
pub mod workspace;

pub use cache::{CacheOutcome, CacheStats, CachedEve, SpgCache};
pub use cohort::LaneWidth;
pub use dynamic::{apply_delta_scoped, DeltaUpdate, InvalidationScope};
pub use eve::{Eve, EveConfig, EveOutput};
pub use executor::{
    BatchExecutor, BatchOutcome, BatchResult, BatchStats, SharedPhase1Stats, ThreadBatchStats,
};
pub use flight::{FlightGroup, FlightJoiner, FlightOutcome, FlightRole, FlightStats, FlightToken};
pub use query::{Query, QueryError};
pub use spg::SimplePathGraph;
pub use stats::{
    EveStats, LabelingStats, MemoryEstimate, PhaseTimings, PropagationStats, VerificationStats,
};
pub use workspace::QueryWorkspace;
