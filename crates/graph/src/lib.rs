//! # spg-graph — directed graph substrate
//!
//! This crate provides the graph infrastructure that every other crate in the
//! workspace builds on:
//!
//! * [`DiGraph`] — a compact, immutable directed graph in CSR (compressed
//!   sparse row) form with both out- and in-adjacency, suitable for the
//!   forward *and* backward traversals required by the EVE algorithm.
//! * [`GraphBuilder`] — deduplicating, self-loop-filtering builder.
//! * [`traversal`] — BFS distance computation, including the single,
//!   bidirectional and **adaptive bidirectional** search strategies compared
//!   in §3.3 / Figure 11 of the paper, plus hop-bounded reachability.
//! * [`generators`] — deterministic random graph generators used to simulate
//!   the paper's 15 real-world networks (Table 2) at laptop scale.
//! * [`io`] — plain text edge-list reading and writing.
//! * [`subgraph`] — edge-subgraph extraction (used for `SPG_k`, `SPGᵘ_k` and
//!   `G^k_st` materialisation).
//! * [`hash`] — a small deterministic Fx-style hasher so hot hash maps keyed
//!   by vertex ids do not pay the SipHash cost.
//! * [`versioned`] — [`VersionedGraph`], a handle stamping every graph
//!   snapshot with a process-unique monotone [`GraphVersion`] so memoising
//!   layers (the `spg_core` result cache) can never serve stale answers.
//! * [`delta`] — [`EdgeDelta`] batches applied as CSR overlays for
//!   streaming updates that keep the version (and unaffected cache
//!   entries) alive.
//! * [`budget`] — [`QueryBudget`], the cooperative cancellation token
//!   (wall-clock deadline + work ceiling) the traversal engines poll at
//!   level boundaries.
//!
//! The crate is `#![forbid(unsafe_code)]`; all hot paths rely on index-based
//! CSR traversal rather than pointer tricks.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod hash;
pub mod io;
pub mod properties;
pub mod subgraph;
pub mod traversal;
pub mod versioned;

pub use budget::{BudgetExhausted, QueryBudget};
pub use builder::GraphBuilder;
pub use csr::{DiGraph, Direction, EdgeId, VertexId};
pub use delta::{multi_source_distances, DeltaError, DeltaOp, DeltaVersion, EdgeDelta};
pub use properties::DegreeStats;
pub use subgraph::EdgeSubgraph;
pub use traversal::{
    bfs_distances_from, bfs_distances_to, k_hop_reachable, DistanceIndex, DistanceStrategy,
    FlatDistances, FrontierMode, LaneBlock, Lanes256, Lanes64, MsBfsEngine, MsBfsLane, MsBfsStats,
    SearchSpace, SearchSpaceStats, SpaceScratch,
};
pub use versioned::{GraphVersion, VersionedGraph};

/// Sentinel distance meaning "unreachable / outside the search space".
pub const INF_DIST: u32 = u32::MAX;

// Concurrency audit: the batch executor in `spg-core` hands an O(1) clone of
// one `DiGraph` to its long-lived drain workers and gives each worker
// private distance / search-space buffers. Every one of these types is plain owned data
// (`Vec`s, integers, hash maps keyed by ids) with no interior mutability, so
// `Send + Sync` holds structurally; these compile-time asserts turn that
// architectural assumption into a build error if a future refactor ever
// introduces an `Rc`, `RefCell` or raw-pointer cache into the query inputs.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DiGraph>();
    assert_send_sync::<GraphBuilder>();
    assert_send_sync::<EdgeSubgraph>();
    assert_send_sync::<DistanceIndex>();
    assert_send_sync::<FlatDistances>();
    assert_send_sync::<MsBfsEngine>();
    assert_send_sync::<MsBfsEngine<Lanes256>>();
    assert_send_sync::<SearchSpace>();
    assert_send_sync::<SpaceScratch>();
    assert_send_sync::<VersionedGraph>();
};
