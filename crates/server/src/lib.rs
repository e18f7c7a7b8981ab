//! # spg-server — online serving engine for hop-constrained s-t SPG queries
//!
//! The paper's flagship workload is interactive (fraud-ring investigation:
//! an analyst asks for `SPG_k(s, t)` and drills in), and the batch-query
//! literature shows admission-time grouping is where batched sharing wins
//! are made or lost. This crate turns the `spg-core` library into a
//! long-running process that serves continuous traffic:
//!
//! * **[`protocol`]** — length-prefixed JSON frames over TCP (std-only,
//!   thread-per-connection; no async runtime). Responses carry the answer's
//!   full edge list and exact [`spg_core::QueryError`] strings, so clients
//!   can hold the server to bit-identity with [`spg_core::Eve::query`].
//! * **[`admission`]** — per-tenant token buckets and a bounded queue
//!   drained in micro-batches (by default whatever is queued, with no
//!   batch-forming window). Overload produces explicit `overloaded`
//!   responses, never an unbounded queue.
//! * **[`server`]** — the engine: each micro-batch runs through
//!   [`spg_core::BatchExecutor::run_cached_coalesced_with_deadlines`],
//!   which probes the shared [`spg_core::SpgCache`], collapses duplicate
//!   misses onto singleflight latches ([`spg_core::FlightGroup`], shared
//!   across batches), and computes the distinct misses in parallel, each
//!   on the adaptive per-query engine (the cohort-shared Phase 1 stays
//!   available through [`ServerConfig::shared_phase1`]).
//! * **[`client`]** — a small blocking client (tests, benchmarks,
//!   reference framing implementation).
//! * **[`json`]** — the vendored-deps-free JSON layer under all of it.
//!
//! The `spg-server` binary (`src/main.rs`) wraps [`server::SpgServer`] with
//! a CLI: pick a graph (generated or loaded), bind a port, print
//! `LISTENING <addr>` on stdout, serve until killed. The benchmark in
//! `perfbench/` (declared in `BENCHMARK.json`) drives that binary over
//! real sockets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use admission::{BatchQueue, RateLimiter};
pub use client::{Reply, RetryPolicy, SpgClient};
pub use protocol::{BadRequest, FrameError, Request};
pub use server::{ServeError, ServerConfig, ServerHandle, SpgServer, MAX_BATCHER_RESTARTS};
