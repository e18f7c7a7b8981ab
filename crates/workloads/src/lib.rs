//! # spg-workloads — datasets, query workloads and the fraud case study
//!
//! Everything the experiments need besides the algorithms themselves:
//!
//! * [`datasets`] — the 15 simulated datasets standing in for Table 2 of the
//!   paper, built deterministically at two scales;
//! * [`queries`] — random k-hop-reachable query generation (1000 queries per
//!   graph and `k` in the paper) and distance-bucketed queries for
//!   Figure 10(b);
//! * [`batch`] — batch-shaped query sets (mixed hop constraints, hub-skewed
//!   endpoints, hit/miss mixes, invalid-slot injection) for the parallel
//!   batch executor;
//! * [`fraud`] — the transaction-network fraud investigation of the §6.9 case
//!   study, run end-to-end through EVE;
//! * [`arrival`] — open- and closed-loop arrival schedules for the serving
//!   benchmark in `perfbench/`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod batch;
pub mod datasets;
pub mod fraud;
pub mod queries;

pub use arrival::{closed_loop, open_loop_poisson, open_loop_uniform};
pub use batch::{
    hit_miss_queries, inject_invalid, mixed_k_queries, repeat_heavy_queries,
    shared_endpoint_queries, skewed_queries,
};
pub use datasets::{
    dataset_by_code, headline_datasets, DatasetScale, DatasetSpec, GraphFamily, DATASETS,
};
pub use fraud::{investigate, investigate_network, FraudCaseConfig, FraudInvestigation};
pub use queries::{reachable_queries, QueryGenerator};
