//! Graph traversal: hop-bounded BFS, bidirectional distance computation and
//! k-hop reachability.
//!
//! The EVE algorithm needs, per query `⟨s, t, k⟩`, the shortest distances
//! `Δ(s, v)` (never routing through `t`) and `Δ(v, t)` (never routing through
//! `s`) for every vertex in the *search space* `{v : Δ(s,v) + Δ(v,t) ≤ k}`.
//! Section 3.3 / Figure 6(a) of the paper compares three strategies for
//! obtaining them — single-directional BFS, balanced bidirectional BFS, and
//! adaptive bidirectional BFS — which are ablated in Figure 11.
//! [`FlatDistances`] runs all three behind [`DistanceStrategy`]; they yield
//! identical distances and differ only in how many vertices/edges they touch
//! ([`SearchSpaceStats`]). [`SearchSpace`] compacts the result into the
//! dense `G^k_st` the EVE phases run on, and [`MsBfsEngine`] computes many
//! queries' distances in one bit-parallel traversal.

mod bfs;
mod bidirectional;
mod flat_distance;
mod msbfs;
mod reachability;
mod search_space;

pub use bfs::{bfs_distances_from, bfs_distances_to, BfsOptions};
pub use bidirectional::{DistanceStrategy, SearchSpaceStats};
pub use flat_distance::FlatDistances;
pub use msbfs::{
    FrontierMode, LaneBlock, Lanes256, Lanes64, MsBfsEngine, MsBfsLane, MsBfsStats, MAX_LANES,
};
pub use reachability::{k_hop_reachable, shortest_distance};
pub use search_space::{SearchSpace, SpaceScratch, NO_LOCAL};
