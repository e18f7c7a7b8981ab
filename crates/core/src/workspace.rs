//! Reusable per-query workspace for the EVE hot path.
//!
//! Answering a query needs a handful of data structures whose size is
//! proportional to the (small) search space, not the graph: the compacted
//! [`SearchSpace`], two propagation tables, the flat upper-bound graph and
//! the verification scratch. Allocating them afresh per query dominates the
//! cost of cheap queries — exactly the regime of batch workloads that issue
//! thousands of queries against one graph. [`QueryWorkspace`] owns all of
//! them as reusable buffers: pass the same workspace to
//! [`crate::Eve::query_with`] repeatedly and, after warm-up, a query performs
//! (amortised) zero heap allocation outside of building its answer.
//!
//! A workspace is independent of any particular graph or query — it is safe
//! (and supported) to reuse one across different graphs and hop constraints;
//! every buffer is re-sized and re-stamped per query, and the reuse property
//! test in `tests/workspace_reuse.rs` checks that answers are bit-identical
//! to fresh single-shot queries.

use spg_graph::{FlatDistances, Lanes256, Lanes64, MsBfsEngine, SearchSpace, SpaceScratch};

use crate::compact::{FlatPropagation, FlatUpperBound, OrderScratch, VerifyScratch};

/// Reusable buffers for the whole EVE pipeline (see the module docs).
///
/// ```
/// use spg_core::{Eve, Query, QueryWorkspace};
/// use spg_core::paper_example::{figure1_graph, names};
///
/// let g = figure1_graph();
/// let eve = Eve::with_defaults(&g);
/// let mut ws = QueryWorkspace::new();
/// for k in 2..=8 {
///     let spg = eve.query_with(&mut ws, Query::new(names::S, names::T, k)).unwrap();
///     assert_eq!(spg.edges(), eve.query(Query::new(names::S, names::T, k)).unwrap().edges());
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryWorkspace {
    /// Epoch-stamped flat distance engine (phase 1a).
    pub(crate) dist: FlatDistances,
    /// Bit-parallel bidirectional MS-BFS engines for cohort-shared phase 1,
    /// one per lane-block width (each empty — zero retained bytes — until
    /// the first shared batch needing that width). `run_cohort` runs every
    /// cohort that fits on this 64-lane engine, so small cohorts never pay
    /// wide-word overhead and an unused width costs nothing.
    pub(crate) msbfs64: MsBfsEngine<Lanes64>,
    /// 256-lane engine for cohorts of 65–256 lanes (see `msbfs64`).
    pub(crate) msbfs256: MsBfsEngine<Lanes256>,
    /// Epoch-stamped global→local vertex translation (graph-sized).
    pub(crate) scratch: SpaceScratch,
    /// Compacted search space of the current query.
    pub(crate) space: SearchSpace,
    /// Forward essential-vertex propagation table.
    pub(crate) fwd: FlatPropagation,
    /// Backward essential-vertex propagation table.
    pub(crate) bwd: FlatPropagation,
    /// Flat upper-bound graph (edge labeling output).
    pub(crate) ub: FlatUpperBound,
    /// Search-ordering distance buffers.
    pub(crate) order: OrderScratch,
    /// Verification stacks and result bitmap.
    pub(crate) verify: VerifyScratch,
}

impl QueryWorkspace {
    /// Creates an empty workspace. Buffers grow on first use and are then
    /// retained across queries.
    pub fn new() -> Self {
        QueryWorkspace::default()
    }

    /// Total bytes of buffer capacity currently retained by the workspace —
    /// the steady-state footprint a long-lived workspace pays to make
    /// queries allocation-free. Reported per query as
    /// [`crate::MemoryEstimate::workspace_arena_bytes`].
    pub fn retained_bytes(&self) -> usize {
        self.dist.retained_bytes()
            + self.msbfs64.retained_bytes()
            + self.msbfs256.retained_bytes()
            + self.scratch.memory_bytes()
            + self.space.retained_bytes()
            + self.fwd.retained_bytes()
            + self.bwd.retained_bytes()
            + self.ub.retained_bytes()
            + self.order.retained_bytes()
            + self.verify.retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{self, names::*};
    use crate::{Eve, Query};

    #[test]
    fn workspace_grows_then_retains_capacity() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let mut ws = QueryWorkspace::new();
        assert_eq!(ws.retained_bytes(), 0);
        let first = eve.query_with(&mut ws, Query::new(S, T, 7)).unwrap();
        let after_first = ws.retained_bytes();
        assert!(after_first > 0);
        // A smaller query must not shrink the retained capacity.
        let _ = eve.query_with(&mut ws, Query::new(S, T, 2)).unwrap();
        assert!(ws.retained_bytes() >= after_first);
        // Re-running the first query in the warmed workspace reproduces the
        // answer exactly.
        let again = eve.query_with(&mut ws, Query::new(S, T, 7)).unwrap();
        assert_eq!(first.edges(), again.edges());
    }
}
