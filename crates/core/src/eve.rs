//! The EVE pipeline: Essential Vertices based Examination (§2.3, Figure 4(b)).
//!
//! [`Eve`] wires the three phases together:
//!
//! 1. **Distance + propagation** — adaptive bidirectional distance search
//!    followed by forward/backward essential-vertex propagation with
//!    forward-looking pruning;
//! 2. **Upper-bound graph** — edge labeling into failing / undetermined /
//!    definite edges;
//! 3. **Verification** — DFS-oriented search with ordered adjacency for every
//!    undetermined edge.
//!
//! Every pruning technique the paper ablates in Figure 11 is an explicit
//! switch on [`EveConfig`], so the benchmark harness can reproduce the
//! ablation, and `EveConfig::naive()` reproduces the paper's "Naive EVE".

use std::time::Instant;

use spg_graph::{
    DiGraph, Direction, DistanceStrategy, EdgeSubgraph, FlatDistances, LaneBlock, MsBfsEngine,
    QueryBudget, VertexId,
};

use crate::compact::{apply_search_ordering_flat, verify_flat_budgeted};
use crate::failpoints::{self, sites};
use crate::query::{Query, QueryError};
use crate::spg::SimplePathGraph;
use crate::stats::{EveStats, MemoryEstimate, PhaseTimings};
use crate::workspace::QueryWorkspace;

/// Configuration switches for the EVE pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EveConfig {
    /// How the per-query distance index is computed (§3.3, Figure 6(a)).
    pub distance_strategy: DistanceStrategy,
    /// Enable the forward-looking pruning of Theorem 3.6 during propagation.
    ///
    /// The answer is identical either way. Propagation runs over the
    /// compacted `G^k_st` CSR, whose space restriction structurally subsumes
    /// most of the rule, so this flag only toggles the residual per-level
    /// check.
    pub forward_looking_pruning: bool,
    /// Enable the §5.3 search-ordering strategy before verification.
    pub search_ordering: bool,
}

impl Default for EveConfig {
    fn default() -> Self {
        EveConfig {
            distance_strategy: DistanceStrategy::AdaptiveBidirectional,
            forward_looking_pruning: true,
            search_ordering: true,
        }
    }
}

impl EveConfig {
    /// The full configuration used throughout the paper's evaluation
    /// (adaptive bidirectional search, forward-looking pruning, search
    /// ordering). Same as `Default`.
    pub fn full() -> Self {
        EveConfig::default()
    }

    /// "Naive EVE" of Figure 11: single-directional BFS, no forward-looking
    /// pruning, no search ordering. The answer is identical, only slower.
    pub fn naive() -> Self {
        EveConfig {
            distance_strategy: DistanceStrategy::Single,
            forward_looking_pruning: false,
            search_ordering: false,
        }
    }

    /// Human-readable name used by the ablation harness.
    pub fn describe(&self) -> String {
        format!(
            "{} search, pruning={}, ordering={}",
            self.distance_strategy.name(),
            if self.forward_looking_pruning {
                "on"
            } else {
                "off"
            },
            if self.search_ordering { "on" } else { "off" },
        )
    }
}

/// How Phase 1a obtains its raw distances.
enum DistInput<'a> {
    /// Run the per-query epoch-stamped BFS (the default path; also the
    /// fallback for singleton queries and the uncached [`Eve::query`]).
    Compute,
    /// Materialise one lane of a cohort's bidirectional MS-BFS run — the
    /// batch-shared Phase 1 of [`crate::BatchExecutor`]. The loader closure
    /// (built by [`Eve::query_shared`]) pushes the lane's forward + backward
    /// distances into the freshly `begin_load`ed [`FlatDistances`]; holding
    /// the engine behind `dyn Fn` keeps the whole pipeline monomorphic in
    /// the engine's lane-block width, so two widths don't double the
    /// compiled pipeline.
    Shared {
        load: &'a dyn Fn(&mut FlatDistances),
    },
    /// The workspace's `dist` and `space` already hold exactly this query's
    /// Phase-1a output (the previous cohort member was the same `(s, t, k)`
    /// triple; phases 1b–3 never mutate them) — skip Phase 1a entirely.
    Reuse,
}

/// Intermediate artefacts of a query, exposed for experiments that need more
/// than the final answer (e.g. Table 3 compares `SPGᵘ_k` against `SPG_k`).
#[derive(Debug, Clone)]
pub struct EveOutput {
    /// The exact answer.
    pub spg: SimplePathGraph,
    /// The edges of the upper-bound graph `SPGᵘ_k`.
    pub upper_bound: EdgeSubgraph,
}

/// The EVE algorithm bound to a graph.
///
/// The struct is cheap to construct (it only borrows the graph); all state is
/// per-query.
#[derive(Debug, Clone, Copy)]
pub struct Eve<'g> {
    graph: &'g DiGraph,
    config: EveConfig,
}

impl<'g> Eve<'g> {
    /// Binds EVE to `graph` with an explicit configuration.
    pub fn new(graph: &'g DiGraph, config: EveConfig) -> Self {
        Eve { graph, config }
    }

    /// Binds EVE to `graph` with the default (full) configuration.
    pub fn with_defaults(graph: &'g DiGraph) -> Self {
        Eve::new(graph, EveConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> EveConfig {
        self.config
    }

    /// The graph this instance answers queries on.
    pub fn graph(&self) -> &'g DiGraph {
        self.graph
    }

    /// Answers a query, returning the exact simple path graph.
    ///
    /// Allocates a fresh [`QueryWorkspace`] per call; batch callers should
    /// hold one workspace and use [`Eve::query_with`] instead.
    pub fn query(&self, query: Query) -> Result<SimplePathGraph, QueryError> {
        let mut ws = QueryWorkspace::new();
        self.query_with(&mut ws, query)
    }

    /// Answers a query on a reusable [`QueryWorkspace`]. After warm-up the
    /// pipeline performs (amortised) zero heap allocation besides the answer
    /// itself, which makes this the entry point for batch workloads.
    ///
    /// The effective hop constraint is clamped to `min(k, n − 1)`
    /// ([`Query::clamped_to`]): the answer is unchanged, and the recorded
    /// query/stats reflect the clamped value.
    pub fn query_with(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
    ) -> Result<SimplePathGraph, QueryError> {
        self.query_budgeted(ws, query, &QueryBudget::unlimited())
    }

    /// [`Eve::query_with`] under a cooperative [`QueryBudget`]: the pipeline
    /// polls the budget at phase-internal boundaries (BFS levels,
    /// propagation levels, labeling rows, verification DFS chunks) and
    /// returns [`QueryError::DeadlineExceeded`] / [`QueryError::BudgetExceeded`]
    /// when it trips. A cancelled query leaves the workspace fully reusable:
    /// the very next query on it produces bit-identical answers to a fresh
    /// workspace. Work-limited cancellation is deterministic — the budget is
    /// charged with the engine's own work counters, so the same query dies
    /// at the same boundary on every run.
    pub fn query_budgeted(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
        budget: &QueryBudget,
    ) -> Result<SimplePathGraph, QueryError> {
        query.validate(self.graph)?;
        self.run_flat_pipeline(ws, query.clamped_to(self.graph), DistInput::Compute, budget)
    }

    /// Answers an already-validated, already-clamped query whose Phase-1
    /// distances come from lane `lane` of a cohort's bidirectional MS-BFS
    /// run. Phases 1b–3 are byte-for-byte the same code as
    /// [`Eve::query_with`]; the answer is bit-identical because the
    /// search-space filter `Δ(s,v) + Δ(v,t) ≤ k` maps the (possibly deeper)
    /// shared raw distances onto exactly the per-query values.
    pub(crate) fn query_shared<B: LaneBlock>(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
        engine: &MsBfsEngine<B>,
        lane: usize,
        budget: &QueryBudget,
    ) -> Result<SimplePathGraph, QueryError> {
        // Only this thin loader is generic over the lane-block width; the
        // pipeline behind it is compiled once.
        let load = |dist: &mut FlatDistances| {
            engine.for_each_lane_distance_to_depth(Direction::Forward, lane, query.k, |v, d| {
                dist.push_forward(v, d)
            });
            engine.for_each_lane_distance_to_depth(Direction::Backward, lane, query.k, |v, d| {
                dist.push_backward(v, d)
            });
        };
        self.run_flat_pipeline(ws, query, DistInput::Shared { load: &load }, budget)
    }

    /// Answers a cohort member whose `(s, t, k)` triple equals the member
    /// answered immediately before on this workspace: `ws.dist` and
    /// `ws.space` still hold exactly its Phase-1a output (phases 1b–3 only
    /// read them), so the materialisation and space compaction are skipped
    /// wholesale. Phases 1b–3 still run, so the answer is assembled exactly
    /// as on the other paths.
    pub(crate) fn query_shared_reused(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
        budget: &QueryBudget,
    ) -> Result<SimplePathGraph, QueryError> {
        self.run_flat_pipeline(ws, query, DistInput::Reuse, budget)
    }

    /// Answers a query, additionally returning the upper-bound graph
    /// `SPGᵘ_k(s, t)` computed on the way (Table 3 / §6.6).
    pub fn query_detailed(&self, query: Query) -> Result<EveOutput, QueryError> {
        let mut ws = QueryWorkspace::new();
        self.query_detailed_with(&mut ws, query)
    }

    /// [`Eve::query_detailed`] on a reusable workspace: the compacted-search-
    /// space pipeline (phase 1 additionally emits the dense [`spg_graph::SearchSpace`];
    /// phases 1b–3 run entirely on flat local-id arrays).
    pub fn query_detailed_with(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
    ) -> Result<EveOutput, QueryError> {
        query.validate(self.graph)?;
        let spg = self.run_flat_pipeline(
            ws,
            query.clamped_to(self.graph),
            DistInput::Compute,
            &QueryBudget::unlimited(),
        )?;
        // The workspace still holds the phase-2 output; only the detailed
        // entry point pays for materialising it (`query_with` does not).
        let upper_bound = Self::upper_bound_subgraph(ws);
        Ok(EveOutput { spg, upper_bound })
    }

    /// Phases 1a–2 on the workspace: distance search, space compaction,
    /// both propagations and edge labeling. Shared by the query and
    /// upper-bound entry points; phase timings/memory are recorded when the
    /// caller provides accumulators.
    fn run_phases_1_2(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
        timings: &mut PhaseTimings,
        memory: &mut MemoryEstimate,
        input: DistInput<'_>,
        budget: &QueryBudget,
    ) -> Result<(), QueryError> {
        // Phase 1a: raw distances (computed per query, materialised from a
        // cohort's shared MS-BFS lane, or reused verbatim from the previous
        // identical member) + compacted search space.
        let start = Instant::now(); // spg-analyze: allow(hot-loop) — phase-boundary timer (Phase 1a entry)
        failpoints::check(sites::PHASE1)?;
        match input {
            DistInput::Compute => {
                ws.dist.compute_budgeted(
                    self.graph,
                    query.source,
                    query.target,
                    query.k,
                    self.config.distance_strategy,
                    budget,
                )?;
                ws.space
                    .rebuild_from_flat(self.graph, &ws.dist, &mut ws.scratch);
            }
            DistInput::Shared { load } => {
                ws.dist.begin_load(
                    self.graph.vertex_count(),
                    query.source,
                    query.target,
                    query.k,
                );
                load(&mut ws.dist);
                ws.space
                    .rebuild_from_flat(self.graph, &ws.dist, &mut ws.scratch);
                // The engine's work was charged to the cohort-level budget;
                // here only a deadline poll after the materialisation.
                budget.check()?;
            }
            DistInput::Reuse => {}
        }
        timings.distance = start.elapsed();
        memory.distance_bytes = ws.dist.memory_bytes() + ws.space.memory_bytes();

        // Phase 1b: essential-vertex propagation on flat per-level rows.
        let start = Instant::now(); // spg-analyze: allow(hot-loop) — phase-boundary timer (Phase 1b entry)
        failpoints::check(sites::PHASE1B)?;
        ws.fwd.run_budgeted(
            &ws.space,
            Direction::Forward,
            self.config.forward_looking_pruning,
            budget,
        )?;
        ws.bwd.run_budgeted(
            &ws.space,
            Direction::Backward,
            self.config.forward_looking_pruning,
            budget,
        )?;
        timings.propagation = start.elapsed();
        memory.propagation_bytes = ws.fwd.memory_bytes() + ws.bwd.memory_bytes();

        // Phase 2: upper-bound graph via edge labeling.
        let start = Instant::now(); // spg-analyze: allow(hot-loop) — phase-boundary timer (Phase 2 entry)
        failpoints::check(sites::PHASE2)?;
        ws.ub.build_budgeted(&ws.space, &ws.fwd, &ws.bwd, budget)?;
        timings.labeling = start.elapsed();
        memory.upper_bound_bytes = ws.ub.memory_bytes();
        Ok(())
    }

    /// Phases 1a–3 on the workspace, assembling the answer (but not the
    /// upper-bound subgraph). The query must already be validated.
    fn run_flat_pipeline(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
        input: DistInput<'_>,
        budget: &QueryBudget,
    ) -> Result<SimplePathGraph, QueryError> {
        let mut timings = PhaseTimings::default();
        let mut memory = MemoryEstimate::default();
        self.run_phases_1_2(ws, query, &mut timings, &mut memory, input, budget)?;

        // Phase 3: verification of undetermined edges.
        let start = Instant::now(); // spg-analyze: allow(hot-loop) — phase-boundary timer (Phase 3 entry)
        failpoints::check(sites::VERIFY)?;
        if self.config.search_ordering && query.k >= 5 {
            apply_search_ordering_flat(&mut ws.ub, &mut ws.order);
        }
        let verification = verify_flat_budgeted(&ws.ub, &mut ws.verify, budget)?;
        let mut answer: Vec<(VertexId, VertexId)> = Vec::with_capacity(ws.ub.edge_count());
        for (eid, &(u, v)) in ws.ub.edges().iter().enumerate() {
            if ws.verify.result()[eid] {
                answer.push((ws.space.global(u), ws.space.global(v)));
            }
        }
        timings.verification = start.elapsed();
        memory.record_verification(answer.len(), query.k);
        memory.workspace_arena_bytes = ws.retained_bytes();

        let mut search_space = ws.dist.stats();
        search_space.space_vertices = ws.space.vertex_count();
        let stats = EveStats {
            timings,
            memory,
            search_space,
            forward_propagation: ws.fwd.stats(),
            backward_propagation: ws.bwd.stats(),
            labeling: ws.ub.stats(),
            verification,
            upper_bound_edges: ws.ub.edge_count(),
        };
        // The space vertex set doubles as the scoped-invalidation witness:
        // any edge whose removal could perturb this answer lives inside the
        // space, so the cache can skip purging on unrelated removals.
        Ok(
            SimplePathGraph::from_parts(query, EdgeSubgraph::from_edges(answer), stats)
                .with_witness(ws.space.vertices()),
        )
    }

    /// Materialises the `SPGᵘ_k` edges currently held by the workspace.
    fn upper_bound_subgraph(ws: &QueryWorkspace) -> EdgeSubgraph {
        EdgeSubgraph::from_edges(
            ws.ub
                .edges()
                .iter()
                .map(|&(u, v)| (ws.space.global(u), ws.space.global(v))),
        )
    }

    /// Computes only the upper-bound graph `SPGᵘ_k(s, t)` (phases 1 and 2),
    /// skipping verification. Useful as a fast approximate answer: by
    /// Theorem 4.8 it is exact whenever `k ≤ 4`, and Table 3 shows it carries
    /// well under 0.05% redundant edges on most graphs.
    pub fn upper_bound(&self, query: Query) -> Result<EdgeSubgraph, QueryError> {
        let mut ws = QueryWorkspace::new();
        self.upper_bound_with(&mut ws, query)
    }

    /// [`Eve::upper_bound`] on a reusable workspace.
    pub fn upper_bound_with(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
    ) -> Result<EdgeSubgraph, QueryError> {
        query.validate(self.graph)?;
        self.run_phases_1_2(
            ws,
            query.clamped_to(self.graph),
            &mut PhaseTimings::default(),
            &mut MemoryEstimate::default(),
            DistInput::Compute,
            &QueryBudget::unlimited(),
        )?;
        Ok(Self::upper_bound_subgraph(ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::tests::brute_force_spg;
    use crate::paper_example::{self, names::*};

    #[test]
    fn figure1c_answer_for_k4() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let spg = eve.query(Query::new(S, T, 4)).unwrap();
        let mut expected = paper_example::figure1c_spg4_edges();
        expected.sort_unstable();
        assert_eq!(spg.edges(), expected.as_slice());
        assert_eq!(spg.vertex_count(), 6);
        // For k ≤ 4 the upper bound is already exact (Theorem 4.8).
        assert_eq!(spg.stats().upper_bound_edges, spg.edge_count());
        assert_eq!(spg.stats().verification.searches, 0);
    }

    #[test]
    fn k7_answer_excludes_ba_and_bj() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let out = eve.query_detailed(Query::new(S, T, 7)).unwrap();
        assert_eq!(out.spg.edge_count(), 11);
        assert!(!out.spg.contains_edge(B, A));
        assert!(!out.spg.contains_edge(B, J));
        assert!(out.spg.contains_edge(I, J));
        // The upper bound keeps (B, A) — the redundant edge of Lemma 3.3.
        assert!(out.upper_bound.contains(B, A));
        assert_eq!(out.upper_bound.edge_count(), 13 - 1);
        let r = out
            .spg
            .stats()
            .redundant_ratio(out.spg.edge_count())
            .unwrap();
        assert!(r > 0.0);
    }

    /// Every configuration yields the brute-force answer on Figure 1 at
    /// every k.
    #[test]
    fn all_configurations_agree_on_the_answer() {
        let g = paper_example::figure1_graph();
        let configs = [
            EveConfig::full(),
            EveConfig::naive(),
            EveConfig {
                distance_strategy: spg_graph::DistanceStrategy::Bidirectional,
                forward_looking_pruning: true,
                search_ordering: false,
            },
            EveConfig {
                distance_strategy: spg_graph::DistanceStrategy::Single,
                forward_looking_pruning: true,
                search_ordering: true,
            },
        ];
        for k in 1..=8u32 {
            let expected = brute_force_spg(&g, S, T, k);
            for cfg in &configs {
                let got = Eve::new(&g, *cfg).query(Query::new(S, T, k)).unwrap();
                assert_eq!(
                    got.edges(),
                    expected.as_slice(),
                    "k={k}, config {}",
                    cfg.describe()
                );
            }
        }
    }

    /// The fresh and the workspace entry points, plain and detailed, give
    /// the brute-force answer on Figure 1 at every k, the workspace ones on
    /// one reused workspace.
    #[test]
    fn entry_points_agree_on_figure1() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let mut ws = QueryWorkspace::new();
        for k in 1..=8u32 {
            let q = Query::new(S, T, k);
            let expected = brute_force_spg(&g, S, T, k);
            let answers = [
                eve.query(q).unwrap(),
                eve.query_with(&mut ws, q).unwrap(),
                eve.query_detailed(q).unwrap().spg,
                eve.query_detailed_with(&mut ws, q).unwrap().spg,
            ];
            for (i, spg) in answers.iter().enumerate() {
                assert_eq!(spg.edges(), expected.as_slice(), "k={k} entry point {i}");
            }
        }
    }

    #[test]
    fn infeasible_and_invalid_queries() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        // t cannot be reached from j-side vertex within 1 hop.
        let spg = eve.query(Query::new(J, T, 1)).unwrap();
        assert!(spg.is_empty());
        assert!(eve.query(Query::new(S, S, 3)).is_err());
        assert!(eve.query(Query::new(S, 99, 3)).is_err());
        assert!(eve.query(Query::new(S, T, 0)).is_err());
    }

    #[test]
    fn k1_and_k2_answers() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        // k = 1: there is no direct edge s -> t.
        assert!(eve.query(Query::new(S, T, 1)).unwrap().is_empty());
        // k = 2: only s -> c -> t.
        let spg = eve.query(Query::new(S, T, 2)).unwrap();
        assert_eq!(spg.edges(), &[(S, C), (C, T)]);
    }

    #[test]
    fn upper_bound_shortcut_matches_detailed_output() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        for k in 2..=8u32 {
            let ub = eve.upper_bound(Query::new(S, T, k)).unwrap();
            let detailed = eve.query_detailed(Query::new(S, T, k)).unwrap();
            assert_eq!(ub, detailed.upper_bound, "k = {k}");
            // Upper bound must contain the exact answer.
            assert!(detailed.spg.as_subgraph().is_subgraph_of(&ub));
        }
    }

    /// On one warm workspace, the full and naive configurations answer
    /// random graphs exactly as exhaustive DFS does, and the upper bound
    /// contains the answer (and equals it for k ≤ 4, Theorem 4.8).
    #[test]
    fn pipeline_matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(777);
        let mut ws = crate::QueryWorkspace::new();
        for case in 0..30 {
            let n = rng.gen_range(6..20);
            let m = rng.gen_range(n..4 * n);
            let g = spg_graph::generators::gnm_random(n, m, 9000 + case);
            let s = 0u32;
            let t = (n - 1) as u32;
            let k = rng.gen_range(2..9);
            let q = Query::new(s, t, k);
            let expected = brute_force_spg(&g, s, t, k);
            for cfg in [EveConfig::full(), EveConfig::naive()] {
                let eve = Eve::new(&g, cfg);
                let out = eve.query_detailed_with(&mut ws, q).unwrap();
                assert_eq!(
                    out.spg.edges(),
                    expected.as_slice(),
                    "case {case} k={k} cfg {}",
                    cfg.describe()
                );
                assert!(out.spg.as_subgraph().is_subgraph_of(&out.upper_bound));
                assert_eq!(
                    out.spg.stats().upper_bound_edges,
                    out.upper_bound.edge_count()
                );
                if k <= 4 {
                    assert_eq!(out.upper_bound.edge_count(), out.spg.edge_count());
                }
            }
        }
    }

    /// Regression test for the unbounded-`k` allocation bug: a query with
    /// `k = u32::MAX` used to drive `k`-proportional per-level allocations
    /// and `O(k)` per-edge labeling loops. With the entry-point clamp it must
    /// answer instantly and produce exactly the `k = n − 1` SPG.
    #[test]
    fn huge_k_is_clamped_to_simple_path_bound() {
        let g = spg_graph::generators::gnm_random(10, 40, 4242);
        let eve = Eve::with_defaults(&g);
        let start = Instant::now();
        let huge = eve.query(Query::new(0, 9, u32::MAX)).unwrap();
        let clamped = eve.query(Query::new(0, 9, 9)).unwrap();
        assert_eq!(huge.edges(), clamped.edges());
        assert_eq!(huge.query().k, 9, "recorded query reflects the clamp");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "huge-k queries must terminate promptly"
        );

        // The detailed and upper-bound entry points clamp identically.
        let mut ws = QueryWorkspace::new();
        let detailed = eve
            .query_detailed_with(&mut ws, Query::new(0, 9, u32::MAX))
            .unwrap();
        assert_eq!(detailed.spg.edges(), clamped.edges());
        let ub_huge = eve.upper_bound(Query::new(0, 9, u32::MAX)).unwrap();
        let ub_clamped = eve.upper_bound(Query::new(0, 9, 9)).unwrap();
        assert_eq!(ub_huge, ub_clamped);

        // The paper's example graph agrees between huge and exact clamp too.
        let fig = paper_example::figure1_graph();
        let fig_eve = Eve::with_defaults(&fig);
        assert_eq!(
            fig_eve.query(Query::new(S, T, u32::MAX)).unwrap().edges(),
            fig_eve.query(Query::new(S, T, 7)).unwrap().edges()
        );
    }

    #[test]
    fn stats_are_populated() {
        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let spg = eve.query(Query::new(S, T, 7)).unwrap();
        let stats = spg.stats();
        assert!(stats.memory.peak_bytes() > 0);
        assert!(stats.search_space.space_vertices > 0);
        assert!(stats.labeling.edges_examined > 0);
        assert!(stats.forward_propagation.edge_scans > 0);
        assert!(stats.upper_bound_edges >= spg.edge_count());
        assert_eq!(eve.config(), EveConfig::full());
        assert_eq!(eve.graph().edge_count(), 13);
        assert!(!EveConfig::naive().describe().is_empty());
    }
}
