//! Epoch-stamped flat distance search: Phase 1a of every EVE query.
//!
//! [`FlatDistances`] computes the t-avoiding forward distances `Δ(s, v)`
//! and s-avoiding backward distances `Δ(v, t)` under any
//! [`DistanceStrategy`], and stores them in two flat graph-sized arrays
//! whose entries are validated by an epoch stamp. Reusing one instance
//! across queries touches only the vertices each query actually discovers:
//! bumping the epoch invalidates every stale entry in O(1), so there is no
//! per-query clearing and, after warm-up, no per-query allocation.
//!
//! The bidirectional strategies' "finish inside the other side's explored
//! region" phase reads the other side's stamps directly. No snapshot of the
//! other side is needed, because a side's restricted expansion only
//! consults the *other* side's entries, which that side's own expansion
//! never mutates mid-run.
//!
//! Under [`DistanceStrategy::AdaptiveBidirectional`] the finish is also
//! confined to the search space: a frontier vertex is expanded only once the
//! other side holds it within the rest of the budget (see `Gate::InSpace`).
//! The search-space accessors are unchanged by this; raw distances of
//! vertices outside the space may be larger than the true ones, or absent.

use crate::budget::{BudgetExhausted, QueryBudget};
use crate::csr::{DiGraph, Direction, VertexId};
use crate::traversal::{DistanceStrategy, SearchSpaceStats};
use crate::INF_DIST;

/// Which vertices one BFS level may touch (see [`FlatDistances::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// A free level: every frontier vertex expands into every unseen
    /// neighbour.
    Open,
    /// Discover only vertices the other side already holds: the balanced
    /// schedule's finish, which each MS-BFS lane reproduces.
    Inside,
    /// As `Inside`, and expand a frontier vertex at depth `d` only if the
    /// other side holds it within `k − d`, i.e. only vertices already proven
    /// in `G^k_st`: the adaptive schedule's finish. Exact, because every
    /// vertex on a shortest endpoint-avoiding path to a search-space vertex
    /// is itself in the space, and once the free phases have met (or a side
    /// has run out), the other side already holds every in-space vertex this
    /// side can still expand, at its true distance.
    InSpace,
}

/// One direction of epoch-stamped BFS state.
#[derive(Debug, Clone, Default)]
struct StampedSide {
    /// `(stamp, dist)` per global vertex id; valid iff stamp == current epoch.
    slots: Vec<(u32, u32)>,
    /// Vertices discovered this epoch, in discovery order.
    seen: Vec<VertexId>,
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    depth: u32,
    edge_scans: usize,
}

impl StampedSide {
    fn begin(&mut self, n: usize, source: VertexId, epoch: u32) {
        self.begin_empty(n);
        self.slots[source as usize] = (epoch, 0);
        self.seen.push(source);
        self.frontier.push(source);
    }

    /// Clears the per-query state without seeding a source — the externally-
    /// loaded mode ([`FlatDistances::begin_load`]) provides every entry,
    /// including the 0-distance source.
    fn begin_empty(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, (0, 0));
        }
        self.seen.clear();
        self.frontier.clear();
        self.depth = 0;
        self.edge_scans = 0;
    }

    #[inline]
    fn dist(&self, v: VertexId, epoch: u32) -> u32 {
        let (stamp, d) = self.slots[v as usize];
        if stamp == epoch {
            d
        } else {
            INF_DIST
        }
    }

    #[inline]
    fn contains(&self, v: VertexId, epoch: u32) -> bool {
        self.slots[v as usize].0 == epoch
    }
}

/// Reusable per-query distance search (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct FlatDistances {
    epoch: u32,
    fwd: StampedSide,
    bwd: StampedSide,
    s: VertexId,
    t: VertexId,
    k: u32,
}

impl FlatDistances {
    /// Creates an empty instance; buffers grow on first use.
    pub fn new() -> Self {
        FlatDistances::default()
    }

    /// Runs the hop-bounded distance search for query `⟨s, t, k⟩` with the
    /// chosen strategy, reusing all buffers.
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn compute(
        &mut self,
        g: &DiGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
        strategy: DistanceStrategy,
    ) {
        self.compute_budgeted(g, s, t, k, strategy, &QueryBudget::unlimited())
            .expect("an unlimited budget never trips"); // spg-analyze: allow(no-panic) — unlimited budgets cannot trip
    }

    /// [`FlatDistances::compute`] under a cooperative [`QueryBudget`]:
    /// the budget is charged one unit per edge scanned at every BFS **level
    /// boundary**, so an exhausted budget stops the search within one level
    /// of the ceiling. On `Err` the instance holds no valid entries for the
    /// query (the epoch is spent); the next `compute`/`begin_load` starts
    /// clean — an aborted run can never leak into a later one.
    ///
    /// # Panics
    /// Panics if `s == t` (mirrors [`FlatDistances::compute`]).
    pub fn compute_budgeted(
        &mut self,
        g: &DiGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
        strategy: DistanceStrategy,
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        assert!(
            s != t,
            "queries require distinct source and target vertices"
        );
        let n = g.vertex_count();
        self.s = s;
        self.t = t;
        self.k = k;
        self.next_epoch();
        self.fwd.begin(n, s, self.epoch);
        self.bwd.begin(n, t, self.epoch);

        match strategy {
            DistanceStrategy::Single => {
                self.run_side(g, Direction::Forward, k, Gate::Open, budget)?;
                self.run_side(g, Direction::Backward, k, Gate::Open, budget)?;
            }
            DistanceStrategy::Bidirectional => {
                let kf = k.div_ceil(2);
                let kb = k / 2;
                self.run_side(g, Direction::Forward, kf, Gate::Open, budget)?;
                self.run_side(g, Direction::Backward, kb, Gate::Open, budget)?;
                self.run_side(g, Direction::Forward, k - kf, Gate::Inside, budget)?;
                self.run_side(g, Direction::Backward, k - kb, Gate::Inside, budget)?;
            }
            DistanceStrategy::AdaptiveBidirectional => {
                while self.fwd.depth + self.bwd.depth < k
                    && !(self.fwd.frontier.is_empty() && self.bwd.frontier.is_empty())
                {
                    let advance_forward = if self.fwd.frontier.is_empty() {
                        false
                    } else if self.bwd.frontier.is_empty() {
                        true
                    } else {
                        self.fwd.frontier.len() <= self.bwd.frontier.len()
                    };
                    let dir = if advance_forward {
                        Direction::Forward
                    } else {
                        Direction::Backward
                    };
                    let before = self.scans(dir);
                    self.step(g, dir, Gate::Open);
                    budget.charge((self.scans(dir) - before) as u64)?;
                }
                let fd = self.fwd.depth;
                let bd = self.bwd.depth;
                self.run_side(g, Direction::Forward, k - fd, Gate::InSpace, budget)?;
                self.run_side(g, Direction::Backward, k - bd, Gate::InSpace, budget)?;
            }
        }
        Ok(())
    }

    #[inline]
    fn scans(&self, dir: Direction) -> usize {
        match dir {
            Direction::Forward => self.fwd.edge_scans,
            Direction::Backward => self.bwd.edge_scans,
        }
    }

    /// Bumps the validity epoch, handling the (extremely rare) wrap by
    /// resetting every stamp explicitly.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.fwd.slots.fill((0, 0));
            self.bwd.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Starts loading externally computed raw distances for query
    /// `⟨s, t, k⟩` on a graph with `n` vertices, instead of running the BFS
    /// itself. This is how the batch-shared MS-BFS Phase-1 engine
    /// materialises a cohort lane into a per-query workspace: after this
    /// call, push every vertex the forward lane discovered via
    /// [`FlatDistances::push_forward`] (including `s` at distance 0) and
    /// every vertex the backward lane discovered via
    /// [`FlatDistances::push_backward`] (including `t` at distance 0), each
    /// vertex at most once per side.
    ///
    /// The raw entries may extend beyond `k` (a shared lane runs to the
    /// *maximum* hop budget of the queries it serves); the search-space
    /// accessors ([`FlatDistances::dist_from_s`] and friends) filter with
    /// `Δ(s,v) + Δ(v,t) ≤ k` exactly as in the computed mode, so downstream
    /// phases see distances identical to a per-query
    /// [`FlatDistances::compute`] run. Loaded queries report zero traversal
    /// scans in [`FlatDistances::stats`]; the shared engine's scan counts
    /// are accounted at the cohort level.
    ///
    /// # Panics
    /// Panics if `s == t` (mirrors [`FlatDistances::compute`]).
    pub fn begin_load(&mut self, n: usize, s: VertexId, t: VertexId, k: u32) {
        assert!(
            s != t,
            "queries require distinct source and target vertices"
        );
        self.s = s;
        self.t = t;
        self.k = k;
        self.next_epoch();
        self.fwd.begin_empty(n);
        self.bwd.begin_empty(n);
    }

    /// Records a forward raw distance `Δ(s, v) = d` in loaded mode.
    #[inline]
    pub fn push_forward(&mut self, v: VertexId, d: u32) {
        self.fwd.slots[v as usize] = (self.epoch, d);
        self.fwd.seen.push(v);
    }

    /// Records a backward raw distance `Δ(v, t) = d` in loaded mode.
    #[inline]
    pub fn push_backward(&mut self, v: VertexId, d: u32) {
        self.bwd.slots[v as usize] = (self.epoch, d);
        self.bwd.seen.push(v);
    }

    /// Expands `steps` levels of one side (or until its frontier empties),
    /// charging the budget each level with the edges that level scanned.
    fn run_side(
        &mut self,
        g: &DiGraph,
        dir: Direction,
        steps: u32,
        gate: Gate,
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        for _ in 0..steps {
            let before = self.scans(dir);
            let advanced = self.step(g, dir, gate);
            budget.charge((self.scans(dir) - before) as u64)?;
            if !advanced {
                break;
            }
        }
        Ok(())
    }

    /// Expands one BFS level of one side under `gate` (the "finish inside
    /// the other side's region" phases of bidirectional search restrict it).
    /// Returns `false` once the frontier is empty.
    fn step(&mut self, g: &DiGraph, dir: Direction, gate: Gate) -> bool {
        let epoch = self.epoch;
        let k = self.k;
        let (side, other, source, forbidden) = match dir {
            Direction::Forward => (&mut self.fwd, &self.bwd, self.s, self.t),
            Direction::Backward => (&mut self.bwd, &self.fwd, self.t, self.s),
        };
        if side.frontier.is_empty() {
            return false;
        }
        side.next.clear();
        for i in 0..side.frontier.len() {
            let u = side.frontier[i];
            if u == forbidden && u != source {
                continue;
            }
            if gate == Gate::InSpace {
                let rest = other.dist(u, epoch);
                if rest == INF_DIST || side.depth + rest > k {
                    continue;
                }
            }
            for &v in g.neighbors(u, dir) {
                side.edge_scans += 1;
                if side.slots[v as usize].0 == epoch {
                    continue;
                }
                if gate != Gate::Open && !other.contains(v, epoch) {
                    continue;
                }
                side.slots[v as usize] = (epoch, side.depth + 1);
                side.seen.push(v);
                side.next.push(v);
            }
        }
        side.depth += 1;
        std::mem::swap(&mut side.frontier, &mut side.next);
        !side.frontier.is_empty()
    }

    /// Source vertex of the current query.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.s
    }

    /// Target vertex of the current query.
    #[inline]
    pub fn target(&self) -> VertexId {
        self.t
    }

    /// Hop constraint of the current query.
    #[inline]
    pub fn hop_constraint(&self) -> u32 {
        self.k
    }

    /// Raw forward distance `Δ(s, v)` (before search-space filtering), or
    /// [`INF_DIST`] if the forward search never reached `v`. Under
    /// [`DistanceStrategy::AdaptiveBidirectional`] it is exact inside the
    /// search space; outside it, it is an upper bound or [`INF_DIST`].
    #[inline]
    pub fn raw_dist_from_s(&self, v: VertexId) -> u32 {
        self.fwd.dist(v, self.epoch)
    }

    /// Raw backward distance `Δ(v, t)`, or [`INF_DIST`] if unreached. Under
    /// [`DistanceStrategy::AdaptiveBidirectional`] it is exact inside the
    /// search space; outside it, it is an upper bound or [`INF_DIST`].
    #[inline]
    pub fn raw_dist_to_t(&self, v: VertexId) -> u32 {
        self.bwd.dist(v, self.epoch)
    }

    /// `Δ(s, v)` restricted to the search space: [`INF_DIST`] unless
    /// `Δ(s,v) + Δ(v,t) ≤ k`.
    #[inline]
    pub fn dist_from_s(&self, v: VertexId) -> u32 {
        let df = self.fwd.dist(v, self.epoch);
        let db = self.bwd.dist(v, self.epoch);
        if df != INF_DIST && db != INF_DIST && df + db <= self.k {
            df
        } else {
            INF_DIST
        }
    }

    /// `Δ(v, t)` restricted to the search space: [`INF_DIST`] unless
    /// `Δ(s,v) + Δ(v,t) ≤ k`.
    #[inline]
    pub fn dist_to_t(&self, v: VertexId) -> u32 {
        let df = self.fwd.dist(v, self.epoch);
        let db = self.bwd.dist(v, self.epoch);
        if df != INF_DIST && db != INF_DIST && df + db <= self.k {
            db
        } else {
            INF_DIST
        }
    }

    /// `true` if `v` belongs to the search space `Δ(s,v) + Δ(v,t) ≤ k`.
    #[inline]
    pub fn in_search_space(&self, v: VertexId) -> bool {
        self.dist_from_s(v) != INF_DIST
    }

    /// `true` if the query is feasible (`t` reachable from `s` within `k`).
    pub fn is_feasible(&self) -> bool {
        self.in_search_space(self.t)
    }

    /// Vertices the forward search discovered (a superset of the search
    /// space; filter with [`FlatDistances::in_search_space`]). Under
    /// [`DistanceStrategy::AdaptiveBidirectional`] it holds every vertex of
    /// the space, but which vertices outside the space it holds depends on
    /// the schedule, not only on the graph.
    #[inline]
    pub fn forward_seen(&self) -> &[VertexId] {
        &self.fwd.seen
    }

    /// Work counters in [`SearchSpaceStats`] form; `space_vertices` is
    /// filled by the caller once the space is materialised.
    pub fn stats(&self) -> SearchSpaceStats {
        SearchSpaceStats {
            forward_edge_scans: self.fwd.edge_scans,
            backward_edge_scans: self.bwd.edge_scans,
            bottom_up_edge_scans: 0,
            space_vertices: 0,
        }
    }

    /// Live bytes attributable to the current query: the discovered vertex
    /// lists and their distance entries (the stamped arrays themselves are
    /// retained capacity, reported by [`FlatDistances::retained_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        (self.fwd.seen.len() + self.bwd.seen.len())
            * (std::mem::size_of::<VertexId>() + std::mem::size_of::<(u32, u32)>())
    }

    /// Bytes of capacity retained for reuse across queries.
    pub fn retained_bytes(&self) -> usize {
        let side = |s: &StampedSide| {
            s.slots.capacity() * std::mem::size_of::<(u32, u32)>()
                + (s.seen.capacity() + s.frontier.capacity() + s.next.capacity())
                    * std::mem::size_of::<VertexId>()
        };
        side(&self.fwd) + side(&self.bwd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs::search_space_oracle;
    use crate::traversal::{SearchSpace, SpaceScratch};

    /// Figure 1(a) graph; naming s=0, a=1, c=2, t=3, h=4, b=5, i=6, j=7.
    fn figure1() -> DiGraph {
        DiGraph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 4),
                (1, 6),
                (2, 3),
                (2, 5),
                (4, 5),
                (5, 3),
                (5, 1),
                (5, 7),
                (6, 7),
                (7, 4),
            ],
        )
    }

    /// Every strategy against the BFS oracle on Figure 1 at every k:
    /// feasibility, both distances and search-space membership of every
    /// vertex.
    #[test]
    fn agrees_with_bfs_oracle_on_all_strategies() {
        let g = figure1();
        let mut flat = FlatDistances::new();
        for k in 1..=8u32 {
            let oracle = search_space_oracle(&g, 0, 3, k);
            for strategy in DistanceStrategy::ALL {
                flat.compute(&g, 0, 3, k, strategy);
                assert_eq!(flat.is_feasible(), oracle[3].0 != INF_DIST, "k={k}");
                for v in g.vertices() {
                    let (df, db) = oracle[v as usize];
                    let name = strategy.name();
                    assert_eq!(flat.dist_from_s(v), df, "{name} k={k} v={v}");
                    assert_eq!(flat.dist_to_t(v), db, "{name} k={k} v={v}");
                    assert_eq!(
                        flat.in_search_space(v),
                        df != INF_DIST,
                        "{name} k={k} v={v}"
                    );
                }
            }
        }
    }

    /// Every strategy against the BFS oracle, every vertex, on random
    /// graphs at several hop bounds.
    #[test]
    fn agrees_with_bfs_oracle_on_random_graphs() {
        let mut flat = FlatDistances::new();
        for case in 0..20u64 {
            let n = 20 + (case as usize % 30);
            let g = crate::generators::gnm_random(n, 4 * n, 1234 + case);
            let (s, t) = (0u32, (n - 1) as u32);
            for k in [2u32, 4, 6, 8] {
                let oracle = search_space_oracle(&g, s, t, k);
                for strategy in DistanceStrategy::ALL {
                    flat.compute(&g, s, t, k, strategy);
                    assert_eq!(flat.is_feasible(), oracle[t as usize].0 != INF_DIST);
                    for v in g.vertices() {
                        assert_eq!(
                            (flat.dist_from_s(v), flat.dist_to_t(v)),
                            oracle[v as usize],
                            "case {case} {} k={k} v={v}",
                            strategy.name()
                        );
                    }
                }
            }
        }
    }

    /// Checks the adaptive strategy's in-space finish against `Single`, an
    /// independent path: two unrestricted full-depth passes. Feasibility and
    /// every vertex's in-space distances must agree, and so must the
    /// compacted [`SearchSpace`], vertex for vertex and edge for edge.
    #[derive(Default)]
    struct AgainstSingle {
        adaptive: FlatDistances,
        single: FlatDistances,
        spaces: [SearchSpace; 2],
        scratch: SpaceScratch,
        cases: usize,
    }

    impl AgainstSingle {
        fn check(&mut self, g: &DiGraph, s: VertexId, t: VertexId, k: u32) {
            let (adaptive, single) = (&mut self.adaptive, &mut self.single);
            adaptive.compute(g, s, t, k, DistanceStrategy::AdaptiveBidirectional);
            single.compute(g, s, t, k, DistanceStrategy::Single);
            assert_eq!(
                adaptive.is_feasible(),
                single.is_feasible(),
                "s={s} t={t} k={k}"
            );
            for v in g.vertices() {
                assert_eq!(
                    adaptive.dist_from_s(v),
                    single.dist_from_s(v),
                    "s={s} t={t} k={k} v={v}"
                );
                assert_eq!(
                    adaptive.dist_to_t(v),
                    single.dist_to_t(v),
                    "s={s} t={t} k={k} v={v}"
                );
            }
            let [a, b] = &mut self.spaces;
            a.rebuild_from_flat(g, adaptive, &mut self.scratch);
            b.rebuild_from_flat(g, single, &mut self.scratch);
            assert_eq!(a.vertices(), b.vertices(), "s={s} t={t} k={k}");
            for l in 0..a.vertex_count() as u32 {
                assert_eq!(a.out_neighbors(l), b.out_neighbors(l), "s={s} t={t} k={k}");
                assert_eq!(a.in_neighbors(l), b.in_neighbors(l), "s={s} t={t} k={k}");
            }
            self.cases += 1;
        }

        /// Every ordered `(s, t)` pair of `g` at every hop bound in `ks`.
        fn check_all_pairs(&mut self, g: &DiGraph, ks: impl IntoIterator<Item = u32> + Clone) {
            for s in g.vertices() {
                for t in g.vertices().filter(|&t| t != s) {
                    for k in ks.clone() {
                        self.check(g, s, t, k);
                    }
                }
            }
        }
    }

    /// Shapes where one side runs out before the depths meet.
    fn lopsided_shapes() -> Vec<DiGraph> {
        let mut shapes = vec![
            // s = 0's only out-edge goes to t = 1; the rest hangs off t and
            // loops back into s.
            DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (5, 4), (3, 5)]),
            // t = 3 is reachable only through s = 0 (via 4); the rest of the
            // graph loops back into s.
            DiGraph::from_edges(7, [(1, 0), (2, 1), (0, 4), (4, 3), (3, 5), (5, 2), (6, 2)]),
            // Disconnected halves: s = 0 in one, t = 4 in the other.
            DiGraph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 5)]),
        ];
        // A wide fan out of s = 0 and a chain s → 1 → 2 → 3 → t = 4: the
        // backward side exhausts at s while the forward frontier is wide.
        let mut broom = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        broom.extend((5..24).map(|leaf| (0, leaf)));
        broom.extend((5..23).map(|leaf| (leaf, leaf + 1)));
        shapes.push(DiGraph::from_edges(24, broom));
        shapes
    }

    /// Random graphs with `n` from 4 to 16 and one to three edges per
    /// vertex, seeded `0..graphs`.
    fn small_random_graphs(graphs: u64) -> impl Iterator<Item = DiGraph> {
        (0..graphs).map(|seed| {
            let n = 4 + (seed % 13) as usize;
            crate::generators::gnm_random(n, n * (1 + seed as usize % 3), 0xADA7 + seed)
        })
    }

    #[test]
    fn adaptive_in_space_finish_matches_single() {
        let mut oracle = AgainstSingle::default();
        for g in lopsided_shapes() {
            let n = g.vertex_count() as u32;
            oracle.check_all_pairs(&g, 1..=n + 1);
        }
        for g in small_random_graphs(40) {
            let n = g.vertex_count() as u32;
            oracle.check_all_pairs(&g, [1, 2, n - 1, n + 1]);
        }
        assert!(oracle.cases > 10_000, "{} cases", oracle.cases);
    }

    /// The full sweep: 400 random graphs, every pair, every `k` in
    /// `1..=n + 1`.
    #[test]
    #[ignore = "full sweep; run with --ignored"]
    fn adaptive_in_space_finish_matches_single_full_sweep() {
        let mut oracle = AgainstSingle::default();
        for g in small_random_graphs(400) {
            let n = g.vertex_count() as u32;
            oracle.check_all_pairs(&g, 1..=n + 1);
        }
        assert!(oracle.cases > 500_000, "{} cases", oracle.cases);
    }

    #[test]
    fn reuse_across_queries_and_accessors() {
        let g = figure1();
        let mut flat = FlatDistances::new();
        flat.compute(&g, 0, 3, 7, DistanceStrategy::AdaptiveBidirectional);
        assert!(flat.is_feasible());
        assert_eq!(flat.source(), 0);
        assert_eq!(flat.target(), 3);
        assert_eq!(flat.hop_constraint(), 7);
        assert_eq!(flat.raw_dist_from_s(1), 1);
        assert!(flat.forward_seen().contains(&1));
        assert!(flat.memory_bytes() > 0);
        assert!(flat.retained_bytes() >= flat.memory_bytes());
        // A later, smaller query must not leak the previous epoch's entries.
        flat.compute(&g, 0, 3, 3, DistanceStrategy::AdaptiveBidirectional);
        assert!(!flat.in_search_space(6), "vertex i is out of space at k=3");
        assert_eq!(flat.raw_dist_to_t(6), INF_DIST);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_source_and_target_panics() {
        let g = figure1();
        FlatDistances::new().compute(&g, 2, 2, 3, DistanceStrategy::Single);
    }

    #[test]
    fn budget_abort_is_reuse_safe() {
        let g = figure1();
        let mut flat = FlatDistances::new();
        for strategy in DistanceStrategy::ALL {
            // Kill the search at every possible work ceiling, then prove a
            // full re-run on the same instance matches a fresh one exactly.
            for limit in 0..16u64 {
                let killed = flat.compute_budgeted(
                    &g,
                    0,
                    3,
                    7,
                    strategy,
                    &QueryBudget::with_work_limit(limit),
                );
                if killed.is_ok() {
                    break;
                }
                assert_eq!(killed, Err(BudgetExhausted::Work));
                flat.compute(&g, 0, 3, 7, strategy);
                let mut fresh = FlatDistances::new();
                fresh.compute(&g, 0, 3, 7, strategy);
                for v in g.vertices() {
                    assert_eq!(
                        flat.dist_from_s(v),
                        fresh.dist_from_s(v),
                        "{} limit={limit} v={v}",
                        strategy.name()
                    );
                    assert_eq!(flat.dist_to_t(v), fresh.dist_to_t(v));
                }
            }
        }
        // An already-expired deadline trips on the first level boundary.
        let expired = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = flat.compute_budgeted(
            &g,
            0,
            3,
            7,
            DistanceStrategy::Single,
            &QueryBudget::with_deadline(expired),
        );
        assert_eq!(err, Err(BudgetExhausted::Deadline));
    }
}
