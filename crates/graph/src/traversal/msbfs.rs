//! Bit-parallel multi-source hop-bounded bidirectional BFS (MS-BFS) with
//! direction-optimizing traversal over multi-word lane blocks.
//!
//! The EVE Phase 1 runs one hop-bounded bidirectional search per query. When
//! a batch contains many queries, most of that traversal work is repeated:
//! queries share endpoint pairs, and even unrelated queries walk the same
//! dense core of the graph. [`MsBfsEngine`] amortises that cost in the style
//! of *MS-BFS* (Then et al., VLDB 2015): concurrent **lanes** — one per
//! distinct `(s, t)` endpoint pair — share a single pass over the CSR, with
//! one [`LaneBlock`] per vertex whose bit *i* says "lane *i* has reached this
//! vertex". Setting bit *i* for the first time at level *d* means
//! `dist_i(v) = d`; per-level discovery records make those distances
//! recoverable per lane afterwards.
//!
//! A lane block is a fixed-size array of `u64` words: `[u64; 1]`
//! ([`Lanes64`]) carries the classic 64 lanes and `[u64; 4]` ([`Lanes256`])
//! widens one traversal to 256 pairs. The word-wise
//! `or`/`and`/`not`/`any`/`count_ones` operations are written as
//! straight-line array loops with a compile-time trip count, which the
//! compiler unrolls and autovectorizes on stable Rust (a `[u64; 4]` OR is
//! one AVX2 operation) — no `std::simd`, no `unsafe`. Wider blocks cost
//! proportionally more per touched vertex but divide the number of sweeps:
//! a 256-pair batch pays one CSR traversal instead of four.
//!
//! Three properties of the per-query engine are folded into the word
//! operations, so cohort-shared answers stay bit-identical:
//!
//! * **Bidirectional scheduling.** A full-depth one-directional BFS
//!   saturates the graph (`O(d_avg^k)` vs the bidirectional
//!   `O(d_avg^{k/2})` meet-in-the-middle), which no amount of bit-
//!   parallelism pays back. Each lane therefore follows exactly the
//!   balanced-bidirectional schedule of the per-query
//!   [`FlatDistances`](crate::traversal::FlatDistances) engine: the forward
//!   side expands freely to `⌈k/2⌉`, the backward side to `⌊k/2⌋`, then
//!   each side finishes **restricted** — only vertices the other side has
//!   already discovered may be newly discovered. Lanes with different `k`
//!   pause at different levels; a per-vertex *paused* block parks a lane's
//!   frontier at its half-depth and the restricted phase resumes all lanes
//!   level-synchronously (lane *i*'s restricted level *c* means distance
//!   `half_i + c`).
//! * **Per-lane avoid vertices.** EVE's forward distances `Δ(s, v)` never
//!   route *through* `t` (and the backward ones never through `s`): paths
//!   revisiting an endpoint cannot be simple. A per-vertex forbid block
//!   masks a lane's bit out of every expansion *from* its avoided endpoint
//!   while still allowing that vertex to be discovered. This is also why
//!   lanes are keyed by the `(s, t)` *pair* rather than the bare source:
//!   two queries from one source with different targets need different
//!   avoid vertices, and merging them would change distances (and answers)
//!   whenever the only shortest route to some vertex passes through one of
//!   the targets.
//! * **Per-lane hop budgets.** Lane *i* stops discovering at its own depth
//!   budget; per-level active masks retire exhausted lanes, so recorded
//!   distances are exactly the hop-bounded set a per-query run produces.
//!
//! Within every phase, each level is expanded either **top-down** (scan the
//! frontier's adjacency and OR its block into the neighbours) or
//! **bottom-up** (scan still-undiscovered vertices and gather the frontier
//! blocks of their reverse neighbours, with early exit once every
//! still-possible lane has been found) in the style of Beamer's
//! direction-optimizing BFS. Which one runs is decided per level by an α/β
//! **hysteresis** (α = 2, β = 8): a phase enters bottom-up when the
//! frontier's incident edges exceed `edges / α` and only returns to
//! top-down once the frontier shrinks below `vertices / β` (while bottom-up
//! is active the per-level degree scan is skipped entirely).
//! [`MsBfsStats`] counts both kinds of edge scan separately so the
//! switching stays observable, and [`FrontierMode`] lets tests force either
//! direction on every level.

use crate::budget::{BudgetExhausted, QueryBudget};
use crate::csr::{DiGraph, Direction, VertexId};
use crate::traversal::SearchSpaceStats;

/// Lanes carried by a single `u64` word — the capacity of the default
/// [`Lanes64`] block. Wider blocks hold `WORDS × 64` lanes
/// ([`LaneBlock::LANES`]).
pub const MAX_LANES: usize = 64;

/// A fixed-size block of `u64` lane words — the unit of bit-parallelism of
/// [`MsBfsEngine`]. Bit *i* (word `i / 64`, bit `i % 64`) belongs to lane
/// *i*. Implemented for every `[u64; W]` via const generics; the supported
/// engine widths are [`Lanes64`] and [`Lanes256`].
///
/// Every operation is a straight-line loop over the `W` words with a
/// compile-time trip count, which the compiler unrolls and autovectorizes —
/// the abstraction adds no branches to the traversal inner loops.
pub trait LaneBlock: Copy + PartialEq + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Number of `u64` words per block.
    const WORDS: usize;
    /// Number of lanes the block carries (`WORDS × 64`).
    const LANES: usize = Self::WORDS * 64;

    /// The all-zero block.
    fn zero() -> Self;
    /// `true` if any bit is set.
    fn any(&self) -> bool;
    /// Whether bit `lane` is set.
    fn test(&self, lane: usize) -> bool;
    /// Sets bit `lane`.
    fn set(&mut self, lane: usize);
    /// Word-wise `self & other`.
    fn and(self, other: Self) -> Self;
    /// Word-wise `self & !other`.
    fn and_not(self, other: Self) -> Self;
    /// Word-wise `self |= other`.
    fn or_assign(&mut self, other: Self);
    /// Total set bits across all words.
    fn count_ones(&self) -> u32;
    /// `self & other == other` — "every bit of `other` is already in
    /// `self`", the bottom-up early-exit test.
    fn covers(&self, other: Self) -> bool;
    /// Word `i` of the block (lanes `64·i .. 64·i + 64`).
    fn word(&self, i: usize) -> u64;
}

impl<const W: usize> LaneBlock for [u64; W] {
    const WORDS: usize = W;

    #[inline(always)]
    fn zero() -> Self {
        [0u64; W]
    }

    #[inline(always)]
    fn any(&self) -> bool {
        let mut acc = 0u64;
        for w in self {
            acc |= w;
        }
        acc != 0
    }

    #[inline(always)]
    fn test(&self, lane: usize) -> bool {
        self[lane / 64] & (1u64 << (lane % 64)) != 0
    }

    #[inline(always)]
    fn set(&mut self, lane: usize) {
        self[lane / 64] |= 1u64 << (lane % 64);
    }

    #[inline(always)]
    fn and(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(&other) {
            *a &= b;
        }
        self
    }

    #[inline(always)]
    fn and_not(mut self, other: Self) -> Self {
        for (a, b) in self.iter_mut().zip(&other) {
            *a &= !b;
        }
        self
    }

    #[inline(always)]
    fn or_assign(&mut self, other: Self) {
        for (a, b) in self.iter_mut().zip(&other) {
            *a |= b;
        }
    }

    #[inline(always)]
    fn count_ones(&self) -> u32 {
        let mut total = 0u32;
        for w in self {
            total += w.count_ones();
        }
        total
    }

    #[inline(always)]
    fn covers(&self, other: Self) -> bool {
        let mut missing = 0u64;
        for (a, b) in self.iter().zip(&other) {
            missing |= b & !a;
        }
        missing == 0
    }

    #[inline(always)]
    fn word(&self, i: usize) -> u64 {
        self[i]
    }
}

/// Single-word lane block: 64 lanes, the default engine width.
pub type Lanes64 = [u64; 1];
/// Four-word lane block: 256 lanes per traversal (one AVX2 op per
/// word-wise operation when vectorized).
pub type Lanes256 = [u64; 4];

/// One BFS lane: a distinct `(source, target)` endpoint pair and its hop
/// budget. The forward side starts at `source` avoiding `target`; the
/// backward side starts at `target` avoiding `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsBfsLane {
    /// Query source `s` (forward distance 0).
    pub source: VertexId,
    /// Query target `t` (backward distance 0; must differ from `source`).
    pub target: VertexId,
    /// Hop budget: the lane records forward + backward distances whose
    /// filtered sum can reach `depth` (0 records only the endpoints).
    pub depth: u32,
}

impl MsBfsLane {
    /// Free forward levels of the balanced bidirectional schedule, `⌈k/2⌉`.
    #[inline]
    fn half_fwd(&self) -> u32 {
        self.depth.div_ceil(2)
    }

    /// Free backward levels, `⌊k/2⌋`.
    #[inline]
    fn half_bwd(&self) -> u32 {
        self.depth / 2
    }
}

/// Per-level expansion policy of the engine. Answers never depend on the
/// mode, only the work profile does; the forced modes exist so tests can
/// reach both expansion kinds on any graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrontierMode {
    /// Choose top-down or bottom-up per level via the α/β hysteresis (the
    /// default, and what production cohorts use).
    #[default]
    DirectionOptimizing,
    /// Always relax frontier adjacency (classic BFS).
    TopDownOnly,
    /// Always gather from reverse adjacency (correct but wasteful on
    /// sparse frontiers).
    BottomUpOnly,
}

/// Bottom-up entry of the direction hysteresis: a top-down level switches
/// when `frontier_edges × ALPHA > edges`. The bar is deliberately high: a
/// multi-lane bottom-up gather only early-exits once *every* still-possible
/// lane is found, so bottom-up pays later than in single-source BFS.
const ALPHA: usize = 2;

/// Top-down return of the direction hysteresis: bottom-up persists until
/// `frontier_vertices × BETA < vertices`, so a collapsing frontier returns
/// to top-down instead of re-scanning all vertices level after level.
const BETA: usize = 8;

/// Work counters of one side of an [`MsBfsEngine::run`], split by expansion
/// direction so the direction-optimizing switch is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsBfsStats {
    /// Adjacency entries scanned by top-down levels (frontier relaxations).
    pub top_down_edge_scans: usize,
    /// Reverse-adjacency entries probed by bottom-up levels (including
    /// probes cut short by the early exit).
    pub bottom_up_edge_scans: usize,
    /// Levels expanded top-down.
    pub top_down_levels: usize,
    /// Levels expanded bottom-up.
    pub bottom_up_levels: usize,
}

impl MsBfsStats {
    /// Total edges scanned in either direction.
    pub fn total_edge_scans(&self) -> usize {
        self.top_down_edge_scans + self.bottom_up_edge_scans
    }

    /// Folds this side's counters into a [`SearchSpaceStats`]: top-down
    /// scans land on the side given by `dir` (forward side → forward
    /// scans), bottom-up scans are accounted separately.
    pub fn accumulate_into(&self, stats: &mut SearchSpaceStats, dir: Direction) {
        match dir {
            Direction::Forward => stats.forward_edge_scans += self.top_down_edge_scans,
            Direction::Backward => stats.backward_edge_scans += self.top_down_edge_scans,
        }
        stats.bottom_up_edge_scans += self.bottom_up_edge_scans;
    }
}

/// One traversal side (forward from the sources or backward from the
/// targets) with its lane-block arrays and discovery records.
#[derive(Debug, Clone)]
struct Side<B: LaneBlock> {
    /// Bit *i* set ⇒ lane *i* has discovered this vertex on this side.
    seen: Vec<B>,
    /// Bits discovered exactly at the current level.
    frontier_bits: Vec<B>,
    /// Bits being discovered at the level under construction.
    next_bits: Vec<B>,
    /// Bit *i* set ⇒ this vertex is lane *i*'s avoided endpoint on this
    /// side (discoverable, never expanded from).
    forbid: Vec<B>,
    /// Frontier bits parked at each lane's half-depth, waiting for the
    /// restricted phase.
    paused_bits: Vec<B>,
    /// Vertices with a non-zero `frontier_bits` block.
    frontier: Vec<VertexId>,
    /// Vertices with a non-zero `next_bits` block.
    next: Vec<VertexId>,
    /// Vertices with a non-zero `paused_bits` block.
    paused: Vec<VertexId>,
    /// `(vertex, bits first set at that level)` for the free phase,
    /// grouped by level: level `d` distances are `d`.
    records_free: Vec<(VertexId, B)>,
    offsets_free: Vec<usize>,
    /// Restricted-phase records, grouped by resumed level: lane *i* bits at
    /// level `c` mean distance `half_i + c`.
    records_restricted: Vec<(VertexId, B)>,
    offsets_restricted: Vec<usize>,
    /// Per-lane CSR over both record lists, built once per run by
    /// [`Side::index_lanes`]: lane *i*'s `(vertex, distance)` entries, in
    /// ascending distance order, are
    /// `lane_entries[lane_starts[i]..lane_starts[i + 1]]`. Reading one
    /// lane's distances then costs its own entry count — not one scan of
    /// the whole cohort's records per member, which grows with lane width.
    lane_starts: Vec<usize>,
    lane_entries: Vec<(VertexId, u32)>,
    /// Fill cursors of `index_lanes`, retained to avoid per-run allocation.
    lane_cursor: Vec<usize>,
    /// Direction hysteresis state: whether the previous level of the
    /// current phase ran bottom-up. Reset at every phase start (`begin` /
    /// `resume_from_paused`).
    bottom_up_active: bool,
    stats: MsBfsStats,
}

impl<B: LaneBlock> Default for Side<B> {
    fn default() -> Self {
        Side {
            seen: Vec::new(),
            frontier_bits: Vec::new(),
            next_bits: Vec::new(),
            forbid: Vec::new(),
            paused_bits: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            paused: Vec::new(),
            records_free: Vec::new(),
            offsets_free: Vec::new(),
            records_restricted: Vec::new(),
            offsets_restricted: Vec::new(),
            lane_starts: Vec::new(),
            lane_entries: Vec::new(),
            lane_cursor: Vec::new(),
            bottom_up_active: false,
            stats: MsBfsStats::default(),
        }
    }
}

impl<B: LaneBlock> Side<B> {
    fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, B::zero());
            self.frontier_bits.resize(n, B::zero());
            self.next_bits.resize(n, B::zero());
            self.forbid.resize(n, B::zero());
            self.paused_bits.resize(n, B::zero());
        }
        debug_assert!(
            self.seen.iter().all(|w| !w.any())
                && self.forbid.iter().all(|w| !w.any())
                && self.frontier_bits.iter().all(|w| !w.any())
                && self.paused_bits.iter().all(|w| !w.any()),
            "bit arrays must be all-zero between runs"
        );
        self.records_free.clear();
        self.offsets_free.clear();
        self.records_restricted.clear();
        self.offsets_restricted.clear();
        self.lane_starts.clear();
        self.lane_entries.clear();
        self.frontier.clear();
        self.next.clear();
        self.paused.clear();
        self.bottom_up_active = false;
        self.stats = MsBfsStats::default();
    }

    /// Seeds lane `i` at `start` avoiding `avoid`.
    fn seed(&mut self, i: usize, start: VertexId, avoid: VertexId) {
        if !self.frontier_bits[start as usize].any() {
            self.frontier.push(start);
        }
        self.frontier_bits[start as usize].set(i);
        self.seen[start as usize].set(i);
        self.forbid[avoid as usize].set(i);
    }

    /// Records the current frontier as one level of `records_free`.
    fn record_free_level(&mut self) {
        for &v in &self.frontier {
            self.records_free.push((v, self.frontier_bits[v as usize]));
        }
        self.offsets_free.push(self.records_free.len());
    }

    /// Parks the frontier bits of `pause_mask` lanes for the restricted
    /// phase (their free budget ends at the current level).
    fn pause(&mut self, pause_mask: B) {
        if !pause_mask.any() {
            return;
        }
        for &v in &self.frontier {
            let bits = self.frontier_bits[v as usize].and(pause_mask);
            if bits.any() {
                if !self.paused_bits[v as usize].any() {
                    self.paused.push(v);
                }
                self.paused_bits[v as usize].or_assign(bits);
            }
        }
    }

    /// Promotes `next` to the frontier, leaving the old arrays all-zero.
    fn advance(&mut self) {
        for &u in &self.frontier {
            self.frontier_bits[u as usize] = B::zero();
        }
        std::mem::swap(&mut self.frontier_bits, &mut self.next_bits);
        std::mem::swap(&mut self.frontier, &mut self.next);
        self.next.clear();
    }

    /// Replaces the frontier with the paused set (restricted-phase start).
    fn resume_from_paused(&mut self) {
        for &u in &self.frontier {
            self.frontier_bits[u as usize] = B::zero();
        }
        self.frontier.clear();
        std::mem::swap(&mut self.frontier_bits, &mut self.paused_bits);
        std::mem::swap(&mut self.frontier, &mut self.paused);
        // The restricted phase starts a fresh direction decision.
        self.bottom_up_active = false;
    }

    /// Adjacency entries incident to the current frontier in `dir` — the
    /// density signal of the direction switch.
    fn frontier_edges(&self, g: &DiGraph, dir: Direction) -> usize {
        self.frontier
            .iter()
            .map(|&u| g.neighbors(u, dir).len())
            .sum()
    }

    /// Expands one level. `level_mask` holds the lanes still in budget;
    /// `restrict` is the other side's seen array during the restricted
    /// phase (a lane may then only discover vertices the other side has
    /// seen). Returns `true` if anything was discovered.
    fn step(
        &mut self,
        g: &DiGraph,
        dir: Direction,
        level_mask: B,
        restrict: Option<&[B]>,
        mode: FrontierMode,
    ) -> bool {
        let bottom_up = match mode {
            FrontierMode::TopDownOnly => false,
            FrontierMode::BottomUpOnly => true,
            FrontierMode::DirectionOptimizing => {
                if self.bottom_up_active {
                    // β exit: stay bottom-up until the frontier thins out;
                    // only its vertex count is consulted, so the per-level
                    // degree scan is skipped entirely.
                    self.frontier.len() * BETA >= g.vertex_count().max(1)
                } else {
                    // α entry: a dense frontier justifies gathering.
                    self.frontier_edges(g, dir) * ALPHA > g.edge_count().max(1)
                }
            }
        };
        self.bottom_up_active = bottom_up;
        if bottom_up {
            self.step_bottom_up(g, dir, level_mask, restrict);
        } else {
            self.step_top_down(g, dir, level_mask, restrict);
        }
        !self.next.is_empty()
    }

    /// Classic frontier relaxation: scan the adjacency of every frontier
    /// vertex and OR its (forbid-masked) block into each neighbour.
    fn step_top_down(
        &mut self,
        g: &DiGraph,
        dir: Direction,
        level_mask: B,
        restrict: Option<&[B]>,
    ) {
        self.stats.top_down_levels += 1;
        let frontier = std::mem::take(&mut self.frontier);
        for &u in &frontier {
            let mask = self.frontier_bits[u as usize]
                .and_not(self.forbid[u as usize])
                .and(level_mask);
            if !mask.any() {
                continue;
            }
            for &v in g.neighbors(u, dir) {
                self.stats.top_down_edge_scans += 1;
                let mut new = mask.and_not(self.seen[v as usize]);
                if let Some(other_seen) = restrict {
                    new = new.and(other_seen[v as usize]);
                }
                if new.any() {
                    if !self.next_bits[v as usize].any() {
                        self.next.push(v);
                    }
                    self.next_bits[v as usize].or_assign(new);
                    self.seen[v as usize].or_assign(new);
                }
            }
        }
        self.frontier = frontier;
    }

    /// Beamer-style bottom-up level: every vertex that some active lane
    /// could still discover gathers the frontier blocks of its reverse
    /// neighbours, stopping early once all still-possible lanes are found.
    fn step_bottom_up(
        &mut self,
        g: &DiGraph,
        dir: Direction,
        level_mask: B,
        restrict: Option<&[B]>,
    ) {
        self.stats.bottom_up_levels += 1;
        let gather_dir = dir.flipped();
        for v in 0..g.vertex_count() as VertexId {
            let mut possible = level_mask.and_not(self.seen[v as usize]);
            if let Some(other_seen) = restrict {
                possible = possible.and(other_seen[v as usize]);
            }
            if !possible.any() {
                continue;
            }
            let mut gathered = B::zero();
            for &u in g.neighbors(v, gather_dir) {
                self.stats.bottom_up_edge_scans += 1;
                gathered.or_assign(self.frontier_bits[u as usize].and_not(self.forbid[u as usize]));
                if gathered.covers(possible) {
                    break;
                }
            }
            let new = gathered.and(possible);
            if new.any() {
                self.next.push(v);
                self.next_bits[v as usize] = new;
                self.seen[v as usize].or_assign(new);
            }
        }
    }

    /// Restores the all-zero invariant after a run. Every vertex with a
    /// `seen` bit appears in a record, and the `frontier` / `paused` lists
    /// track exactly the vertices whose `frontier_bits` / `paused_bits`
    /// blocks are non-zero (`seed`, the step functions, `advance`, `pause`
    /// and `resume_from_paused` all maintain this, and the budget poll
    /// aborts only at level boundaries where it holds) — so one store per
    /// recorded vertex plus the two short lists suffice, instead of three
    /// block stores per record.
    fn cleanup(&mut self, lanes: &[MsBfsLane], avoid_of: impl Fn(&MsBfsLane) -> VertexId) {
        for &(v, _) in self.records_free.iter().chain(&self.records_restricted) {
            self.seen[v as usize] = B::zero();
        }
        for &v in &self.frontier {
            self.frontier_bits[v as usize] = B::zero();
        }
        for &v in &self.paused {
            self.paused_bits[v as usize] = B::zero();
        }
        for lane in lanes {
            self.forbid[avoid_of(lane) as usize] = B::zero();
        }
        self.frontier.clear();
        self.paused.clear();
    }

    /// Builds the per-lane distance index: one pass over the level-grouped
    /// records fans each block's set bits out to the owning lanes (counting
    /// pass, prefix sum, fill pass). Group order is ascending distance per
    /// lane — free levels stop at the lane's half, restricted level `c`
    /// means `half + c + 1` — so each lane's entry run is distance-sorted
    /// and a depth-truncated read can stop at the first too-deep entry.
    fn index_lanes(&mut self, lane_count: usize, halves: &[u32]) {
        self.lane_starts.clear();
        self.lane_starts.resize(lane_count + 1, 0);
        for &(_, bits) in self.records_free.iter().chain(&self.records_restricted) {
            for w in 0..B::WORDS {
                let mut word = bits.word(w);
                while word != 0 {
                    let lane = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.lane_starts[lane + 1] += 1;
                }
            }
        }
        for i in 1..=lane_count {
            self.lane_starts[i] += self.lane_starts[i - 1];
        }
        self.lane_cursor.clear();
        self.lane_cursor
            .extend_from_slice(&self.lane_starts[..lane_count]);
        self.lane_entries.clear();
        self.lane_entries
            .resize(self.lane_starts[lane_count], (0, 0));
        let mut start = 0usize;
        for (d, &end) in self.offsets_free.iter().enumerate() {
            for &(v, bits) in &self.records_free[start..end] {
                for w in 0..B::WORDS {
                    let mut word = bits.word(w);
                    while word != 0 {
                        let lane = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        let slot = self.lane_cursor[lane];
                        self.lane_entries[slot] = (v, d as u32);
                        self.lane_cursor[lane] = slot + 1;
                    }
                }
            }
            start = end;
        }
        let mut start = 0usize;
        for (c, &end) in self.offsets_restricted.iter().enumerate() {
            for &(v, bits) in &self.records_restricted[start..end] {
                for w in 0..B::WORDS {
                    let mut word = bits.word(w);
                    while word != 0 {
                        let lane = w * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        let slot = self.lane_cursor[lane];
                        self.lane_entries[slot] = (v, halves[lane] + c as u32 + 1);
                        self.lane_cursor[lane] = slot + 1;
                    }
                }
            }
            start = end;
        }
    }

    fn retained_bytes(&self) -> usize {
        let blocks = self.seen.capacity()
            + self.frontier_bits.capacity()
            + self.next_bits.capacity()
            + self.forbid.capacity()
            + self.paused_bits.capacity();
        blocks * std::mem::size_of::<B>()
            + (self.frontier.capacity() + self.next.capacity() + self.paused.capacity())
                * std::mem::size_of::<VertexId>()
            + (self.records_free.capacity() + self.records_restricted.capacity())
                * std::mem::size_of::<(VertexId, B)>()
            + (self.offsets_free.capacity() + self.offsets_restricted.capacity())
                * std::mem::size_of::<usize>()
            + (self.lane_starts.capacity() + self.lane_cursor.capacity())
                * std::mem::size_of::<usize>()
            + self.lane_entries.capacity() * std::mem::size_of::<(VertexId, u32)>()
    }
}

/// Reusable bit-parallel multi-source bidirectional BFS engine (see the
/// module docs), generic over its lane-block width `B`. The default
/// [`Lanes64`] engine carries 64 lanes; a [`Lanes256`] engine carries 256
/// (cohort planners pick the narrower block whenever a cohort fits it, so
/// small cohorts never pay wide-word overhead).
///
/// All buffers are retained across runs; between runs the graph-sized bit
/// arrays are kept all-zero (reset touches only the vertices the previous
/// run discovered), so a warmed engine performs no per-run allocation and
/// no O(n) clearing.
#[derive(Debug, Clone)]
pub struct MsBfsEngine<B: LaneBlock = Lanes64> {
    fwd: Side<B>,
    bwd: Side<B>,
    /// `half_fwd` per lane, for restricted-level distance reconstruction.
    halves_fwd: Vec<u32>,
    /// `half_bwd` per lane.
    halves_bwd: Vec<u32>,
    mode: FrontierMode,
    lane_count: usize,
}

impl<B: LaneBlock> Default for MsBfsEngine<B> {
    fn default() -> Self {
        MsBfsEngine {
            fwd: Side::default(),
            bwd: Side::default(),
            halves_fwd: Vec::new(),
            halves_bwd: Vec::new(),
            mode: FrontierMode::default(),
            lane_count: 0,
        }
    }
}

impl<B: LaneBlock> MsBfsEngine<B> {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        MsBfsEngine::default()
    }

    /// Maximum lanes one run of this engine carries ([`LaneBlock::LANES`]).
    pub fn max_lanes() -> usize {
        B::LANES
    }

    /// Sets the per-level expansion policy for subsequent runs — the test
    /// hook that forces top-down or bottom-up expansion.
    pub fn set_mode(&mut self, mode: FrontierMode) {
        self.mode = mode;
    }

    /// The current expansion policy.
    pub fn mode(&self) -> FrontierMode {
        self.mode
    }

    /// Runs one shared bidirectional hop-bounded search over `lanes`,
    /// following the per-query balanced-bidirectional schedule lane by
    /// lane: forward free to `⌈k/2⌉` (pausing each lane's frontier at its
    /// own half-depth), backward free to `⌊k/2⌋`, then each side finishes
    /// restricted to the other side's discovered region. Backward levels
    /// walk the in-adjacency, so the reversed CSR is never materialised.
    ///
    /// Results stay readable (via [`MsBfsEngine::for_each_lane_distance`])
    /// until the next `run`.
    ///
    /// # Panics
    /// Panics if `lanes` is empty or longer than [`LaneBlock::LANES`], or
    /// if any lane has `source == target` or an endpoint outside the graph.
    pub fn run(&mut self, g: &DiGraph, lanes: &[MsBfsLane]) {
        self.run_budgeted(g, lanes, &QueryBudget::unlimited())
            .expect("an unlimited budget never trips"); // spg-analyze: allow(no-panic) — unlimited budgets cannot trip
    }

    /// [`MsBfsEngine::run`] under a cooperative [`QueryBudget`], charged one
    /// unit per edge scanned and polled at every level boundary of every
    /// phase. On `Err` the traversal stops within one level of the ceiling,
    /// the partial results are discarded (reading them panics, exactly like
    /// an engine that never ran), and — crucially for workspace reuse — the
    /// graph-sized bit arrays are restored to all-zero, so the engine is
    /// immediately reusable for the next run.
    ///
    /// # Panics
    /// As [`MsBfsEngine::run`].
    pub fn run_budgeted(
        &mut self,
        g: &DiGraph,
        lanes: &[MsBfsLane],
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        assert!(
            !lanes.is_empty() && lanes.len() <= B::LANES,
            "MS-BFS cohorts hold 1..={} lanes, got {}",
            B::LANES,
            lanes.len()
        );
        let n = g.vertex_count();
        self.fwd.begin(n);
        self.bwd.begin(n);
        self.halves_fwd.clear();
        self.halves_bwd.clear();
        self.lane_count = lanes.len();
        for (i, lane) in lanes.iter().enumerate() {
            assert!(
                (lane.source as usize) < n && (lane.target as usize) < n,
                "lane {i} endpoints must lie inside the graph"
            );
            assert!(
                lane.source != lane.target,
                "lane {i}: source and target must be distinct"
            );
            self.fwd.seed(i, lane.source, lane.target);
            self.bwd.seed(i, lane.target, lane.source);
            self.halves_fwd.push(lane.half_fwd());
            self.halves_bwd.push(lane.half_bwd());
        }
        // Record the seed level of both sides up front: every set bit is
        // then always covered by a record, which is what lets an abort at
        // any level boundary restore the all-zero invariant via `cleanup`.
        self.fwd.record_free_level();
        self.bwd.record_free_level();

        let mode = self.mode;
        // Free phases: each side expands to its per-lane half-depth.
        let mut outcome = Self::free_phase(
            &mut self.fwd,
            g,
            Direction::Forward,
            &self.halves_fwd,
            mode,
            budget,
        );
        if outcome.is_ok() {
            outcome = Self::free_phase(
                &mut self.bwd,
                g,
                Direction::Backward,
                &self.halves_bwd,
                mode,
                budget,
            );
        }
        // Restricted phases: resume the paused frontiers; lane i's budget is
        // depth_i − half_i further levels, each discovery gated on the other
        // side's seen set. The backward pass runs after (and therefore
        // sees) the forward restricted discoveries, mirroring the
        // sequential engine.
        if outcome.is_ok() {
            outcome = Self::restricted_phase(
                &mut self.fwd,
                g,
                Direction::Forward,
                lanes,
                &self.halves_fwd,
                &self.bwd.seen,
                mode,
                budget,
            );
        }
        if outcome.is_ok() {
            outcome = Self::restricted_phase(
                &mut self.bwd,
                g,
                Direction::Backward,
                lanes,
                &self.halves_bwd,
                &self.fwd.seen,
                mode,
                budget,
            );
        }
        self.fwd.cleanup(lanes, |lane| lane.target);
        self.bwd.cleanup(lanes, |lane| lane.source);
        if outcome.is_ok() {
            self.fwd.index_lanes(lanes.len(), &self.halves_fwd);
            self.bwd.index_lanes(lanes.len(), &self.halves_bwd);
        }
        if outcome.is_err() {
            // Partial distances must never be readable: drop the records and
            // present as an engine that has not run.
            self.fwd.records_free.clear();
            self.fwd.offsets_free.clear();
            self.fwd.records_restricted.clear();
            self.fwd.offsets_restricted.clear();
            self.bwd.records_free.clear();
            self.bwd.offsets_free.clear();
            self.bwd.records_restricted.clear();
            self.bwd.offsets_restricted.clear();
            self.lane_count = 0;
        }
        outcome
    }

    /// Free phase of one side: level-synchronous expansion where lane `i`
    /// participates while the next level stays within `halves[i]`, parking
    /// its frontier in the paused set once its half-budget is spent. The
    /// seed level is recorded by the caller (see `run_budgeted`); the budget
    /// is polled only at level boundaries, where every set bit is covered
    /// by a record and an abort can restore the all-zero invariant.
    fn free_phase(
        side: &mut Side<B>,
        g: &DiGraph,
        dir: Direction,
        halves: &[u32],
        mode: FrontierMode,
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        let mut depth = 0u32;
        let mut charged = 0usize;
        loop {
            let scans = side.stats.total_edge_scans();
            budget.charge((scans - charged) as u64)?;
            charged = scans;
            let pause_mask = lane_mask::<B, _>(halves, |&h| h == depth);
            side.pause(pause_mask);
            if side.frontier.is_empty() {
                break;
            }
            let level_mask = lane_mask::<B, _>(halves, |&h| h > depth);
            if !level_mask.any() {
                break;
            }
            if !side.step(g, dir, level_mask, None, mode) {
                side.advance();
                break;
            }
            side.advance();
            side.record_free_level();
            depth += 1;
        }
        budget.charge((side.stats.total_edge_scans() - charged) as u64)?;
        Ok(())
    }

    /// Restricted phase of one side: resume from the paused frontiers and
    /// expand while any lane has remaining budget (`depth_i − half_i`
    /// levels), discovering only vertices in `other_seen`.
    #[allow(clippy::too_many_arguments)]
    fn restricted_phase(
        side: &mut Side<B>,
        g: &DiGraph,
        dir: Direction,
        lanes: &[MsBfsLane],
        halves: &[u32],
        other_seen: &[B],
        mode: FrontierMode,
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        side.resume_from_paused();
        let mut c = 0u32;
        let mut charged = side.stats.total_edge_scans();
        loop {
            let scans = side.stats.total_edge_scans();
            budget.charge((scans - charged) as u64)?;
            charged = scans;
            if side.frontier.is_empty() {
                break;
            }
            let mut level_mask = B::zero();
            for (i, (lane, &half)) in lanes.iter().zip(halves).enumerate() {
                if lane.depth - half > c {
                    level_mask.set(i);
                }
            }
            if !level_mask.any() {
                break;
            }
            let discovered = side.step(g, dir, level_mask, Some(other_seen), mode);
            side.advance();
            if !discovered {
                break;
            }
            for i in 0..side.frontier.len() {
                let v = side.frontier[i];
                side.records_restricted
                    .push((v, side.frontier_bits[v as usize]));
            }
            side.offsets_restricted.push(side.records_restricted.len());
            c += 1;
        }
        budget.charge((side.stats.total_edge_scans() - charged) as u64)?;
        Ok(())
    }

    /// Number of lanes of the last run.
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// Visits every `(vertex, distance)` the given lane discovered on one
    /// side in the last run — forward distances `Δ(s, v)` for
    /// [`Direction::Forward`], backward distances `Δ(v, t)` for
    /// [`Direction::Backward`] — in ascending distance order. Includes the
    /// side's start vertex at distance 0.
    ///
    /// # Panics
    /// Panics if `lane` is not a lane index of the last run.
    pub fn for_each_lane_distance<F: FnMut(VertexId, u32)>(
        &self,
        dir: Direction,
        lane: usize,
        f: F,
    ) {
        self.for_each_lane_distance_to_depth(dir, lane, u32::MAX, f);
    }

    /// [`MsBfsEngine::for_each_lane_distance`] truncated to distances
    /// `≤ max_depth`. A query served by a deeper shared lane (the lane's
    /// budget is the maximum `k` of the queries sharing its pair) never
    /// consumes entries past its own `k` — the search-space filter would
    /// discard them anyway — so the materialisation loop can stop early.
    pub fn for_each_lane_distance_to_depth<F: FnMut(VertexId, u32)>(
        &self,
        dir: Direction,
        lane: usize,
        max_depth: u32,
        mut f: F,
    ) {
        assert!(lane < self.lane_count, "lane {lane} out of range");
        let side = match dir {
            Direction::Forward => &self.fwd,
            Direction::Backward => &self.bwd,
        };
        // The per-lane index (built once per run) holds this lane's entries
        // in ascending distance order, so the read touches only the lane's
        // own discoveries — never the other lanes' share of the records.
        let entries = &side.lane_entries[side.lane_starts[lane]..side.lane_starts[lane + 1]];
        for &(v, d) in entries {
            if d > max_depth {
                break;
            }
            f(v, d);
        }
    }

    /// Work counters of one side of the last run.
    pub fn side_stats(&self, dir: Direction) -> MsBfsStats {
        match dir {
            Direction::Forward => self.fwd.stats,
            Direction::Backward => self.bwd.stats,
        }
    }

    /// Bytes of buffer capacity retained for reuse across runs.
    pub fn retained_bytes(&self) -> usize {
        self.fwd.retained_bytes()
            + self.bwd.retained_bytes()
            + (self.halves_fwd.capacity() + self.halves_bwd.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Lane-block mask of lane indices whose entry in `values` satisfies `pred`.
fn lane_mask<B: LaneBlock, T>(values: &[T], pred: impl Fn(&T) -> bool) -> B {
    let mut mask = B::zero();
    for (i, v) in values.iter().enumerate() {
        if pred(v) {
            mask.set(i);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{DistanceStrategy, FlatDistances};
    use crate::INF_DIST;

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

    fn lane_distances<B: LaneBlock>(
        engine: &MsBfsEngine<B>,
        dir: Direction,
        lane: usize,
        n: usize,
    ) -> Vec<u32> {
        let mut dist = vec![INF_DIST; n];
        engine.for_each_lane_distance(dir, lane, |v, d| {
            assert_eq!(dist[v as usize], INF_DIST, "vertex {v} recorded twice");
            dist[v as usize] = d;
        });
        dist
    }

    #[test]
    fn lane_block_word_ops() {
        let mut a = Lanes256::zero();
        assert!(!a.any());
        assert_eq!(Lanes256::WORDS, 4);
        assert_eq!(Lanes256::LANES, 256);
        a.set(0);
        a.set(67);
        a.set(255);
        assert!(a.any() && a.test(67) && !a.test(66));
        assert_eq!(a.count_ones(), 3);
        let mut b = Lanes256::zero();
        b.set(67);
        assert!(a.covers(b));
        assert!(!b.covers(a));
        assert_eq!(a.and(b), b);
        assert_eq!(a.and_not(b).count_ones(), 2);
        assert!(!a.and_not(b).test(67));
        b.or_assign(a);
        assert_eq!(b, a);
    }

    /// One lane must reproduce the per-query balanced-bidirectional raw
    /// distances exactly — it is the same schedule, word-parallel. Holds at
    /// every block width (a wide block with one active lane is the same
    /// traversal with zero-padded words).
    #[test]
    fn single_lane_matches_bidirectional_flat_distances() {
        fn check<B: LaneBlock>() {
            let g = figure1();
            let mut engine = MsBfsEngine::<B>::new();
            let mut flat = FlatDistances::new();
            for k in 1..=8u32 {
                flat.compute(&g, 0, 3, k, DistanceStrategy::Bidirectional);
                engine.run(
                    &g,
                    &[MsBfsLane {
                        source: 0,
                        target: 3,
                        depth: k,
                    }],
                );
                let fwd = lane_distances(&engine, Direction::Forward, 0, 8);
                let bwd = lane_distances(&engine, Direction::Backward, 0, 8);
                for v in g.vertices() {
                    assert_eq!(fwd[v as usize], flat.raw_dist_from_s(v), "k={k} v={v} fwd");
                    assert_eq!(bwd[v as usize], flat.raw_dist_to_t(v), "k={k} v={v} bwd");
                }
            }
        }
        check::<Lanes64>();
        check::<Lanes256>();
    }

    /// The avoided endpoint may be discovered but never expanded: vertices
    /// only reachable through it stay undiscovered for that lane, while a
    /// lane with a different target sails past in the same run.
    #[test]
    fn avoid_vertex_blocks_expansion_per_lane() {
        // 0 → 1 → 2 → 3 → 4: vertex 4 is reachable only through 3.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut engine = MsBfsEngine::<Lanes64>::new();
        engine.run(
            &g,
            &[
                MsBfsLane {
                    source: 0,
                    target: 3,
                    depth: 8,
                },
                MsBfsLane {
                    source: 0,
                    target: 1,
                    depth: 8,
                },
            ],
        );
        let avoid3 = lane_distances(&engine, Direction::Forward, 0, 5);
        let avoid1 = lane_distances(&engine, Direction::Forward, 1, 5);
        assert_eq!(avoid3[3], 3, "the avoided vertex itself is discovered");
        assert_eq!(avoid3[4], INF_DIST, "but never expanded from");
        assert_eq!(avoid1[1], 1);
        assert_eq!(avoid1[2], INF_DIST, "lane 1 is cut at vertex 1 instead");
        assert_eq!(avoid1[0], 0);
        // Backward side of lane 0 (start 3, avoid 0): half = 4 free levels
        // walk in-edges 3 ← 2 ← 1 ← 0.
        let bwd = lane_distances(&engine, Direction::Backward, 0, 5);
        assert_eq!(bwd[3], 0);
        assert_eq!(bwd[2], 1);
    }

    /// Per-lane hop budgets pause and retire lanes independently: on a
    /// path graph the filtered distances admit exactly the path when the
    /// budget covers it.
    #[test]
    fn per_lane_depth_budgets_are_respected() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut engine = MsBfsEngine::<Lanes64>::new();
        let lanes = [
            MsBfsLane {
                source: 0,
                target: 3,
                depth: 2, // too short: the 0→3 path needs 3 hops
            },
            MsBfsLane {
                source: 0,
                target: 3,
                depth: 3, // exact
            },
            MsBfsLane {
                source: 0,
                target: 5,
                depth: 5, // exact full path
            },
        ];
        engine.run(&g, &lanes);
        for (lane, spec) in lanes.iter().enumerate() {
            let mut fd = FlatDistances::new();
            fd.begin_load(6, spec.source, spec.target, spec.depth);
            engine.for_each_lane_distance(Direction::Forward, lane, |v, d| fd.push_forward(v, d));
            engine.for_each_lane_distance(Direction::Backward, lane, |v, d| fd.push_backward(v, d));
            let mut reference = FlatDistances::new();
            reference.compute(
                &g,
                spec.source,
                spec.target,
                spec.depth,
                DistanceStrategy::Single,
            );
            assert_eq!(fd.is_feasible(), reference.is_feasible(), "lane {lane}");
            for v in g.vertices() {
                assert_eq!(
                    fd.dist_from_s(v),
                    reference.dist_from_s(v),
                    "lane {lane} v {v}"
                );
                assert_eq!(fd.dist_to_t(v), reference.dist_to_t(v), "lane {lane} v {v}");
            }
        }
    }

    /// All frontier modes produce identical per-lane distances; the forced
    /// modes actually exercise their expansion kind.
    #[test]
    fn frontier_modes_agree_and_are_observable() {
        let g = crate::generators::gnm_random(60, 600, 42);
        let lanes: Vec<MsBfsLane> = (0..32)
            .map(|i| MsBfsLane {
                source: i as VertexId,
                target: (i + 7) as VertexId % 60,
                depth: 1 + (i % 6) as u32,
            })
            .collect();
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for mode in [
            FrontierMode::TopDownOnly,
            FrontierMode::BottomUpOnly,
            FrontierMode::DirectionOptimizing,
        ] {
            let mut engine = MsBfsEngine::<Lanes64>::new();
            engine.set_mode(mode);
            assert_eq!(engine.mode(), mode);
            engine.run(&g, &lanes);
            let dists: Vec<Vec<u32>> = (0..lanes.len())
                .flat_map(|lane| {
                    [
                        lane_distances(&engine, Direction::Forward, lane, 60),
                        lane_distances(&engine, Direction::Backward, lane, 60),
                    ]
                })
                .collect();
            match &reference {
                None => reference = Some(dists),
                Some(r) => assert_eq!(r, &dists, "{mode:?} diverged"),
            }
            let fwd = engine.side_stats(Direction::Forward);
            let bwd = engine.side_stats(Direction::Backward);
            match mode {
                FrontierMode::TopDownOnly => {
                    assert_eq!(fwd.bottom_up_levels + bwd.bottom_up_levels, 0);
                    assert!(fwd.top_down_edge_scans > 0);
                }
                FrontierMode::BottomUpOnly => {
                    assert_eq!(fwd.top_down_levels + bwd.top_down_levels, 0);
                    assert!(fwd.bottom_up_edge_scans > 0);
                }
                FrontierMode::DirectionOptimizing => {
                    assert_eq!(
                        fwd.total_edge_scans(),
                        fwd.top_down_edge_scans + fwd.bottom_up_edge_scans
                    );
                }
            }
            let mut acc = SearchSpaceStats::default();
            fwd.accumulate_into(&mut acc, Direction::Forward);
            bwd.accumulate_into(&mut acc, Direction::Backward);
            assert_eq!(
                acc.total_edge_scans(),
                fwd.total_edge_scans() + bwd.total_edge_scans()
            );
        }
    }

    /// Reuse across runs: a big run followed by a small one must not leak
    /// bits, records or stats between them.
    #[test]
    fn engine_reuse_is_clean() {
        let g = figure1();
        let mut engine = MsBfsEngine::<Lanes64>::new();
        let all_lanes: Vec<MsBfsLane> = (0..MAX_LANES)
            .map(|i| MsBfsLane {
                source: (i % 8) as VertexId,
                target: ((i % 8) + 1) as VertexId % 8,
                depth: 8,
            })
            .collect();
        engine.run(&g, &all_lanes);
        assert_eq!(engine.lane_count(), MAX_LANES);
        let big_retained = engine.retained_bytes();

        let mut fresh = MsBfsEngine::<Lanes64>::new();
        let small = [MsBfsLane {
            source: 0,
            target: 3,
            depth: 2,
        }];
        engine.run(&g, &small);
        fresh.run(&g, &small);
        assert_eq!(engine.lane_count(), 1);
        for dir in [Direction::Forward, Direction::Backward] {
            assert_eq!(
                lane_distances(&engine, dir, 0, 8),
                lane_distances(&fresh, dir, 0, 8),
                "reused engine must match a fresh one ({dir:?})"
            );
        }
        assert!(engine.retained_bytes() >= big_retained.min(1));
    }

    /// A 256-lane engine filled past the 64-lane capacity must agree with
    /// per-lane 64-lane runs bit for bit — the multi-word block is the same
    /// schedule with a wider payload.
    #[test]
    fn wide_blocks_match_narrow_engines_lane_for_lane() {
        let g = crate::generators::gnm_random(80, 700, 7);
        let lanes: Vec<MsBfsLane> = (0..150)
            .map(|i| MsBfsLane {
                source: (i % 80) as VertexId,
                target: ((i * 13 + 7) % 80) as VertexId,
                depth: 1 + (i % 7) as u32,
            })
            .filter(|lane| lane.source != lane.target)
            .collect();
        assert!(lanes.len() > MAX_LANES, "the point is exceeding one word");
        let mut wide = MsBfsEngine::<Lanes256>::new();
        wide.run(&g, &lanes);
        let mut narrow = MsBfsEngine::<Lanes64>::new();
        for (i, lane) in lanes.iter().enumerate() {
            narrow.run(&g, std::slice::from_ref(lane));
            for dir in [Direction::Forward, Direction::Backward] {
                assert_eq!(
                    lane_distances(&wide, dir, i, 80),
                    lane_distances(&narrow, dir, 0, 80),
                    "lane {i} {dir:?}"
                );
            }
        }
    }

    /// A budget abort at any level boundary must restore the all-zero bit
    /// invariant (the `begin` debug_assert would fire otherwise) and leave
    /// the engine bit-identical to a fresh one on the next run.
    #[test]
    fn budget_abort_restores_invariants_and_reuse() {
        fn check<B: LaneBlock>(lanes_count: usize) {
            let g = crate::generators::gnm_random(60, 600, 42);
            let lanes: Vec<MsBfsLane> = (0..lanes_count)
                .map(|i| MsBfsLane {
                    source: (i % 60) as VertexId,
                    target: ((i + 7) % 60) as VertexId,
                    depth: 1 + (i % 6) as u32,
                })
                .collect();
            let mut engine = MsBfsEngine::<B>::new();
            let mut aborted = 0;
            for limit in (0..2000u64).step_by(37) {
                let outcome = engine.run_budgeted(&g, &lanes, &QueryBudget::with_work_limit(limit));
                if outcome.is_err() {
                    assert_eq!(outcome, Err(BudgetExhausted::Work));
                    assert_eq!(engine.lane_count(), 0, "partial results are discarded");
                    aborted += 1;
                }
                // Whether aborted or not, the next full run must match a
                // fresh engine exactly.
                engine.run(&g, &lanes);
                let mut fresh = MsBfsEngine::<B>::new();
                fresh.run(&g, &lanes);
                for lane in 0..lanes.len() {
                    for dir in [Direction::Forward, Direction::Backward] {
                        assert_eq!(
                            lane_distances(&engine, dir, lane, 60),
                            lane_distances(&fresh, dir, lane, 60),
                            "limit={limit} lane={lane} {dir:?}"
                        );
                    }
                }
            }
            assert!(aborted > 0, "some ceilings must actually trip");
        }
        check::<Lanes64>(16);
        check::<Lanes256>(80);
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn too_many_lanes_panic() {
        let g = figure1();
        let lanes = vec![
            MsBfsLane {
                source: 0,
                target: 1,
                depth: 2
            };
            65
        ];
        MsBfsEngine::<Lanes64>::new().run(&g, &lanes);
    }

    #[test]
    #[should_panic(expected = "1..=256 lanes")]
    fn too_many_lanes_panic_wide() {
        let g = figure1();
        let lanes = vec![
            MsBfsLane {
                source: 0,
                target: 1,
                depth: 2
            };
            257
        ];
        MsBfsEngine::<Lanes256>::new().run(&g, &lanes);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn source_equals_target_panics() {
        let g = figure1();
        MsBfsEngine::<Lanes64>::new().run(
            &g,
            &[MsBfsLane {
                source: 2,
                target: 2,
                depth: 3,
            }],
        );
    }
}
