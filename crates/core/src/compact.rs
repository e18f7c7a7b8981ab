//! The EVE phases 1b–3 on the compacted [`SearchSpace`], in flat,
//! allocation-free buffers.
//!
//! This module is the pipeline behind every [`crate::Eve`] entry point.
//! Every container is indexed by dense local vertex id:
//!
//! * [`FlatPropagation`] — Algorithm 1 (§3.2) with the forward-looking
//!   pruning of Theorem 3.6, over per-level rows of arena handles. Level `l`
//!   inherits level `l−1` by a row copy, so `ev(l, v)` is a single O(1)
//!   array load. Essential vertex sets (Definition 3.1) are tiny sorted
//!   `u32` runs in one bump arena, referenced by packed `(offset, len)`
//!   handles — no per-set heap allocation, no clone traffic.
//! * [`FlatUpperBound`] — Algorithm 2 (§4) over the space CSR, emitting the
//!   `SPGᵘ_k` edges in sorted order with a local CSR of both directions in
//!   which every adjacency entry carries its dense edge id, plus the
//!   departure and arrival sets of §5.1 with at most `k − 2` valid
//!   neighbours each (Theorem 5.8).
//! * [`apply_search_ordering_flat`] / [`verify_flat`] — §5.3 ordering and
//!   Algorithm 3 over the flat adjacency, with the verification result kept
//!   as a bitmap over dense edge ids (the covered-by-witness test becomes a
//!   single bit probe).
//!
//! Every container is a reusable buffer owned by
//! [`crate::workspace::QueryWorkspace`]; after warm-up a query performs
//! (amortised) zero heap allocation in these phases. Local ids are assigned
//! in ascending global order, so iteration order, tie-breaking and therefore
//! every output edge set are deterministic.
//!
//! ### Deviation from the paper's pseudo-code
//!
//! Algorithm 1 as printed re-initialises `EV_l(s, y)` from the first frontier
//! in-neighbour alone (its line 7) and never intersects with `EV_{l−1}(s, y)`
//! itself. When a vertex has an in-neighbour that was reached at an earlier
//! level but is *not* part of the current frontier, that in-neighbour's
//! contribution would be lost and the computed set could become a strict
//! superset of Equation (4) — which would make Theorem 3.4 discard edges that
//! actually belong to `SPG_k`. [`FlatPropagation`] therefore additionally
//! intersects with the vertex's previous-level set, which yields exactly the
//! Equation (4) value (the module tests compare against a brute-force
//! evaluation of Definition 3.1 on enumerated simple paths, and against the
//! paper's Figure 5 table).

use spg_graph::{BudgetExhausted, Direction, QueryBudget, SearchSpace};

use crate::stats::{LabelingStats, PropagationStats, VerificationStats};

/// DFS steps accumulated locally before each budget poll during
/// verification. Keeps the poll off the per-step hot path while bounding
/// deadline overshoot to one chunk; a fixed constant so work-limited
/// cancellation stays bit-reproducible.
const DFS_BUDGET_CHUNK: u32 = 256;

/// Sentinel for "no entry" in u32 slot maps.
const NONE32: u32 = u32::MAX;

/// Sentinel arena handle meaning "no set stored".
const NONE_REF: u64 = u64::MAX;

#[inline]
fn pack(start: usize, len: usize) -> u64 {
    ((start as u64) << 32) | len as u64
}

#[inline]
fn unpack(r: u64) -> (usize, usize) {
    ((r >> 32) as usize, (r & 0xFFFF_FFFF) as usize)
}

#[inline]
fn set_slice(arena: &[u32], r: u64) -> &[u32] {
    let (start, len) = unpack(r);
    &arena[start..start + len]
}

/// Appends `{v}` to the arena.
#[inline]
fn alloc_singleton(arena: &mut Vec<u32>, v: u32) -> u64 {
    let start = arena.len();
    arena.push(v);
    pack(start, 1)
}

/// Appends `a ∪ {extra}` to the arena (both sorted).
fn alloc_with(arena: &mut Vec<u32>, a: u64, extra: u32) -> u64 {
    let (sa, la) = unpack(a);
    let start = arena.len();
    let mut inserted = false;
    for i in 0..la {
        let x = arena[sa + i];
        if !inserted && extra < x {
            arena.push(extra);
            inserted = true;
        }
        if x == extra {
            inserted = true;
        }
        arena.push(x);
    }
    if !inserted {
        arena.push(extra);
    }
    pack(start, arena.len() - start)
}

/// Appends the fused propagation operator `a ∩ (b ∪ {extra})` to the arena
/// in a single merge pass, so no temporary union is ever materialised.
fn alloc_intersect_with_added(arena: &mut Vec<u32>, a: u64, b: u64, extra: u32) -> u64 {
    let (sa, la) = unpack(a);
    let (sb, lb) = unpack(b);
    let start = arena.len();
    let mut j = 0usize;
    let mut extra_pending = true;
    for i in 0..la {
        let x = arena[sa + i];
        while j < lb && arena[sb + j] < x {
            j += 1;
        }
        let in_b = j < lb && arena[sb + j] == x;
        let is_extra = extra_pending && x == extra;
        if in_b || is_extra {
            arena.push(x);
            if is_extra {
                extra_pending = false;
            }
        }
    }
    pack(start, arena.len() - start)
}

fn refs_equal(arena: &[u32], a: u64, b: u64) -> bool {
    if a == b {
        return true;
    }
    if a == NONE_REF || b == NONE_REF {
        return false;
    }
    set_slice(arena, a) == set_slice(arena, b)
}

#[inline]
fn sorted_contains(slice: &[u32], v: u32) -> bool {
    slice.binary_search(&v).is_ok()
}

fn sorted_disjoint(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Phase 1b: essential-vertex propagation on flat per-level rows
// ---------------------------------------------------------------------------

/// Essential-vertex propagation (Algorithm 1 + Theorem 3.6 pruning) over the
/// compacted search space. Reusable across queries; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatPropagation {
    /// Bump arena holding every stored set as a sorted `u32` run.
    arena: Vec<u32>,
    /// `(top_level + 1)` rows of `row` packed handles; row `l` holds
    /// `EV_l(·)` for every local vertex (inherited entries included).
    refs: Vec<u64>,
    row: usize,
    top_level: u32,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// Per-vertex level stamp marking "already updated at the current level".
    touched: Vec<u32>,
    stats: PropagationStats,
}

impl FlatPropagation {
    /// Runs one propagation direction over `space`, reusing all buffers.
    ///
    /// Forward propagation starts at the source and prunes on `Δ(y, t)`;
    /// backward propagation starts at the target and prunes on `Δ(s, y)`.
    /// Restricting the walk to the space CSR is itself a (structural) form of
    /// the Theorem 3.6 rule: every set a downstream consumer is allowed to
    /// consult equals its Definition 3.1 value.
    #[cfg(test)]
    pub(crate) fn run(&mut self, space: &SearchSpace, dir: Direction, forward_looking: bool) {
        self.run_budgeted(space, dir, forward_looking, &QueryBudget::unlimited())
            .expect("an unlimited budget never trips")
    }

    /// [`FlatPropagation::run`] polling `budget` at every level boundary
    /// (charging the level's edge scans). On `Err` the rows built so far are
    /// torn down, so an aborted run can never be consulted and the instance
    /// is immediately reusable — every run starts by clearing all state.
    pub(crate) fn run_budgeted(
        &mut self,
        space: &SearchSpace,
        dir: Direction,
        forward_looking: bool,
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        let k = space.hop_constraint();
        self.arena.clear();
        self.refs.clear();
        self.stats = PropagationStats::default();
        self.top_level = 0;
        self.row = space.vertex_count();
        let row = self.row;
        if row == 0 {
            return Ok(());
        }
        let (origin, excluded) = match dir {
            Direction::Forward => (space.source_local(), space.target_local()),
            Direction::Backward => (space.target_local(), space.source_local()),
        };

        self.refs.resize(row, NONE_REF);
        let seed = alloc_singleton(&mut self.arena, origin);
        self.refs[origin as usize] = seed;
        self.stats.sets_stored = 1;

        self.touched.clear();
        self.touched.resize(row, 0);
        self.frontier.clear();
        self.frontier.push(origin);

        let mut charged_scans = 0usize;
        let mut outcome = Ok(());
        for l in 1..k {
            if self.frontier.is_empty() {
                break;
            }
            if let Err(e) = budget.charge((self.stats.edge_scans - charged_scans) as u64) {
                outcome = Err(e);
                break;
            }
            charged_scans = self.stats.edge_scans;
            self.stats.levels_run = l;
            self.top_level = l;
            // Row `l` starts as a copy of row `l−1`: unchanged vertices
            // inherit their previous set (Algorithm 1 line 12), which is what
            // makes `ev` a single array load.
            let prev_base = (l as usize - 1) * row;
            let cur_base = l as usize * row;
            self.refs.resize(cur_base + row, NONE_REF);
            self.refs.copy_within(prev_base..prev_base + row, cur_base);

            self.next_frontier.clear();
            for fi in 0..self.frontier.len() {
                let x = self.frontier[fi];
                let ev_x = self.refs[prev_base + x as usize];
                debug_assert!(ev_x != NONE_REF, "frontier vertex must have a set");
                for &y in space.neighbors(x, dir) {
                    self.stats.edge_scans += 1;
                    if y == origin || y == excluded {
                        continue;
                    }
                    if forward_looking && l + space.remaining_dist(y, dir) > k {
                        self.stats.pruned_visits += 1;
                        continue;
                    }
                    let slot = cur_base + y as usize;
                    if self.touched[y as usize] != l {
                        self.touched[y as usize] = l;
                        self.next_frontier.push(y);
                        let prev_y = self.refs[prev_base + y as usize];
                        self.refs[slot] = if prev_y != NONE_REF {
                            // Seed with the previous-level set of `y` itself
                            // (see the deviation note in the module docs).
                            alloc_intersect_with_added(&mut self.arena, prev_y, ev_x, y)
                        } else {
                            alloc_with(&mut self.arena, ev_x, y)
                        };
                    } else {
                        let cur = self.refs[slot];
                        self.refs[slot] = alloc_intersect_with_added(&mut self.arena, cur, ev_x, y);
                    }
                }
            }
            for &y in &self.next_frontier {
                let cur = self.refs[cur_base + y as usize];
                let prev = self.refs[prev_base + y as usize];
                if !refs_equal(&self.arena, cur, prev) {
                    self.stats.sets_stored += 1;
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }
        if outcome.is_ok() {
            outcome = budget.charge((self.stats.edge_scans - charged_scans) as u64);
        }
        if outcome.is_err() {
            // Tear down the partial rows: `ev` on an aborted run answers
            // `None` for everything instead of serving truncated sets.
            self.arena.clear();
            self.refs.clear();
            self.top_level = 0;
            self.row = 0;
        }
        outcome
    }

    /// `EV_l(origin, v)` as a sorted local-id slice, or `None` if `v` was
    /// never reached by level `l`. O(1).
    #[inline]
    pub(crate) fn ev(&self, l: u32, v: u32) -> Option<&[u32]> {
        if self.row == 0 {
            return None;
        }
        let l = l.min(self.top_level);
        let r = self.refs[l as usize * self.row + v as usize];
        if r == NONE_REF {
            None
        } else {
            Some(set_slice(&self.arena, r))
        }
    }

    /// Work counters of the last run.
    pub(crate) fn stats(&self) -> PropagationStats {
        self.stats
    }

    /// Live bytes of the last run (arena payload + level rows).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<u32>() + self.refs.len() * std::mem::size_of::<u64>()
    }

    /// Bytes of capacity retained for reuse across queries.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<u32>()
            + self.refs.capacity() * std::mem::size_of::<u64>()
            + (self.frontier.capacity() + self.next_frontier.capacity() + self.touched.capacity())
                * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// Phase 2: edge labeling / upper-bound graph on the space CSR
// ---------------------------------------------------------------------------

/// Outcome of labeling one edge: failing (label "0", Theorem 3.4),
/// undetermined (label "1") or definite (label "2", Lemmas 4.4 and 4.6),
/// with the definite edge's departure/arrival qualification (§5.1).
enum FlatLabel {
    Failing,
    Undetermined,
    Definite { departure: bool, arrival: bool },
}

/// Per-edge Algorithm 2 on local ids. `EV*_l(s, u)` exists iff
/// `Δ(s, u) ≤ l`, and `EV*_l(v, t)` iff `Δ(v, t) ≤ l`, so existence is read
/// off the space's distances.
fn label_edge(
    space: &SearchSpace,
    fwd: &FlatPropagation,
    bwd: &FlatPropagation,
    u: u32,
    v: u32,
) -> FlatLabel {
    let k = space.hop_constraint();
    let s = space.source_local();
    let t = space.target_local();

    // Edges entering s or leaving t can never lie on a simple s-t path.
    if v == s || u == t {
        return FlatLabel::Failing;
    }
    // First-hop edges (Lemma 4.4).
    if u == s {
        return if space.dist_to_t(v) < k {
            FlatLabel::Definite {
                departure: false,
                arrival: false,
            }
        } else {
            FlatLabel::Failing
        };
    }
    if v == t {
        return if space.dist_from_s(u) < k {
            FlatLabel::Definite {
                departure: false,
                arrival: false,
            }
        } else {
            FlatLabel::Failing
        };
    }

    // Second-hop edges (Lemma 4.6), evaluating both sides so an edge
    // qualifying as both records departure and arrival information.
    let mut definite = false;
    let mut departure = false;
    let mut arrival = false;
    if k >= 2 {
        if space.dist_from_s(u) <= 1 && space.dist_to_t(v) <= k - 2 {
            let ev_vt = bwd
                .ev(k - 2, v)
                .expect("EV(v,t) must be materialised when it exists"); // spg-analyze: allow(no-panic) — invariant stated in the message; checked by debug assertions
            if !sorted_contains(ev_vt, u) {
                definite = true;
                departure = true;
            }
        }
        if space.dist_to_t(v) <= 1 && space.dist_from_s(u) <= k - 2 {
            let ev_su = fwd
                .ev(k - 2, u)
                .expect("EV(s,u) must be materialised when it exists"); // spg-analyze: allow(no-panic) — invariant stated in the message; checked by debug assertions
            if !sorted_contains(ev_su, v) {
                definite = true;
                arrival = true;
            }
        }
    }
    if definite {
        return FlatLabel::Definite { departure, arrival };
    }

    // Remaining split points (Theorem 4.3).
    if k >= 5 {
        for kf in 2..=(k - 3) {
            let kb = k - kf - 1;
            if space.dist_from_s(u) > kf || space.dist_to_t(v) > kb {
                continue;
            }
            let ev_su = fwd
                .ev(kf, u)
                .expect("forward EV must exist for an in-space vertex"); // spg-analyze: allow(no-panic) — invariant stated in the message; checked by debug assertions
            let ev_vt = bwd
                .ev(kb, v)
                .expect("backward EV must exist for an in-space vertex"); // spg-analyze: allow(no-panic) — invariant stated in the message; checked by debug assertions
            if sorted_disjoint(ev_su, ev_vt) {
                return FlatLabel::Undetermined;
            }
        }
    }
    FlatLabel::Failing
}

/// The upper-bound graph `SPGᵘ_k` over local ids, with flat CSR adjacency
/// (every entry carrying its dense edge id) and stride-arena departure /
/// arrival neighbour lists. Reusable across queries.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatUpperBound {
    k: u32,
    n: usize,
    s_local: u32,
    t_local: u32,
    /// `SPGᵘ_k` edges as local `(u, v)` pairs in ascending order; the index
    /// is the dense edge id.
    edges: Vec<(u32, u32)>,
    /// Per edge id: `true` for definite (label 2), `false` for undetermined.
    is_definite: Vec<bool>,
    /// Edge ids of the undetermined edges, ascending.
    undetermined: Vec<u32>,
    out_offsets: Vec<u32>,
    /// `(target, edge id)` per out-adjacency entry.
    out_entries: Vec<(u32, u32)>,
    in_offsets: Vec<u32>,
    /// `(source, edge id)` per in-adjacency entry.
    in_entries: Vec<(u32, u32)>,
    /// Departure bookkeeping: per-vertex slot index into the stride arena.
    dep_slot: Vec<u32>,
    dep_items: Vec<u32>,
    dep_len: Vec<u32>,
    dep_verts: Vec<u32>,
    /// Arrival bookkeeping, same layout.
    arr_slot: Vec<u32>,
    arr_items: Vec<u32>,
    arr_len: Vec<u32>,
    arr_verts: Vec<u32>,
    /// `≤ k − 2` valid neighbours are retained per departure/arrival
    /// (Theorem 5.8); this is the stride of the item arenas.
    cap: usize,
    /// Degree-counting scratch for the CSR builds.
    scratch: Vec<u32>,
    stats: LabelingStats,
}

impl FlatUpperBound {
    /// Runs Algorithm 2 over every space edge and assembles the flat
    /// upper-bound graph, reusing all buffers.
    #[cfg(test)]
    pub(crate) fn build(
        &mut self,
        space: &SearchSpace,
        fwd: &FlatPropagation,
        bwd: &FlatPropagation,
    ) {
        self.build_budgeted(space, fwd, bwd, &QueryBudget::unlimited())
            .expect("an unlimited budget never trips")
    }

    /// [`FlatUpperBound::build`] polling `budget` at every vertex-row
    /// boundary (charging the row's examined edges). On `Err` the partial
    /// edge list is cleared; the instance is immediately reusable because
    /// every build starts by clearing all state.
    pub(crate) fn build_budgeted(
        &mut self,
        space: &SearchSpace,
        fwd: &FlatPropagation,
        bwd: &FlatPropagation,
        budget: &QueryBudget,
    ) -> Result<(), BudgetExhausted> {
        let n = space.vertex_count();
        self.k = space.hop_constraint();
        self.n = n;
        self.stats = LabelingStats::default();
        self.edges.clear();
        self.is_definite.clear();
        self.undetermined.clear();
        self.out_offsets.clear();
        self.out_entries.clear();
        self.in_offsets.clear();
        self.in_entries.clear();
        self.dep_slot.clear();
        self.dep_items.clear();
        self.dep_len.clear();
        self.dep_verts.clear();
        self.arr_slot.clear();
        self.arr_items.clear();
        self.arr_len.clear();
        self.arr_verts.clear();
        if n == 0 {
            self.s_local = NONE32;
            self.t_local = NONE32;
            self.out_offsets.push(0);
            self.in_offsets.push(0);
            return Ok(());
        }
        self.s_local = space.source_local();
        self.t_local = space.target_local();
        self.cap = (self.k.saturating_sub(2)).max(1) as usize;
        self.dep_slot.resize(n, NONE32);
        self.arr_slot.resize(n, NONE32);

        // Space vertices are iterated in ascending local (== global) order,
        // so the edge list comes out sorted.
        let mut charged_edges = 0usize;
        for u in 0..n as u32 {
            if let Err(e) = budget.charge((self.stats.edges_examined - charged_edges) as u64) {
                // Drop the partial edge list so an aborted build cannot be
                // mistaken for an upper-bound graph.
                self.edges.clear();
                self.is_definite.clear();
                self.undetermined.clear();
                self.out_offsets.push(0);
                self.in_offsets.push(0);
                self.n = 0;
                return Err(e);
            }
            charged_edges = self.stats.edges_examined;
            for &v in space.out_neighbors(u) {
                self.stats.edges_examined += 1;
                match label_edge(space, fwd, bwd, u, v) {
                    FlatLabel::Failing => self.stats.failing += 1,
                    FlatLabel::Undetermined => {
                        self.stats.undetermined += 1;
                        let eid = self.edges.len() as u32;
                        self.edges.push((u, v));
                        self.is_definite.push(false);
                        self.undetermined.push(eid);
                    }
                    FlatLabel::Definite { departure, arrival } => {
                        self.stats.definite += 1;
                        self.edges.push((u, v));
                        self.is_definite.push(true);
                        if departure {
                            Self::push_capped(
                                &mut self.dep_slot,
                                &mut self.dep_items,
                                &mut self.dep_len,
                                &mut self.dep_verts,
                                self.cap,
                                v,
                                u,
                            );
                        }
                        if arrival {
                            Self::push_capped(
                                &mut self.arr_slot,
                                &mut self.arr_items,
                                &mut self.arr_len,
                                &mut self.arr_verts,
                                self.cap,
                                u,
                                v,
                            );
                        }
                    }
                }
            }
        }
        budget
            .charge((self.stats.edges_examined - charged_edges) as u64)
            .map_err(|e| {
                self.edges.clear();
                self.is_definite.clear();
                self.undetermined.clear();
                self.out_offsets.push(0);
                self.in_offsets.push(0);
                self.n = 0;
                e
            })?;
        self.build_adjacency();
        Ok(())
    }

    /// Records `item` as a valid neighbour of `vertex`, allocating the
    /// vertex's stride slot on first touch and respecting the `cap` bound.
    fn push_capped(
        slot_map: &mut [u32],
        items: &mut Vec<u32>,
        lens: &mut Vec<u32>,
        verts: &mut Vec<u32>,
        cap: usize,
        vertex: u32,
        item: u32,
    ) {
        let mut slot = slot_map[vertex as usize];
        if slot == NONE32 {
            slot = lens.len() as u32;
            slot_map[vertex as usize] = slot;
            lens.push(0);
            items.resize(items.len() + cap, 0);
            verts.push(vertex);
        }
        let len = lens[slot as usize] as usize;
        let base = slot as usize * cap;
        if len < cap && !items[base..base + len].contains(&item) {
            items[base + len] = item;
            lens[slot as usize] += 1;
        }
    }

    /// Builds both CSR directions from the sorted edge list.
    fn build_adjacency(&mut self) {
        let n = self.n;
        let m = self.edges.len();
        // Out: the edge list is already grouped by `u` in ascending order.
        self.scratch.clear();
        self.scratch.resize(n + 1, 0);
        for &(u, _) in &self.edges {
            self.scratch[u as usize + 1] += 1;
        }
        self.out_offsets.reserve(n + 1);
        let mut acc = 0u32;
        for d in self.scratch.iter() {
            acc += d;
            self.out_offsets.push(acc);
        }
        self.out_entries.reserve(m);
        for (eid, &(_, v)) in self.edges.iter().enumerate() {
            self.out_entries.push((v, eid as u32));
        }
        // In: count, prefix-sum, scatter (per-vertex sources stay ascending
        // because edge ids are scanned in ascending (u, v) order).
        self.scratch.clear();
        self.scratch.resize(n + 1, 0);
        for &(_, v) in &self.edges {
            self.scratch[v as usize + 1] += 1;
        }
        self.in_offsets.reserve(n + 1);
        let mut acc = 0u32;
        for d in self.scratch.iter() {
            acc += d;
            self.in_offsets.push(acc);
        }
        self.in_entries.resize(m, (0, 0));
        // Reuse the scratch as per-vertex write cursors.
        self.scratch.truncate(n);
        self.scratch.copy_from_slice(&self.in_offsets[..n]);
        for (eid, &(u, v)) in self.edges.iter().enumerate() {
            let pos = self.scratch[v as usize] as usize;
            self.in_entries[pos] = (u, eid as u32);
            self.scratch[v as usize] += 1;
        }
    }

    /// Number of local vertices the adjacency covers.
    #[inline]
    pub(crate) fn vertex_count(&self) -> usize {
        self.n
    }

    /// Hop constraint of the query.
    #[inline]
    pub(crate) fn hop_constraint(&self) -> u32 {
        self.k
    }

    /// Local id of the query source.
    #[inline]
    pub(crate) fn source_local(&self) -> u32 {
        self.s_local
    }

    /// Local id of the query target.
    #[inline]
    pub(crate) fn target_local(&self) -> u32 {
        self.t_local
    }

    /// Number of `SPGᵘ_k` edges.
    #[inline]
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The `SPGᵘ_k` edges as local pairs, ascending; index = edge id.
    #[inline]
    pub(crate) fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Per-edge definite flags (the initial verification result bitmap).
    #[inline]
    pub(crate) fn definite_bits(&self) -> &[bool] {
        &self.is_definite
    }

    /// Edge ids of the undetermined edges, ascending.
    #[inline]
    pub(crate) fn undetermined_eids(&self) -> &[u32] {
        &self.undetermined
    }

    /// Out-adjacency entries `(target, edge id)` of local vertex `v`.
    #[inline]
    pub(crate) fn out_entries_of(&self, v: u32) -> &[(u32, u32)] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_entries[lo..hi]
    }

    /// In-adjacency entries `(source, edge id)` of local vertex `v`.
    #[inline]
    pub(crate) fn in_entries_of(&self, v: u32) -> &[(u32, u32)] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_entries[lo..hi]
    }

    /// `true` if `v` is a departure vertex.
    #[inline]
    pub(crate) fn is_departure(&self, v: u32) -> bool {
        self.dep_slot[v as usize] != NONE32
    }

    /// `true` if `v` is an arrival vertex.
    #[inline]
    pub(crate) fn is_arrival(&self, v: u32) -> bool {
        self.arr_slot[v as usize] != NONE32
    }

    /// Valid in-neighbours `In_D(v)` of a departure (≤ k−2 entries).
    #[inline]
    pub(crate) fn in_d(&self, v: u32) -> &[u32] {
        let slot = self.dep_slot[v as usize];
        if slot == NONE32 {
            return &[];
        }
        let base = slot as usize * self.cap;
        &self.dep_items[base..base + self.dep_len[slot as usize] as usize]
    }

    /// Valid out-neighbours `Out_A(v)` of an arrival (≤ k−2 entries).
    #[inline]
    pub(crate) fn out_a(&self, v: u32) -> &[u32] {
        let slot = self.arr_slot[v as usize];
        if slot == NONE32 {
            return &[];
        }
        let base = slot as usize * self.cap;
        &self.arr_items[base..base + self.arr_len[slot as usize] as usize]
    }

    /// The departure vertex set `D` (discovery order).
    #[inline]
    pub(crate) fn departure_verts(&self) -> &[u32] {
        &self.dep_verts
    }

    /// The arrival vertex set `A` (discovery order).
    #[inline]
    pub(crate) fn arrival_verts(&self) -> &[u32] {
        &self.arr_verts
    }

    /// Labeling counters.
    pub(crate) fn stats(&self) -> LabelingStats {
        self.stats
    }

    /// Live bytes of the last build.
    pub(crate) fn memory_bytes(&self) -> usize {
        let w = std::mem::size_of::<u32>();
        self.edges.len() * std::mem::size_of::<(u32, u32)>()
            + self.is_definite.len()
            + (self.undetermined.len()
                + self.out_offsets.len()
                + self.in_offsets.len()
                + self.dep_slot.len()
                + self.arr_slot.len()
                + self.dep_items.len()
                + self.arr_items.len()
                + self.dep_len.len()
                + self.arr_len.len()
                + self.dep_verts.len()
                + self.arr_verts.len())
                * w
            + (self.out_entries.len() + self.in_entries.len()) * std::mem::size_of::<(u32, u32)>()
    }

    /// Bytes of capacity retained for reuse across queries.
    pub(crate) fn retained_bytes(&self) -> usize {
        let w = std::mem::size_of::<u32>();
        self.edges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.is_definite.capacity()
            + (self.undetermined.capacity()
                + self.out_offsets.capacity()
                + self.in_offsets.capacity()
                + self.dep_slot.capacity()
                + self.arr_slot.capacity()
                + self.dep_items.capacity()
                + self.arr_items.capacity()
                + self.dep_len.capacity()
                + self.arr_len.capacity()
                + self.dep_verts.capacity()
                + self.arr_verts.capacity()
                + self.scratch.capacity())
                * w
            + (self.out_entries.capacity() + self.in_entries.capacity())
                * std::mem::size_of::<(u32, u32)>()
    }
}

// ---------------------------------------------------------------------------
// Phase 3a: §5.3 search ordering on the flat adjacency
// ---------------------------------------------------------------------------

/// Reusable buffers for [`apply_search_ordering_flat`].
#[derive(Debug, Clone, Default)]
pub(crate) struct OrderScratch {
    dist_to_arrival: Vec<u32>,
    dist_from_departure: Vec<u32>,
    queue: Vec<u32>,
}

impl OrderScratch {
    /// Bytes of capacity retained for reuse across queries.
    pub(crate) fn retained_bytes(&self) -> usize {
        (self.dist_to_arrival.capacity()
            + self.dist_from_departure.capacity()
            + self.queue.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// Multi-source BFS over one adjacency direction of the flat upper bound;
/// `dist` must be pre-filled with `u32::MAX`.
fn multi_source_bfs_flat<'a, F>(dist: &mut [u32], queue: &mut Vec<u32>, sources: &[u32], entries: F)
where
    F: Fn(u32) -> &'a [(u32, u32)],
{
    queue.clear();
    for &s in sources {
        if dist[s as usize] == u32::MAX {
            dist[s as usize] = 0;
            queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        for &(v, _) in entries(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
}

/// Applies the §5.3 search-ordering strategy to the flat adjacency lists:
/// out-neighbours by ascending distance to the closest arrival, ties broken
/// by larger `|Out_A|` first; in-neighbours by ascending distance from the
/// closest departure, ties broken by larger `|In_D|` first. Remaining ties
/// break on local id, which preserves global-id order.
pub(crate) fn apply_search_ordering_flat(ub: &mut FlatUpperBound, scratch: &mut OrderScratch) {
    let n = ub.vertex_count();
    scratch.dist_to_arrival.clear();
    scratch.dist_to_arrival.resize(n, u32::MAX);
    scratch.dist_from_departure.clear();
    scratch.dist_from_departure.resize(n, u32::MAX);
    {
        let ubr: &FlatUpperBound = ub;
        multi_source_bfs_flat(
            &mut scratch.dist_to_arrival,
            &mut scratch.queue,
            ubr.arrival_verts(),
            |v| ubr.in_entries_of(v),
        );
        multi_source_bfs_flat(
            &mut scratch.dist_from_departure,
            &mut scratch.queue,
            ubr.departure_verts(),
            |v| ubr.out_entries_of(v),
        );
    }

    let FlatUpperBound {
        out_offsets,
        out_entries,
        in_offsets,
        in_entries,
        dep_slot,
        dep_len,
        arr_slot,
        arr_len,
        ..
    } = ub;
    for w in out_offsets.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        out_entries[lo..hi].sort_by_key(|&(v, _)| {
            let fanout = if arr_slot[v as usize] == NONE32 {
                0
            } else {
                arr_len[arr_slot[v as usize] as usize] as usize
            };
            (scratch.dist_to_arrival[v as usize], usize::MAX - fanout, v)
        });
    }
    for w in in_offsets.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        in_entries[lo..hi].sort_by_key(|&(v, _)| {
            let fanin = if dep_slot[v as usize] == NONE32 {
                0
            } else {
                dep_len[dep_slot[v as usize] as usize] as usize
            };
            (
                scratch.dist_from_departure[v as usize],
                usize::MAX - fanin,
                v,
            )
        });
    }
}

// ---------------------------------------------------------------------------
// Phase 3b: verification on the flat adjacency
// ---------------------------------------------------------------------------

/// Reusable buffers for [`verify_flat`]. `result` doubles as the output: one
/// bit per dense edge id of the upper-bound graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct VerifyScratch {
    result: Vec<bool>,
    stack_vertices: Vec<u32>,
    stack_eids: Vec<u32>,
}

impl VerifyScratch {
    /// Per-edge-id inclusion bitmap of the final `SPG_k` (valid after
    /// [`verify_flat`]).
    pub(crate) fn result(&self) -> &[bool] {
        &self.result
    }

    /// Bytes of capacity retained for reuse across queries.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.result.capacity()
            + (self.stack_vertices.capacity() + self.stack_eids.capacity())
                * std::mem::size_of::<u32>()
    }
}

/// Verifies every undetermined edge (Algorithm 3) over the flat upper bound.
/// After the call, `scratch.result()[eid]` tells whether edge `eid` belongs
/// to `SPG_k`. A witness found for one edge confirms every edge on it.
#[cfg(test)]
pub(crate) fn verify_flat(ub: &FlatUpperBound, scratch: &mut VerifyScratch) -> VerificationStats {
    verify_flat_budgeted(ub, scratch, &QueryBudget::unlimited())
        .expect("an unlimited budget never trips")
}

/// [`verify_flat`] polling `budget` before every undetermined edge and every
/// [`DFS_BUDGET_CHUNK`] DFS steps (charging one unit per step). On `Err` the
/// result bitmap is cleared so an aborted verification cannot be read as an
/// answer; every run rebuilds the bitmap from scratch, so reuse is safe.
pub(crate) fn verify_flat_budgeted(
    ub: &FlatUpperBound,
    scratch: &mut VerifyScratch,
    budget: &QueryBudget,
) -> Result<VerificationStats, BudgetExhausted> {
    scratch.result.clear();
    scratch.result.extend_from_slice(ub.definite_bits());
    let mut stats = VerificationStats::default();

    if ub.hop_constraint() >= 5 {
        let VerifyScratch {
            result,
            stack_vertices,
            stack_eids,
        } = scratch;
        stack_vertices.clear();
        stack_eids.clear();
        let mut verifier = FlatVerifier {
            ub,
            k: ub.hop_constraint(),
            result,
            stack_vertices,
            stack_eids,
            dfs_steps: 0,
            budget,
            pending_steps: 0,
        };
        let mut outcome = Ok(());
        for &eid in ub.undetermined_eids() {
            if verifier.result[eid as usize] {
                stats.covered_by_witness += 1;
                stats.confirmed += 1;
                continue;
            }
            if let Err(e) = verifier.flush_pending() {
                outcome = Err(e);
                break;
            }
            stats.searches += 1;
            let (u, v) = ub.edges()[eid as usize];
            match verifier.verify_edge(eid, u, v) {
                Ok(true) => stats.confirmed += 1,
                Ok(false) => stats.rejected += 1,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        if outcome.is_ok() {
            outcome = verifier.flush_pending();
        }
        stats.dfs_steps = verifier.dfs_steps;
        if let Err(e) = outcome {
            scratch.result.clear();
            return Err(e);
        }
    } else {
        // Theorem 4.8: k ≤ 4 means no undetermined edges can exist.
        debug_assert!(ub.undetermined_eids().is_empty());
    }
    Ok(stats)
}

struct FlatVerifier<'a> {
    ub: &'a FlatUpperBound,
    k: u32,
    result: &'a mut Vec<bool>,
    stack_vertices: &'a mut Vec<u32>,
    stack_eids: &'a mut Vec<u32>,
    dfs_steps: usize,
    budget: &'a QueryBudget,
    /// Steps taken since the last budget poll (≤ [`DFS_BUDGET_CHUNK`]).
    pending_steps: u32,
}

impl FlatVerifier<'_> {
    /// Accounts one DFS step, polling the budget every
    /// [`DFS_BUDGET_CHUNK`] steps so the poll stays off the per-step path.
    #[inline]
    fn step(&mut self) -> Result<(), BudgetExhausted> {
        self.dfs_steps += 1;
        self.pending_steps += 1;
        if self.pending_steps >= DFS_BUDGET_CHUNK {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Charges the locally accumulated steps to the budget.
    fn flush_pending(&mut self) -> Result<(), BudgetExhausted> {
        let pending = std::mem::take(&mut self.pending_steps);
        self.budget.charge(pending as u64)
    }

    /// Tries to find a witness for undetermined edge `eid = (u, v)`; if
    /// found, every edge id on the stack is switched on in the result bitmap.
    fn verify_edge(&mut self, eid: u32, u: u32, v: u32) -> Result<bool, BudgetExhausted> {
        self.stack_vertices.clear();
        self.stack_eids.clear();
        self.stack_vertices.extend_from_slice(&[
            u,
            v,
            self.ub.source_local(),
            self.ub.target_local(),
        ]);
        self.stack_eids.push(eid);
        let confirmed = self.forward(v, 1, u)?;
        if confirmed {
            debug_assert!(self.result[eid as usize]);
        }
        Ok(confirmed)
    }

    /// Grows the path forwards from `cur` towards an arrival vertex.
    fn forward(&mut self, cur: u32, len: u32, u: u32) -> Result<bool, BudgetExhausted> {
        self.step()?;
        if self.ub.is_arrival(cur) && self.backward(u, len, cur)? {
            return Ok(true);
        }
        if len < self.k - 4 {
            let ub = self.ub;
            for &(nxt, eid) in ub.out_entries_of(cur) {
                if self.stack_vertices.contains(&nxt) {
                    continue;
                }
                self.stack_vertices.push(nxt);
                self.stack_eids.push(eid);
                if self.forward(nxt, len + 1, u)? {
                    return Ok(true);
                }
                self.stack_vertices.pop();
                self.stack_eids.pop();
            }
        }
        Ok(false)
    }

    /// Grows the path backwards from `cur` towards a departure vertex.
    fn backward(&mut self, cur: u32, len: u32, arrival: u32) -> Result<bool, BudgetExhausted> {
        self.step()?;
        if self.ub.is_departure(cur) && self.try_add_edges(cur, arrival) {
            return Ok(true);
        }
        if len < self.k - 4 {
            let ub = self.ub;
            for &(nxt, eid) in ub.in_entries_of(cur) {
                if self.stack_vertices.contains(&nxt) {
                    continue;
                }
                self.stack_vertices.push(nxt);
                self.stack_eids.push(eid);
                if self.backward(nxt, len + 1, arrival)? {
                    return Ok(true);
                }
                self.stack_vertices.pop();
                self.stack_eids.pop();
            }
        }
        Ok(false)
    }

    /// Final check of Theorem 5.6 condition (2), allocation-free: count the
    /// valid neighbours not on the stack and remember the first of each side.
    fn try_add_edges(&mut self, departure: u32, arrival: u32) -> bool {
        let mut in_first = NONE32;
        let mut in_count = 0usize;
        for &x in self.ub.in_d(departure) {
            if !self.stack_vertices.contains(&x) {
                if in_count == 0 {
                    in_first = x;
                }
                in_count += 1;
            }
        }
        if in_count == 0 {
            return false;
        }
        let mut out_first = NONE32;
        let mut out_count = 0usize;
        for &y in self.ub.out_a(arrival) {
            if !self.stack_vertices.contains(&y) {
                if out_count == 0 {
                    out_first = y;
                }
                out_count += 1;
            }
        }
        if out_count == 0 {
            return false;
        }
        let pair_exists = in_count > 1 || out_count > 1 || in_first != out_first;
        if !pair_exists {
            return false;
        }
        for &eid in self.stack_eids.iter() {
            self.result[eid as usize] = true;
        }
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::paper_example::{self, names::*};
    use crate::query::Query;
    use spg_graph::{DiGraph, DistanceStrategy, FlatDistances, SpaceScratch, VertexId};

    /// The compacted search space of `q`, built as the pipeline builds it.
    fn space_for(g: &DiGraph, q: Query) -> SearchSpace {
        let mut dist = FlatDistances::new();
        dist.compute(
            g,
            q.source,
            q.target,
            q.k,
            DistanceStrategy::AdaptiveBidirectional,
        );
        let mut space = SearchSpace::new();
        space.rebuild_from_flat(g, &dist, &mut SpaceScratch::new());
        space
    }

    /// Phases 1 and 2 of one query on fresh buffers.
    struct Phases {
        space: SearchSpace,
        fwd: FlatPropagation,
        bwd: FlatPropagation,
        ub: FlatUpperBound,
    }

    fn phases(g: &DiGraph, q: Query, pruning: bool) -> Phases {
        let space = space_for(g, q);
        let mut fwd = FlatPropagation::default();
        let mut bwd = FlatPropagation::default();
        fwd.run(&space, Direction::Forward, pruning);
        bwd.run(&space, Direction::Backward, pruning);
        let mut ub = FlatUpperBound::default();
        ub.build(&space, &fwd, &bwd);
        Phases {
            space,
            fwd,
            bwd,
            ub,
        }
    }

    /// The upper-bound edges with ids in `eids`, as global pairs.
    fn global_edges(p: &Phases, eids: impl IntoIterator<Item = u32>) -> Vec<(VertexId, VertexId)> {
        eids.into_iter()
            .map(|eid| {
                let (u, v) = p.ub.edges()[eid as usize];
                (p.space.global(u), p.space.global(v))
            })
            .collect()
    }

    /// Every upper-bound edge whose bit is set in `bits`, as global pairs.
    fn edges_with(p: &Phases, bits: &[bool]) -> Vec<(VertexId, VertexId)> {
        global_edges(
            p,
            (0..p.ub.edge_count() as u32).filter(|&eid| bits[eid as usize]),
        )
    }

    /// `EV_l` of global vertex `v` as sorted global ids; `None` if `v` has
    /// no set at level `l` or lies outside the space.
    fn ev(p: &FlatPropagation, space: &SearchSpace, l: u32, v: VertexId) -> Option<Vec<VertexId>> {
        let local = space.local_of(v)?;
        p.ev(l, local)
            .map(|set| set.iter().map(|&x| space.global(x)).collect())
    }

    fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
        v.sort_unstable();
        v
    }

    /// Every simple path from the top of `stack` to `goal` within `budget`
    /// more hops, never entering `excluded`.
    fn collect_paths(
        g: &DiGraph,
        goal: VertexId,
        excluded: VertexId,
        budget: u32,
        stack: &mut Vec<VertexId>,
        out: &mut Vec<Vec<VertexId>>,
    ) {
        let cur = *stack.last().unwrap();
        if cur == goal {
            out.push(stack.clone());
            return;
        }
        if budget == 0 {
            return;
        }
        for &nxt in g.out_neighbors(cur) {
            if nxt == excluded || stack.contains(&nxt) {
                continue;
            }
            stack.push(nxt);
            collect_paths(g, goal, excluded, budget - 1, stack, out);
            stack.pop();
        }
    }

    /// Definition 3.1 evaluated literally: the intersection of the vertex
    /// sets of every simple `s → v` path of length ≤ `l` that avoids `t`.
    fn brute_force_ev(
        g: &DiGraph,
        s: VertexId,
        v: VertexId,
        t: VertexId,
        l: u32,
    ) -> Option<Vec<VertexId>> {
        let mut paths = Vec::new();
        collect_paths(g, v, t, l, &mut vec![s], &mut paths);
        paths
            .into_iter()
            .map(sorted)
            .reduce(|acc, p| acc.into_iter().filter(|x| p.contains(x)).collect())
    }

    /// `SPG_k(s, t)` by exhaustive DFS: the union of the edges of every
    /// simple `s → t` path of length ≤ `k`, sorted.
    pub(crate) fn brute_force_spg(
        g: &DiGraph,
        s: VertexId,
        t: VertexId,
        k: u32,
    ) -> Vec<(VertexId, VertexId)> {
        let mut paths = Vec::new();
        collect_paths(g, t, s, k, &mut vec![s], &mut paths);
        let mut edges: Vec<(VertexId, VertexId)> = paths
            .iter()
            .flat_map(|p| p.windows(2).map(|w| (w[0], w[1])))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Figure 5(a): forward essential vertices of the running example (the
    /// entries the paper reports as computed), with pruning off and on.
    #[test]
    fn figure5a_forward_essential_vertices() {
        let g = paper_example::figure1_graph();
        for pruning in [false, true] {
            let Phases { space, fwd: p, .. } = phases(&g, Query::new(S, T, 8), pruning);
            // l = 1
            assert_eq!(ev(&p, &space, 1, A), Some(sorted(vec![S, A])));
            assert_eq!(ev(&p, &space, 1, C), Some(sorted(vec![S, C])));
            assert_eq!(ev(&p, &space, 1, B), None);
            assert_eq!(ev(&p, &space, 1, J), None);
            // l = 2
            assert_eq!(ev(&p, &space, 2, B), Some(sorted(vec![S, C, B])));
            assert_eq!(ev(&p, &space, 2, H), Some(sorted(vec![S, A, H])));
            assert_eq!(ev(&p, &space, 2, I), Some(sorted(vec![S, A, I])));
            assert_eq!(ev(&p, &space, 2, A), Some(sorted(vec![S, A])));
            // l = 3
            assert_eq!(ev(&p, &space, 3, B), Some(sorted(vec![S, B])));
            assert_eq!(ev(&p, &space, 3, J), Some(sorted(vec![S, J])));
            assert_eq!(ev(&p, &space, 3, H), Some(sorted(vec![S, A, H])));
            // l = 4
            assert_eq!(ev(&p, &space, 4, H), Some(sorted(vec![S, H])));
            assert_eq!(ev(&p, &space, 4, C), Some(sorted(vec![S, C])));
            assert_eq!(ev(&p, &space, 4, B), Some(sorted(vec![S, B])));
        }
    }

    /// Figure 5(b): backward essential vertices of the running example, with
    /// pruning off and on.
    #[test]
    fn figure5b_backward_essential_vertices() {
        let g = paper_example::figure1_graph();
        for pruning in [false, true] {
            let Phases { space, bwd: p, .. } = phases(&g, Query::new(S, T, 8), pruning);
            // l = 1
            assert_eq!(ev(&p, &space, 1, B), Some(sorted(vec![B, T])));
            assert_eq!(ev(&p, &space, 1, C), Some(sorted(vec![C, T])));
            assert_eq!(ev(&p, &space, 1, A), None);
            // l = 2
            assert_eq!(ev(&p, &space, 2, A), Some(sorted(vec![A, C, T])));
            assert_eq!(ev(&p, &space, 2, H), Some(sorted(vec![H, B, T])));
            assert_eq!(ev(&p, &space, 2, I), None);
            // l = 3
            assert_eq!(ev(&p, &space, 3, A), Some(sorted(vec![A, T])));
            assert_eq!(ev(&p, &space, 3, J), Some(sorted(vec![J, H, B, T])));
            // l = 4
            assert_eq!(ev(&p, &space, 4, I), Some(sorted(vec![I, J, H, B, T])));
            assert_eq!(ev(&p, &space, 4, H), Some(sorted(vec![H, B, T])));
        }
    }

    /// Example 3.2 of the paper: EV*_2(s,b) = {s,c,b} and EV*_3(s,b) = {s,b}.
    #[test]
    fn example_3_2_matches() {
        let g = paper_example::figure1_graph();
        let Phases { space, fwd, .. } = phases(&g, Query::new(S, T, 6), false);
        assert_eq!(ev(&fwd, &space, 2, B), Some(sorted(vec![S, C, B])));
        assert_eq!(ev(&fwd, &space, 3, B), Some(sorted(vec![S, B])));
    }

    /// Example 3.7: with k = 7, Δ(i, t) = 4, so the pruned propagation skips
    /// every visit of i past level 3 and EV_6(s, i) stays {s, a, i}.
    #[test]
    fn example_3_7_pruning_skips_vertex_i() {
        let g = paper_example::figure1_graph();
        let Phases { space, fwd, .. } = phases(&g, Query::new(S, T, 7), true);
        assert_eq!(space.dist_to_t(space.local_of(I).unwrap()), 4);
        assert_eq!(ev(&fwd, &space, 6, I), Some(sorted(vec![S, A, I])));
        assert!(fwd.stats().pruned_visits > 0);
    }

    /// Essential vertex sets shrink (or stay equal) as the level grows.
    #[test]
    fn levels_are_monotonically_shrinking() {
        let g = paper_example::figure1_graph();
        let q = Query::new(S, T, 8);
        let Phases {
            space, fwd, bwd, ..
        } = phases(&g, q, false);
        for p in [&fwd, &bwd] {
            for v in g.vertices() {
                for l in 1..q.k {
                    if let (Some(prev), Some(curr)) = (ev(p, &space, l - 1, v), ev(p, &space, l, v))
                    {
                        assert!(
                            curr.iter().all(|x| prev.contains(x)),
                            "EV_{l}({v}) = {curr:?} must be ⊆ EV_{}({v}) = {prev:?}",
                            l - 1
                        );
                    }
                }
            }
        }
    }

    /// No forward set contains t and no backward set contains s, at any
    /// level.
    #[test]
    fn excluded_endpoint_is_never_part_of_a_set() {
        let g = paper_example::figure1_graph();
        let q = Query::new(S, T, 8);
        let Phases {
            space, fwd, bwd, ..
        } = phases(&g, q, false);
        for (p, excluded) in [(&fwd, T), (&bwd, S)] {
            for v in g.vertices() {
                for l in 0..q.k {
                    if let Some(set) = ev(p, &space, l, v) {
                        assert!(!set.contains(&excluded), "EV_{l}({v}) = {set:?}");
                    }
                }
            }
        }
    }

    /// Forward-looking pruning changes no set that labeling may still
    /// consult: wherever `l` plus the remaining distance is at most k, the
    /// pruned and unpruned runs agree, in both directions.
    #[test]
    fn pruning_preserves_relevant_sets() {
        let g = paper_example::figure1_graph();
        for k in 4..=8u32 {
            let space = space_for(&g, Query::new(S, T, k));
            for dir in [Direction::Forward, Direction::Backward] {
                let mut full = FlatPropagation::default();
                let mut pruned = FlatPropagation::default();
                full.run(&space, dir, false);
                pruned.run(&space, dir, true);
                for v in 0..space.vertex_count() as u32 {
                    for l in (1..k).filter(|&l| l + space.remaining_dist(v, dir) <= k) {
                        assert_eq!(full.ev(l, v), pruned.ev(l, v), "k={k} {dir:?} l={l} v={v}");
                    }
                }
            }
        }
    }

    /// Both directions report their work and memory, and level 0 holds
    /// only the origin.
    #[test]
    fn stats_and_memory_are_reported() {
        let g = paper_example::figure1_graph();
        let Phases {
            space, fwd, bwd, ..
        } = phases(&g, Query::new(S, T, 6), true);
        for (p, origin) in [(&fwd, S), (&bwd, T)] {
            assert_eq!(ev(p, &space, 0, origin), Some(vec![origin]));
            assert!(p.stats().edge_scans > 0);
            assert!(p.stats().sets_stored > 1);
            assert!((1..6).contains(&p.stats().levels_run));
            assert!(p.memory_bytes() > 0);
            assert!(p.retained_bytes() >= p.memory_bytes());
        }
    }

    /// On Figure 1 at every k, the pruned forward run holds the
    /// Definition 3.1 value in every set labeling may consult
    /// (`l + Δ(v,t) ≤ k`, Theorem 3.6), the endpoints' included.
    #[test]
    fn flat_propagation_matches_definition_on_consultable_sets() {
        let g = paper_example::figure1_graph();
        for k in 2..=8u32 {
            let Phases { space, fwd, .. } = phases(&g, Query::new(S, T, k), true);
            for local in 0..space.vertex_count() as u32 {
                let v = space.global(local);
                for l in (1..k).filter(|&l| l + space.dist_to_t(local) <= k) {
                    assert_eq!(
                        ev(&fwd, &space, l, v),
                        brute_force_ev(&g, S, v, T, l),
                        "k={k} l={l} v={v}"
                    );
                }
            }
        }
    }

    /// Brute-force check of Theorem 3.5 / Definition 3.1: with pruning off
    /// and on, every set the labeling phase may consult (`l + Δ(v,t) ≤ k`,
    /// Theorem 3.6) equals the intersection of the vertex sets of all
    /// enumerated simple paths that avoid `t`.
    #[test]
    fn propagation_matches_bruteforce_definition_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2023);
        let mut checked = 0usize;
        for case in 0..25 {
            let n: usize = rng.gen_range(5..11);
            let m = rng.gen_range(n..(n * (n - 1)).min(3 * n));
            let g = spg_graph::generators::gnm_random(n, m, 100 + case);
            let s = 0u32;
            let t = (n as u32) - 1;
            let k = rng.gen_range(3..7) as u32;
            for pruning in [false, true] {
                let Phases { space, fwd, .. } = phases(&g, Query::new(s, t, k), pruning);
                for local in 0..space.vertex_count() as u32 {
                    let v = space.global(local);
                    if v == s || v == t {
                        continue;
                    }
                    for l in (1..k).filter(|&l| l + space.dist_to_t(local) <= k) {
                        assert_eq!(
                            ev(&fwd, &space, l, v),
                            brute_force_ev(&g, s, v, t, l),
                            "case {case} pruning={pruning}: EV_{l}(s,{v})"
                        );
                        checked += 1;
                    }
                }
                if !space.is_empty() {
                    assert!(fwd.stats().edge_scans > 0);
                    assert!(fwd.memory_bytes() > 0);
                    assert!(fwd.retained_bytes() >= fwd.memory_bytes());
                }
            }
        }
        assert!(checked > 200, "only {checked} sets checked");
    }

    /// Appends the sorted run `items` to the arena.
    fn alloc_run(arena: &mut Vec<u32>, items: &[u32]) -> u64 {
        let start = arena.len();
        arena.extend_from_slice(items);
        pack(start, items.len())
    }

    /// Arena set operators match the set algebra on plain sorted vectors,
    /// over random runs drawn from `0..12`.
    #[test]
    fn arena_operators_match_evset() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let run = |rng: &mut StdRng| {
            let mut v: Vec<u32> = (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..12))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for _ in 0..200 {
            let (a, b, extra) = (run(&mut rng), run(&mut rng), rng.gen_range(0..12));
            let mut arena = Vec::new();
            let (ra, rb) = (alloc_run(&mut arena, &a), alloc_run(&mut arena, &b));
            let fused = alloc_intersect_with_added(&mut arena, ra, rb, extra);
            let expected: Vec<u32> = a
                .iter()
                .copied()
                .filter(|x| b.contains(x) || *x == extra)
                .collect();
            assert_eq!(set_slice(&arena, fused), expected.as_slice());

            let with = alloc_with(&mut arena, ra, extra);
            let mut expected = a.clone();
            expected.push(extra);
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(set_slice(&arena, with), expected.as_slice());

            assert_eq!(sorted_contains(&a, extra), a.contains(&extra));
            assert_eq!(sorted_disjoint(&a, &b), !a.iter().any(|x| b.contains(x)));
            assert_eq!(refs_equal(&arena, ra, rb), a == b);
        }
        let mut arena = Vec::new();
        let s = alloc_singleton(&mut arena, 7);
        assert_eq!(set_slice(&arena, s), &[7]);
        assert!(refs_equal(&arena, s, s));
        assert!(!refs_equal(&arena, s, NONE_REF));
    }

    /// Membership, and `∪ {v}` that inserts in order, never duplicates and
    /// leaves its source run as it was.
    #[test]
    fn arena_membership_and_insert() {
        let mut arena = Vec::new();
        let s = alloc_run(&mut arena, &[2, 4]);
        assert!(sorted_contains(set_slice(&arena, s), 2));
        assert!(!sorted_contains(set_slice(&arena, s), 3));
        let once = alloc_with(&mut arena, s, 3);
        let twice = alloc_with(&mut arena, once, 3);
        assert_eq!(set_slice(&arena, twice), &[2, 3, 4]);
        let front = alloc_with(&mut arena, twice, 0);
        assert_eq!(set_slice(&arena, front), &[0, 2, 3, 4]);
        let back = alloc_with(&mut arena, s, 9);
        assert_eq!(set_slice(&arena, back), &[2, 4, 9]);
        assert_eq!(set_slice(&arena, s), &[2, 4], "∪ must not touch its source");
    }

    /// Disjointness of sorted runs, empty runs included.
    #[test]
    fn sorted_runs_disjointness() {
        assert!(sorted_disjoint(&[1, 3], &[2, 4]));
        assert!(!sorted_disjoint(&[1, 3], &[3, 4]));
        assert!(!sorted_disjoint(&[0, 9], &[9]));
        assert!(sorted_disjoint(&[], &[1]));
        assert!(sorted_disjoint(&[5], &[]));
    }

    /// The fused `a ∩ (b ∪ {y})` equals the arena's own `b ∪ {y}` followed
    /// by a plain intersection with `a`.
    #[test]
    fn fused_operator_matches_naive_union_then_intersect() {
        let cases: [(&[u32], &[u32], u32); 6] = [
            (&[0, 2, 5, 9], &[2, 9], 5),
            (&[0, 2, 5, 9], &[], 5),
            (&[], &[1, 2], 3),
            (&[1, 2, 3], &[1, 2, 3], 0),
            (&[4, 6, 8], &[1, 3, 5], 8),
            (&[4, 6, 8], &[1, 3, 5], 0),
        ];
        for (a, b, extra) in cases {
            let mut arena = Vec::new();
            let (ra, rb) = (alloc_run(&mut arena, a), alloc_run(&mut arena, b));
            let fused = alloc_intersect_with_added(&mut arena, ra, rb, extra);
            let union = alloc_with(&mut arena, rb, extra);
            let naive: Vec<u32> = a
                .iter()
                .copied()
                .filter(|x| set_slice(&arena, union).contains(x))
                .collect();
            assert_eq!(
                set_slice(&arena, fused),
                naive.as_slice(),
                "a={a:?} b={b:?} y={extra}"
            );
        }
    }

    /// End-to-end flat pipeline on the Figure 1 example at k = 7: the
    /// upper bound's twelve edges, and the eleven verification keeps.
    #[test]
    fn flat_pipeline_reproduces_figure_fixtures() {
        let g = paper_example::figure1_graph();
        let p = phases(&g, Query::new(S, T, 7), true);
        assert_eq!(p.ub.stats().edges_examined, 13);
        assert_eq!(p.ub.stats().failing, 1);
        // Every Figure 1 edge but (b, j), the failing edge of Example 4.2.
        let mut expected = paper_example::figure1_edges();
        expected.retain(|&e| e != (B, J));
        expected.sort_unstable();
        assert_eq!(global_edges(&p, 0..p.ub.edge_count() as u32), expected);

        let mut scratch = VerifyScratch::default();
        let stats = verify_flat(&p.ub, &mut scratch);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.confirmed, 2);
        expected.retain(|&e| e != (B, A));
        assert_eq!(edges_with(&p, scratch.result()), expected);
    }

    /// Figure 6(c): the definite/undetermined split of the running example
    /// at k = 7; (b, j), the failing edge of Example 4.2, is in neither.
    #[test]
    fn figure6c_labels_for_k7() {
        let g = paper_example::figure1_graph();
        let p = phases(&g, Query::new(S, T, 7), true);
        let mut expected = vec![
            (S, A),
            (S, C),
            (A, C),
            (A, H),
            (A, I),
            (C, T),
            (C, B),
            (H, B),
            (B, T),
        ];
        expected.sort_unstable();
        assert_eq!(edges_with(&p, p.ub.definite_bits()), expected);
        // In ascending id order: b = 5, i = 6, j = 7.
        let undetermined = global_edges(&p, p.ub.undetermined_eids().iter().copied());
        assert_eq!(undetermined, vec![(B, A), (I, J), (J, H)]);
        assert!(!global_edges(&p, 0..p.ub.edge_count() as u32).contains(&(B, J)));
        assert_eq!(p.ub.stats().failing, 1);
    }

    /// Examples 4.5 and 4.7: e(s, a) and e(a, i) are definite at k = 7.
    #[test]
    fn examples_4_5_and_4_7() {
        let g = paper_example::figure1_graph();
        let p = phases(&g, Query::new(S, T, 7), true);
        let definite = edges_with(&p, p.ub.definite_bits());
        assert!(definite.contains(&(S, A)));
        assert!(definite.contains(&(A, I)));
    }

    /// Both adjacency directions index every upper-bound edge by its id,
    /// and nothing else.
    #[test]
    fn adjacency_of_upper_bound_graph_is_consistent() {
        let g = paper_example::figure1_graph();
        let Phases { space, ub, .. } = phases(&g, Query::new(S, T, 7), true);
        for (eid, &(u, v)) in ub.edges().iter().enumerate() {
            assert!(ub.out_entries_of(u).contains(&(v, eid as u32)));
            assert!(ub.in_entries_of(v).contains(&(u, eid as u32)));
        }
        let vertices = 0..ub.vertex_count() as u32;
        let out: usize = vertices.clone().map(|v| ub.out_entries_of(v).len()).sum();
        let inc: usize = vertices.map(|v| ub.in_entries_of(v).len()).sum();
        assert_eq!((out, inc), (ub.edge_count(), ub.edge_count()));
        assert!(ub.out_entries_of(space.local_of(T).unwrap()).is_empty());
        assert!(ub.memory_bytes() > 0);
        assert_eq!(ub.hop_constraint(), 7);
    }

    /// Example 5.7: verifying e(i, j) finds the witness q* = {i, j, h},
    /// which also confirms e(j, h); e(b, a) lies on no simple s-t path
    /// (Lemma 3.3) and is rejected.
    #[test]
    fn example_5_7_and_redundant_edge_rejection() {
        let g = paper_example::figure1_graph();
        let p = phases(&g, Query::new(S, T, 7), true);
        let mut scratch = VerifyScratch::default();
        let stats = verify_flat(&p.ub, &mut scratch);
        let kept = edges_with(&p, scratch.result());
        assert!(kept.contains(&(I, J)) && kept.contains(&(J, H)));
        assert!(!kept.contains(&(B, A)) && !kept.contains(&(B, J)));
        assert_eq!(kept.len(), 11);
        assert_eq!((stats.rejected, stats.confirmed), (1, 2));
        assert!(stats.covered_by_witness >= 1);
    }

    /// Theorem 4.8: for k ≤ 4 the upper bound is exact; on the running
    /// example it has exactly the Figure 1(c) edges and none undetermined.
    #[test]
    fn upper_bound_is_exact_for_k4_on_figure1() {
        let g = paper_example::figure1_graph();
        let p = phases(&g, Query::new(S, T, 4), true);
        let mut expected = paper_example::figure1c_spg4_edges();
        expected.sort_unstable();
        assert_eq!(global_edges(&p, 0..p.ub.edge_count() as u32), expected);
        assert!(p.ub.undetermined_eids().is_empty());
    }

    /// Figure 7(b): departures with `In_D` and arrivals with `Out_A` for
    /// k = 7.
    #[test]
    fn figure7b_departures_and_arrivals() {
        let g = paper_example::figure1_graph();
        let Phases { space, ub, .. } = phases(&g, Query::new(S, T, 7), true);
        let to_global = |locals: &[u32]| sorted(locals.iter().map(|&x| space.global(x)).collect());
        let local = |v: VertexId| space.local_of(v).unwrap();

        let expected: Vec<VertexId> = paper_example::figure7b_departures()
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(to_global(ub.departure_verts()), sorted(expected));
        for (v, in_d) in paper_example::figure7b_departures() {
            assert_eq!(
                to_global(ub.in_d(local(v))),
                in_d,
                "In_D({})",
                paper_example::names::label(v)
            );
        }
        let expected: Vec<VertexId> = paper_example::figure7b_arrivals()
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(to_global(ub.arrival_verts()), sorted(expected));
        for (v, out_a) in paper_example::figure7b_arrivals() {
            assert_eq!(
                to_global(ub.out_a(local(v))),
                out_a,
                "Out_A({})",
                paper_example::names::label(v)
            );
        }
        assert!(ub.is_departure(local(B)));
        assert!(!ub.is_departure(local(A)));
        assert!(ub.is_arrival(local(A)));
        assert!(!ub.is_arrival(local(I)));
    }

    /// Theorem 5.8: a departure keeps at most k − 2 valid in-neighbours.
    #[test]
    fn in_d_and_out_a_are_capped_by_theorem_5_8() {
        // s fans out to many vertices that all point at the same departure
        // d, which then reaches t.
        let fan = 20u32;
        let (s, d, t) = (0u32, fan + 1, fan + 2);
        let mut edges = Vec::new();
        for x in 1..=fan {
            edges.push((s, x));
            edges.push((x, d));
        }
        edges.push((d, t));
        let g = DiGraph::from_edges((fan + 3) as usize, edges);
        let k = 6u32;
        let Phases { space, ub, .. } = phases(&g, Query::new(s, t, k), true);
        let d = space.local_of(d).unwrap();
        assert!(ub.is_departure(d));
        assert!(ub.in_d(d).len() <= (k - 2) as usize);
    }

    /// k = 5 performs no DFS expansion (the initial length already equals
    /// k − 4) yet still confirms edges between departures and arrivals.
    #[test]
    fn k5_verification_without_expansion() {
        let g = DiGraph::from_edges(
            6,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (1, 3),
                (2, 4),
                (3, 1),
            ],
        );
        let mut p = phases(&g, Query::new(0, 5, 5), true);
        apply_search_ordering_flat(&mut p.ub, &mut OrderScratch::default());
        let mut scratch = VerifyScratch::default();
        verify_flat(&p.ub, &mut scratch);
        assert_eq!(
            edges_with(&p, scratch.result()),
            brute_force_spg(&g, 0, 5, 5)
        );
    }

    #[test]
    fn infeasible_query_produces_empty_upper_bound() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        let Phases { space, fwd, ub, .. } = phases(&g, Query::new(0, 3, 4), true);
        assert!(space.is_empty());
        assert_eq!(fwd.ev(1, 0), None);
        assert_eq!(ub.edge_count(), 0);
        assert_eq!(ub.stats().edges_examined, 0);
        let mut scratch = VerifyScratch::default();
        assert_eq!(verify_flat(&ub, &mut scratch), VerificationStats::default());
        assert!(scratch.result().is_empty());
    }

    /// Search ordering must not change the flat verification answer.
    #[test]
    fn flat_ordering_is_answer_preserving() {
        let g = paper_example::figure1_graph();
        for k in 5..=8u32 {
            let Phases { mut ub, .. } = phases(&g, Query::new(S, T, k), true);
            let mut scratch = VerifyScratch::default();
            verify_flat(&ub, &mut scratch);
            let plain = scratch.result().to_vec();

            let mut order = OrderScratch::default();
            apply_search_ordering_flat(&mut ub, &mut order);
            verify_flat(&ub, &mut scratch);
            assert_eq!(scratch.result(), plain.as_slice(), "k={k}");
            assert!(order.retained_bytes() > 0);
        }
    }

    /// Search ordering changes only the work: on random graphs, an upper
    /// bound verified as built and one verified after ordering keep the
    /// same edges.
    #[test]
    fn ordering_is_answer_preserving() {
        let (mut scratch, mut order) = (VerifyScratch::default(), OrderScratch::default());
        let mut undetermined = 0;
        for case in 0..30u64 {
            let n = 6 + case as usize % 8;
            let g = spg_graph::generators::gnm_random(n, 3 * n, 700 + case);
            let q = Query::new(0, (n - 1) as u32, 5 + case as u32 % 3);
            let plain = phases(&g, q, true);
            verify_flat(&plain.ub, &mut scratch);
            let expected = edges_with(&plain, scratch.result());
            let mut ordered = phases(&g, q, true);
            apply_search_ordering_flat(&mut ordered.ub, &mut order);
            verify_flat(&ordered.ub, &mut scratch);
            assert_eq!(
                edges_with(&ordered, scratch.result()),
                expected,
                "case {case}"
            );
            undetermined += plain.ub.undetermined_eids().len();
        }
        assert!(undetermined > 0, "no case needed verification");
    }

    /// Verification keeps exactly the brute-force answer on random graphs,
    /// with search ordering applied in every other case.
    #[test]
    fn verification_matches_bruteforce_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(55);
        let mut scratch = VerifyScratch::default();
        for case in 0..30 {
            let n = rng.gen_range(6..12);
            let m = rng.gen_range(n..3 * n);
            let g = spg_graph::generators::gnm_random(n, m, 500 + case);
            let (s, t, k) = (0u32, (n - 1) as u32, rng.gen_range(5..8));
            let mut p = phases(&g, Query::new(s, t, k), true);
            if case % 2 == 0 {
                apply_search_ordering_flat(&mut p.ub, &mut OrderScratch::default());
            }
            verify_flat(&p.ub, &mut scratch);
            assert_eq!(
                edges_with(&p, scratch.result()),
                brute_force_spg(&g, s, t, k),
                "case {case} n={n} m={m} k={k}"
            );
        }
    }
}
