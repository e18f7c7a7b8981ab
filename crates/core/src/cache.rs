//! Versioned result cache for hot `(s, t, k)` queries.
//!
//! Fraud and investigation workloads repeat a small set of hot `(s, t, k)`
//! triples (the hub skew `spg_workloads::batch::skewed_queries` models), and
//! the batch-query literature (Yuan et al., *Batch Hop-Constrained s-t
//! Simple Path Query Processing in Large Graphs*) identifies inter-query
//! overlap as the next win after per-query optimisation. [`SpgCache`] is a
//! memoising layer over [`SimplePathGraph`] answers that is **provably
//! invisible**:
//!
//! * **Keying** — entries are keyed by `(graph version, s, t, clamped k)`.
//!   The version comes from [`VersionedGraph`]: a process-unique monotone
//!   stamp per graph snapshot, so a stale entry is *unreachable* (its key can
//!   never be constructed again) rather than merely expired, and one shared
//!   cache can serve many graphs at once. `k` is stored clamped to
//!   `min(k, n − 1)` ([`Query::clamped_to`]) exactly as the pipeline
//!   executes it, so `k = u32::MAX` and `k = n − 1` share one entry.
//! * **Eager reclamation** — unreachable is not free: stale bytes still
//!   compete with live entries for the budget until evicted. Binding a
//!   [`CachedEve`] therefore sweeps the graph's retired-snapshot list out of
//!   the cache ([`SpgCache::purge_versions`], deduped so re-binding costs
//!   one mutex probe), list-driven so other live graphs sharing the cache
//!   keep their entries.
//! * **Scoped invalidation** — an [`spg_graph::EdgeDelta`] batch keeps the
//!   version (the graph mutates in place via the CSR overlay) and purges
//!   only the entries it could have affected: [`SpgCache::purge_scoped`]
//!   applies an [`InvalidationScope`]'s conservative affect tests against
//!   each key and its recorded search-space witness
//!   ([`SimplePathGraph::witness`]). See [`crate::dynamic`] for the
//!   soundness argument.
//! * **Purge rows** — each shard keeps one compact row per slab slot: the
//!   key (a shard-local version index, `s`, `t`, clamped `k`), a liveness
//!   marker and a 384-bit hashed signature of the witness (every bit set
//!   for a witness-less entry), stored column-wise. Purges stream these
//!   rows and never probe the index map. The addition test needs only the
//!   16-byte key; the removal test reads an entry's witness, and
//!   binary-searches it, only when the signature holds both endpoints of a
//!   removed edge. A signature has no
//!   false negatives, so a purge removes exactly the entries
//!   [`InvalidationScope::affects`] selects. Per-shard, per-version counts
//!   of the resident `k` values answer [`SpgCache::max_resident_k`] in
//!   O(shards).
//! * **What a hit carries** — the slab stores only what a hit serves: the
//!   answer's edge list (behind an [`Arc`], so the shard lock is held for
//!   two reference-count bumps), its `upper_bound_edges` and the shared
//!   witness. A hit rebuilds its [`SimplePathGraph`] outside the lock from
//!   a clone of the stored, already-sorted edge list: same edges, clamped
//!   query, witness and upper-bound size as the miss that published it
//!   (the stats-relevant fields `tests/cache_differential.rs` checks
//!   end to end), with zero timings and work counters because no phase
//!   ran. Validation errors are never cached: [`CachedEve`] validates
//!   before the lookup, so per-slot error behaviour is untouched.
//! * **Bounded memory** — the cache is a sharded (lock-striped) LRU with a
//!   byte budget. Each shard owns `budget / shards` bytes and evicts its
//!   least-recently-used entries until it fits, so the bytes charged never
//!   exceed the budget after any insert/evict sequence. [`entry_cost`]
//!   charges what an entry allocates: the purge row, the slab slot, the
//!   index map's key slots, the shared edge-list allocation with its `Arc`
//!   header, the edge list (the pipeline's [`MemoryEstimate`] answer
//!   footprint) and the witness. Allocator rounding is not charged.
//!
//! Concurrent readers/writers take one shard mutex per operation; counters
//! are atomics shared by all shards. A miss computes outside any lock and
//! then publishes (`compute-then-publish`), so two threads racing on the same
//! key at worst compute the answer twice and publish identical values —
//! never a torn entry.
//!
//! [`MemoryEstimate`]: crate::stats::MemoryEstimate

use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spg_graph::hash::{FxHashMap, FxHashSet, FxHasher};
use spg_graph::{EdgeSubgraph, GraphVersion, QueryBudget, VersionedGraph, VertexId};

use crate::dynamic::InvalidationScope;
use crate::eve::{Eve, EveConfig};
use crate::query::{Query, QueryError};
use crate::spg::SimplePathGraph;
use crate::workspace::QueryWorkspace;

/// Slab-index sentinel terminating the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Version-index sentinel marking a free slab slot's row.
const FREE: u32 = u32::MAX;

/// Width of a row's witness signature in 64-bit words (384 bits). On a full
/// 64 MiB cache of k = 6 answers on gnm(4000, 24000), a removal spent most
/// of its time on false-positive witness searches at 64 bits (3.0 ms) and
/// still about half at 256 bits; 384 bits roughly halves it again, and 512
/// bits gains nothing more than the wider scan costs.
const SIG_WORDS: usize = 6;

/// Signature width in bits.
const SIG_BITS: u64 = SIG_WORDS as u64 * 64;

/// Reference-count header of every `Arc` allocation (strong + weak).
const ARC_HEADER_BYTES: usize = 2 * mem::size_of::<usize>();

/// Cache key: one graph snapshot plus one clamped query. Routes a query to
/// its shard; inside the shard the version becomes a [`SlotKey`] index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    version: GraphVersion,
    source: VertexId,
    target: VertexId,
    k: u32,
}

impl CacheKey {
    fn new(version: GraphVersion, query: Query) -> Self {
        CacheKey {
            version,
            source: query.source,
            target: query.target,
            k: query.k,
        }
    }

    fn hash64(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }

    fn in_shard(&self, version: u32) -> SlotKey {
        SlotKey {
            version,
            source: self.source,
            target: self.target,
            k: self.k,
        }
    }
}

/// The key half of a purge row, and the index-map key: the version is the
/// shard's tally index, [`FREE`] for a free slot (the liveness flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SlotKey {
    version: u32,
    source: VertexId,
    target: VertexId,
    k: u32,
}

const FREE_KEY: SlotKey = SlotKey {
    version: FREE,
    source: 0,
    target: 0,
    k: 0,
};

/// Hashed vertex mask of a witness, the signature half of a purge row.
/// Each vertex sets two bits (the two halves of one Fibonacci hash, scaled
/// to the width); a clear bit proves the vertex is not in the witness. Two
/// bits per vertex let through about half the false positives of one on
/// the witnesses k = 6 queries record (mostly under 64 vertices). A
/// witness-less entry sets every bit, so it always reaches the exact test,
/// which purges it on any removal; a free slot sets none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Signature([u64; SIG_WORDS]);

impl Signature {
    const EMPTY: Signature = Signature([0; SIG_WORDS]);

    fn of(witness: Option<&[VertexId]>) -> Self {
        let Some(witness) = witness else {
            return Signature([u64::MAX; SIG_WORDS]);
        };
        let mut sig = Signature::EMPTY;
        for &v in witness {
            sig.add(v);
        }
        sig
    }

    /// The probe of a removed edge: the bits of both endpoints.
    fn of_edge(u: VertexId, v: VertexId) -> Self {
        let mut sig = Signature::EMPTY;
        sig.add(u);
        sig.add(v);
        sig
    }

    fn add(&mut self, v: VertexId) {
        let h = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for half in [h >> 32, h & 0xFFFF_FFFF] {
            let bit = (half * SIG_BITS) >> 32;
            self.0[bit as usize / 64] |= 1 << (bit % 64);
        }
    }

    /// `true` when every bit of `probe` is set here. Branch-free: a purge
    /// runs this once per row, and which word rules a row out is random.
    fn holds(&self, probe: &Signature) -> bool {
        self.0
            .iter()
            .zip(&probe.0)
            .fold(0, |missing, (&word, &bits)| missing | (bits & !word))
            == 0
    }
}

/// What a hit serves, threaded on the LRU list. The answer fields are
/// `None` only while the slot sits on the free list. The edge list sits
/// behind an [`Arc`] so the shard lock is only ever held for O(1) pointer
/// work — the copy a hit hands out happens outside the lock.
#[derive(Debug)]
struct Slot {
    edges: Option<Arc<EdgeSubgraph>>,
    witness: Option<Arc<[VertexId]>>,
    upper_bound_edges: usize,
    cost: usize,
    /// Towards most-recently-used.
    prev: u32,
    /// Towards least-recently-used.
    next: u32,
}

const FREE_SLOT: Slot = Slot {
    edges: None,
    witness: None,
    upper_bound_edges: 0,
    cost: 0,
    prev: NIL,
    next: NIL,
};

/// What the shard lock hands out on a hit; [`Hit::answer`] rebuilds the
/// answer after the lock is released.
struct Hit {
    edges: Arc<EdgeSubgraph>,
    witness: Option<Arc<[VertexId]>>,
    upper_bound_edges: usize,
}

impl Hit {
    fn answer(self, query: Query) -> SimplePathGraph {
        SimplePathGraph::from_cached(
            query,
            EdgeSubgraph::clone(&self.edges),
            self.upper_bound_edges,
            self.witness,
        )
    }
}

/// Resident entries of one graph version in one shard.
#[derive(Debug)]
struct Tally {
    version: GraphVersion,
    /// `(k, entries)` pairs sorted by `k`; empty iff the tally is free.
    k_counts: Vec<(u32, u32)>,
}

/// One lock stripe: purge rows and answer slots side by side in a slab, an
/// index map, an intrusive LRU list and the per-version `k` tallies. A
/// slot's purge row is stored column-wise, `keys[i]` and `sigs[i]`, so the
/// addition test and the version purges stream 16 bytes per entry and the
/// removal test starts from the signatures.
#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<SlotKey, u32>,
    keys: Vec<SlotKey>,
    sigs: Vec<Signature>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Versions resident in this shard; a row's `version` indexes here.
    tallies: Vec<Tally>,
    /// Most-recently-used slot (`NIL` when empty).
    head: u32,
    /// Least-recently-used slot (`NIL` when empty).
    tail: u32,
    /// Sum of slot costs currently held.
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            head: NIL,
            tail: NIL,
            ..Shard::default()
        }
    }

    /// The tally index of `version`, if any entry of it is resident.
    fn tally(&self, version: GraphVersion) -> Option<u32> {
        self.tallies
            .iter()
            .position(|t| !t.k_counts.is_empty() && t.version == version)
            .map(|i| i as u32)
    }

    /// Counts one more resident entry of `version` at hop bound `k`,
    /// claiming a free tally if the version has none. Returns its index.
    fn count(&mut self, version: GraphVersion, k: u32) -> u32 {
        let idx = match self.tally(version) {
            Some(idx) => idx as usize,
            None => match self.tallies.iter().position(|t| t.k_counts.is_empty()) {
                Some(idx) => {
                    self.tallies[idx].version = version;
                    idx
                }
                None => {
                    self.tallies.push(Tally {
                        version,
                        k_counts: Vec::new(),
                    });
                    self.tallies.len() - 1
                }
            },
        };
        let counts = &mut self.tallies[idx].k_counts;
        match counts.binary_search_by_key(&k, |&(k, _)| k) {
            Ok(at) => counts[at].1 += 1,
            Err(at) => counts.insert(at, (k, 1)),
        }
        idx as u32
    }

    /// Reverses one [`Shard::count`]; the tally frees itself at zero.
    fn uncount(&mut self, tally: u32, k: u32) {
        let counts = &mut self.tallies[tally as usize].k_counts;
        if let Ok(at) = counts.binary_search_by_key(&k, |&(k, _)| k) {
            counts[at].1 -= 1;
            if counts[at].1 == 0 {
                counts.remove(at);
            }
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = self.head;
        }
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h as usize].prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Drops the resident entry in slot `idx` and recycles the slot.
    fn remove(&mut self, idx: u32) {
        self.unlink(idx);
        let key = mem::replace(&mut self.keys[idx as usize], FREE_KEY);
        self.sigs[idx as usize] = Signature::EMPTY;
        let slot = mem::replace(&mut self.slots[idx as usize], FREE_SLOT);
        self.map.remove(&key);
        self.uncount(key.version, key.k);
        self.free.push(idx);
        self.bytes -= slot.cost;
    }

    /// Inserts or refreshes `key` (the slot and its signature were built by
    /// the caller outside the lock; only O(1) moves happen here). Returns
    /// the number of evictions performed to fit the shard budget, or `None`
    /// if the entry alone exceeds it.
    fn insert(
        &mut self,
        key: CacheKey,
        slot: Slot,
        sig: Signature,
        budget: usize,
    ) -> Option<usize> {
        let cost = slot.cost;
        if cost > budget {
            return None;
        }
        let existing = self
            .tally(key.version)
            .and_then(|t| self.map.get(&key.in_shard(t)).copied());
        if let Some(idx) = existing {
            // Replace in place (identical answer by determinism, but honour
            // the newest value and cost anyway) and refresh recency.
            let old = &mut self.slots[idx as usize];
            self.bytes = self.bytes - old.cost + cost;
            *old = Slot {
                prev: old.prev,
                next: old.next,
                ..slot
            };
            self.sigs[idx as usize] = sig;
            self.touch(idx);
        } else {
            let key = key.in_shard(self.count(key.version, key.k));
            let idx = match self.free.pop() {
                Some(idx) => {
                    self.keys[idx as usize] = key;
                    self.sigs[idx as usize] = sig;
                    self.slots[idx as usize] = slot;
                    idx
                }
                None => {
                    self.keys.push(key);
                    self.sigs.push(sig);
                    self.slots.push(slot);
                    self.slots.len() as u32 - 1
                }
            };
            self.map.insert(key, idx);
            self.bytes += cost;
            self.push_front(idx);
        }
        let mut evictions = 0;
        while self.bytes > budget {
            self.remove(self.tail);
            evictions += 1;
        }
        Some(evictions)
    }

    /// O(1) under the lock: recency bump plus two `Arc` clones.
    fn get(&mut self, key: &CacheKey) -> Option<Hit> {
        let version = self.tally(key.version)?;
        let idx = *self.map.get(&key.in_shard(version))?;
        self.touch(idx);
        let slot = &self.slots[idx as usize];
        Some(Hit {
            edges: Arc::clone(
                slot.edges
                    .as_ref()
                    .expect("a mapped slot always holds an answer"), // spg-analyze: allow(no-panic) — invariant: the slot map never points at an empty slot
            ),
            witness: slot.witness.clone(),
            upper_bound_edges: slot.upper_bound_edges,
        })
    }

    /// Drops every resident entry whose version tally is in `doomed`,
    /// returning the number removed. Streams the row keys only.
    fn purge_tallies(&mut self, doomed: &[u32]) -> usize {
        if doomed.is_empty() {
            return 0;
        }
        let mut removed = 0;
        for idx in 0..self.keys.len() {
            let version = self.keys[idx].version;
            if version != FREE && doomed.contains(&version) {
                self.remove(idx as u32);
                removed += 1;
            }
        }
        removed
    }

    /// Drops every entry of the given versions, returning the number removed.
    fn purge_versions(&mut self, versions: &[GraphVersion]) -> usize {
        let doomed: Vec<u32> = versions.iter().filter_map(|&v| self.tally(v)).collect();
        self.purge_tallies(&doomed)
    }

    /// Drops every entry whose version differs from `keep`, returning the
    /// number removed.
    fn purge_other_versions(&mut self, keep: GraphVersion) -> usize {
        let doomed: Vec<u32> = (0..self.tallies.len() as u32)
            .filter(|&t| {
                let tally = &self.tallies[t as usize];
                !tally.k_counts.is_empty() && tally.version != keep
            })
            .collect();
        self.purge_tallies(&doomed)
    }

    /// Drops the entries of `version` that `scope` affects, given one
    /// signature probe per removed edge. The addition test reads the row
    /// key; the exact removal test reads the witness only when the row's
    /// signature holds both endpoints of some removed edge.
    fn purge_scoped(
        &mut self,
        version: GraphVersion,
        scope: &InvalidationScope,
        removed: &[Signature],
    ) -> usize {
        let Some(tally) = self.tally(version) else {
            return 0;
        };
        let adds = scope.adds_edges();
        let mut purged = 0;
        for idx in 0..self.keys.len() {
            let reached = adds && {
                let key = &self.keys[idx];
                key.version == tally && scope.reaches(key.source, key.target, key.k)
            };
            let stale = reached
                || (removed.iter().any(|probe| self.sigs[idx].holds(probe))
                    && self.keys[idx].version == tally
                    && scope.removes_from(self.slots[idx].witness.as_deref()));
            if stale {
                self.remove(idx as u32);
                purged += 1;
            }
        }
        purged
    }

    /// The largest resident `k` of `version`, if any entry of it is resident.
    fn max_k(&self, version: GraphVersion) -> Option<u32> {
        let tally = self.tally(version)?;
        self.tallies[tally as usize]
            .k_counts
            .last()
            .map(|&(k, _)| k)
    }

    fn clear(&mut self) {
        *self = Shard::new();
    }
}

/// Bytes charged per entry on top of its edge list and witness contents:
/// the purge row (key and signature), the slab slot, two of the index
/// map's key slots (the map keeps its load between 7/16 and 7/8), the
/// shared edge-list allocation with its `Arc` header, and the witness's
/// `Arc` header (charged to witness-less entries too).
const ENTRY_OVERHEAD_BYTES: usize = mem::size_of::<SlotKey>()
    + mem::size_of::<Signature>()
    + mem::size_of::<Slot>()
    + 2 * (mem::size_of::<(SlotKey, u32)>() + 1)
    + ARC_HEADER_BYTES
    + mem::size_of::<EdgeSubgraph>()
    + ARC_HEADER_BYTES;

/// Byte cost charged for caching `spg`: the per-entry overhead plus the
/// answer footprint the pipeline recorded in its [`MemoryEstimate`]
/// (`verification_bytes` — the answer edge list plus DFS-stack bound) and
/// the witness. Answers whose stats were not populated (e.g. assembled by a
/// baseline, or served by a hit) fall back to the edge-list size.
///
/// [`MemoryEstimate`]: crate::stats::MemoryEstimate
pub fn entry_cost(spg: &SimplePathGraph) -> usize {
    let answer_bytes = spg
        .stats()
        .memory
        .verification_bytes
        .max(spg.edge_count() * mem::size_of::<(VertexId, VertexId)>());
    let witness_bytes = spg.witness().map_or(0, mem::size_of_val);
    ENTRY_OVERHEAD_BYTES + answer_bytes + witness_bytes
}

/// Monotone counters shared by all shards of one [`SpgCache`].
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    oversize_rejections: AtomicU64,
    purged_stale: AtomicU64,
    purged_scoped: AtomicU64,
}

/// Point-in-time snapshot of a cache's counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries published (including refreshes of an existing key).
    pub insertions: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
    /// Inserts rejected because a single entry exceeded its shard budget.
    pub oversize_rejections: u64,
    /// Entries of retired graph snapshots reclaimed by
    /// [`SpgCache::purge_versions`] (eagerly, on version observation).
    pub purged_stale: u64,
    /// Entries dropped by a delta batch's scoped purge
    /// ([`SpgCache::purge_scoped`]).
    pub purged_scoped: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
    /// Configured global byte budget.
    pub budget_bytes: usize,
    /// Number of lock stripes.
    pub shards: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`None` before the first
    /// lookup).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Sharded, byte-budgeted LRU cache of [`SimplePathGraph`] answers (see the
/// module docs for the keying / invalidation / budget contract).
///
/// ```
/// use spg_core::{CachedEve, Query, SpgCache};
/// use spg_core::paper_example::{figure1_graph, names};
/// use spg_graph::VersionedGraph;
///
/// let vg = VersionedGraph::new(figure1_graph());
/// let cache = SpgCache::new(1 << 20);
/// let eve = CachedEve::with_defaults(&vg, &cache);
///
/// let first = eve.query(Query::new(names::S, names::T, 4)).unwrap();
/// let again = eve.query(Query::new(names::S, names::T, 4)).unwrap();
/// assert_eq!(first.edges(), again.edges());
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct SpgCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (`total / shards`, rounded down — no floor, so
    /// a budget below `shards × entry cost` rejects every insert as
    /// oversize; see [`SpgCache::with_shards`]).
    shard_budget: usize,
    budget_bytes: usize,
    counters: Counters,
    /// Versions already swept by [`SpgCache::purge_versions`], so repeated
    /// observation of the same retired list (every [`CachedEve::new`] bind)
    /// is a dedup probe, not a full shard sweep.
    purged_versions: Mutex<FxHashSet<GraphVersion>>,
}

// The whole point of the cache is cross-thread sharing; keep that a
// compile-time fact alongside the executor's other concurrency asserts.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpgCache>();
    assert_send_sync::<CacheStats>();
};

/// Default number of lock stripes ([`SpgCache::new`]).
pub const DEFAULT_SHARDS: usize = 16;

impl SpgCache {
    /// Creates a cache with `budget_bytes` of total capacity across
    /// [`DEFAULT_SHARDS`] lock stripes.
    pub fn new(budget_bytes: usize) -> Self {
        SpgCache::with_shards(budget_bytes, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit stripe count (rounded up to a power
    /// of two, at least 1). Each stripe owns `budget_bytes / shards`, so the
    /// global footprint never exceeds `budget_bytes`; a single-stripe cache
    /// enforces the budget exactly and is the configuration the LRU-order
    /// tests script against.
    ///
    /// There is deliberately no per-stripe floor: a budget smaller than
    /// `shards ×` the typical entry cost rejects most inserts as oversize
    /// (the bound is never blown, and
    /// [`CacheStats::oversize_rejections`] makes the degradation
    /// observable). Size the budget for at least a few entries per stripe,
    /// or reduce the stripe count along with the budget.
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        SpgCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: budget_bytes / shards,
            budget_bytes,
            counters: Counters::default(),
            purged_versions: Mutex::new(FxHashSet::default()),
        }
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<Shard> {
        // High bits of the Fx hash: the final multiply mixes them best.
        let bits = self.shards.len().trailing_zeros();
        let idx = (key.hash64() >> (64 - bits as u64).min(63)) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Looks up the answer for `query` (already clamped) on graph snapshot
    /// `version`, refreshing its recency. Counts a hit or a miss. The shard
    /// lock is held only for the O(1) probe + recency bump; the answer
    /// handed to the caller is rebuilt after it is released (see the module
    /// docs for what a hit carries).
    pub fn get(&self, version: GraphVersion, query: Query) -> Option<SimplePathGraph> {
        let key = CacheKey::new(version, query);
        let hit = self.shard_for(&key).lock().expect("cache shard").get(&key); // lock: cache.shard
        match &hit {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed), // spg-analyze: allow(hot-loop) — one bump per cache probe, not an inner loop
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed), // spg-analyze: allow(hot-loop) — one bump per cache probe, not an inner loop
        };
        hit.map(|hit| hit.answer(query))
    }

    /// [`SpgCache::get`] without touching the hit/miss counters. The
    /// singleflight drain uses this for the leader's double-check probe
    /// (between its counted miss and its flight claim another leader may
    /// have published) — re-counting there would double-book the slot.
    pub(crate) fn get_quiet(&self, version: GraphVersion, query: Query) -> Option<SimplePathGraph> {
        let key = CacheKey::new(version, query);
        self.shard_for(&key)
            .lock() // lock: cache.shard
            .expect("cache shard")
            .get(&key)
            .map(|hit| hit.answer(query))
    }

    /// Publishes `answer` for `query` (already clamped) on graph snapshot
    /// `version`, evicting least-recently-used entries until the shard fits
    /// its budget. An entry larger than the shard budget is rejected (and
    /// counted) rather than blowing the bound. Re-publishing an existing key
    /// refreshes the stored value and its recency. Only what a hit serves is
    /// kept: the edge list is copied and the witness shared, both before
    /// the shard lock, together with the witness signature; the locked
    /// section is O(evictions).
    pub fn insert(&self, version: GraphVersion, query: Query, answer: &SimplePathGraph) {
        let key = CacheKey::new(version, query);
        let slot = Slot {
            edges: Some(Arc::new(answer.as_subgraph().clone())),
            witness: answer.shared_witness().cloned(),
            upper_bound_edges: answer.stats().upper_bound_edges,
            cost: entry_cost(answer),
            prev: NIL,
            next: NIL,
        };
        let sig = Signature::of(answer.witness());
        let evicted = self
            .shard_for(&key)
            .lock() // lock: cache.shard
            .expect("cache shard")
            .insert(key, slot, sig, self.shard_budget);
        match evicted {
            Some(evictions) => {
                self.counters.insertions.fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per insert, not an inner loop
                if evictions > 0 {
                    self.counters
                        .evictions
                        .fetch_add(evictions as u64, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per insert, not an inner loop
                }
            }
            None => {
                self.counters
                    .oversize_rejections
                    .fetch_add(1, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per insert, not an inner loop
            }
        }
    }

    /// Eagerly reclaims entries of every snapshot except `keep`. Stale
    /// entries are already unreachable through [`SpgCache::get`] (their
    /// version can never be issued again); this frees their bytes without
    /// waiting for LRU pressure. Returns the number of entries removed.
    ///
    /// This is the keep-one sledgehammer (it also drops entries of *other
    /// live graphs* sharing the cache); the serving stack instead purges the
    /// explicit retired list of the graph it binds
    /// ([`SpgCache::purge_versions`], driven by [`CachedEve::new`]), which
    /// preserves the one-cache-many-graphs story.
    pub fn purge_other_versions(&self, keep: GraphVersion) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").purge_other_versions(keep)) // lock: cache.shard
            .sum()
    }

    /// Eagerly reclaims entries of the given retired snapshots, returning
    /// the number removed. Versions already swept are skipped via a dedup
    /// set, so the steady-state cost of re-observing the same retired list
    /// is one short mutex probe and no shard locks — cheap enough to run on
    /// every [`CachedEve`] bind. Unlike [`SpgCache::purge_other_versions`]
    /// this is list-driven: entries of other live graphs sharing the cache
    /// are untouched.
    pub fn purge_versions(&self, versions: &[GraphVersion]) -> usize {
        if versions.is_empty() {
            return 0;
        }
        // Collect the not-yet-swept versions, then release before touching
        // any shard: cache.retired is never held across cache.shard.
        let fresh: Vec<GraphVersion> = {
            let mut seen = self
                .purged_versions
                .lock() // lock: cache.retired
                .expect("cache retired-version set");
            versions
                .iter()
                .copied()
                .filter(|v| seen.insert(*v))
                .collect()
        };
        if fresh.is_empty() {
            return 0;
        }
        let removed: usize = self
            .shards
            .iter()
            .map(|s| {
                s.lock() // lock: cache.shard
                    .expect("cache shard")
                    .purge_versions(&fresh)
            })
            .sum();
        if removed > 0 {
            self.counters
                .purged_stale
                .fetch_add(removed as u64, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per retired-version sweep, not an inner loop
        }
        removed
    }

    /// Drops exactly the entries of snapshot `version` that a delta batch
    /// could have affected, per `scope`'s conservative tests
    /// ([`InvalidationScope::affects`] — addition reachability plus
    /// witness-scoped removals). Entries of other versions and out-of-scope
    /// entries survive and keep serving hits. Returns the number removed.
    ///
    /// Streams each shard's purge rows: a shard with no entry of `version`
    /// costs one tally probe, and an entry's witness is read only when its
    /// signature holds both endpoints of a removed edge.
    pub fn purge_scoped(&self, version: GraphVersion, scope: &InvalidationScope) -> usize {
        let removed: Vec<Signature> = scope
            .removed_edges()
            .iter()
            .map(|&(u, v)| Signature::of_edge(u, v))
            .collect();
        let removed: usize = self
            .shards
            .iter()
            .map(|s| {
                s.lock() // lock: cache.shard
                    .expect("cache shard")
                    .purge_scoped(version, scope, &removed)
            })
            .sum();
        if removed > 0 {
            self.counters
                .purged_scoped
                .fetch_add(removed as u64, Ordering::Relaxed); // spg-analyze: allow(hot-loop) — one bump per delta batch, not an inner loop
        }
        removed
    }

    /// The largest clamped hop constraint among resident entries of
    /// snapshot `version` (0 when none are resident). Bounds the BFS depth
    /// of a delta batch's addition-reachability sweep — entries with a
    /// larger `k` cannot exist, so no deeper exploration can matter. Reads
    /// each shard's per-version `k` tally: O(shards), not O(entries).
    pub fn max_resident_k(&self, version: GraphVersion) -> u32 {
        self.resident_k(version).unwrap_or(0)
    }

    /// [`SpgCache::max_resident_k`], or `None` when no entry of `version`
    /// is resident at all (an update then has nothing to purge).
    pub(crate) fn resident_k(&self, version: GraphVersion) -> Option<u32> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().expect("cache shard").max_k(version)) // lock: cache.shard
            .max()
    }

    /// Drops every entry (counters are retained — they are monotone).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard").clear(); // lock: cache.shard
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len()) // lock: cache.shard
            .sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").bytes) // lock: cache.shard
            .sum()
    }

    /// The configured global byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Evictions performed since construction: a single `Relaxed` atomic
    /// load, cheap enough to sample around every batch — unlike the full
    /// [`SpgCache::stats`] snapshot, which locks every shard to count
    /// occupancy.
    pub fn eviction_count(&self) -> u64 {
        self.counters.evictions.load(Ordering::Relaxed)
    }

    /// Snapshot of counters and occupancy. Counter reads are `Relaxed`; under
    /// concurrent traffic the snapshot is a consistent-enough point-in-time
    /// view (each counter individually monotone).
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let s = shard.lock().expect("cache shard"); // lock: cache.shard
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            oversize_rejections: self.counters.oversize_rejections.load(Ordering::Relaxed),
            purged_stale: self.counters.purged_stale.load(Ordering::Relaxed),
            purged_scoped: self.counters.purged_scoped.load(Ordering::Relaxed),
            entries,
            bytes,
            budget_bytes: self.budget_bytes,
            shards: self.shards.len(),
        }
    }
}

/// Whether a cached query was served from the cache or computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; the EVE pipeline never ran.
    Hit,
    /// Computed by the pipeline and published to the cache.
    Miss,
    /// Collapsed onto a concurrent in-flight computation of the same key by
    /// the singleflight layer ([`crate::FlightGroup`]): this slot neither
    /// probed a resident entry nor ran the pipeline — it received the
    /// leader's answer when the shared flight completed.
    Coalesced,
}

/// [`Eve`] bound to a [`VersionedGraph`] and a shared [`SpgCache`]: the
/// cached counterpart of [`Eve::query_with`]. Hits skip all three pipeline
/// phases; misses compute on the caller's workspace and publish. Cheap to
/// copy (two references and a version stamp), so batch workers each carry
/// their own copy against one shared cache.
///
/// ```
/// use spg_core::{BatchExecutor, CachedEve, FlightGroup, Query, SpgCache};
/// use spg_core::paper_example::{figure1_graph, names};
/// use spg_graph::VersionedGraph;
///
/// let vg = VersionedGraph::new(figure1_graph());
/// let cache = SpgCache::new(1 << 20);
/// let cached = CachedEve::with_defaults(&vg, &cache);
/// let queries: Vec<Query> = (2..=8).map(|k| Query::new(names::S, names::T, k)).collect();
///
/// let executor = BatchExecutor::new(2);
/// let flights = FlightGroup::new();
/// let cold = executor.run_cached_coalesced_with_deadlines(&cached, &flights, &queries, &[]);
/// let warm = executor.run_cached_coalesced_with_deadlines(&cached, &flights, &queries, &[]);
/// for (c, w) in cold.results.iter().zip(&warm.results) {
///     assert_eq!(c.as_ref().unwrap().edges(), w.as_ref().unwrap().edges());
/// }
/// assert!(cache.stats().hits >= queries.len() as u64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CachedEve<'g, 'c> {
    eve: Eve<'g>,
    version: GraphVersion,
    /// The graph's retired-snapshot list, borrowed so the binding stays
    /// `Copy`; swept on bind and by [`CachedEve::purge_retired`].
    retired: &'g [GraphVersion],
    cache: &'c SpgCache,
}

impl<'g, 'c> CachedEve<'g, 'c> {
    /// Binds EVE to `graph`'s current snapshot with an explicit
    /// configuration, sharing `cache`.
    ///
    /// The version stamp is captured here; replacing the graph requires
    /// `&mut VersionedGraph` and therefore ends this borrow, so a live
    /// `CachedEve` can never mix answers across snapshots. Binding also
    /// sweeps the bytes of snapshots this graph has retired
    /// ([`VersionedGraph::retired`]) out of the cache — stale entries were
    /// already unreachable, but until this sweep their bytes kept competing
    /// with live entries for the budget.
    pub fn new(graph: &'g VersionedGraph, config: EveConfig, cache: &'c SpgCache) -> Self {
        let cached = CachedEve {
            eve: Eve::new(graph.graph(), config),
            version: graph.version(),
            retired: graph.retired(),
            cache,
        };
        cached.purge_retired();
        cached
    }

    /// [`CachedEve::new`] with the default (full) configuration.
    pub fn with_defaults(graph: &'g VersionedGraph, cache: &'c SpgCache) -> Self {
        CachedEve::new(graph, EveConfig::default(), cache)
    }

    /// The underlying (uncached) EVE instance.
    pub fn eve(&self) -> Eve<'g> {
        self.eve
    }

    /// The shared cache.
    pub fn cache(&self) -> &'c SpgCache {
        self.cache
    }

    /// The graph snapshot version answers are keyed by.
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// Reclaims cache entries of snapshots the bound graph has retired.
    /// Runs automatically on bind; the batch drain re-invokes it per batch
    /// so long-lived bindings also converge. Deduped inside
    /// [`SpgCache::purge_versions`], so the steady-state cost is one short
    /// mutex probe. Returns the number of entries removed.
    pub fn purge_retired(&self) -> usize {
        self.cache.purge_versions(self.retired)
    }

    /// Answers `query` through the cache on a fresh workspace.
    pub fn query(&self, query: Query) -> Result<SimplePathGraph, QueryError> {
        let mut ws = QueryWorkspace::new();
        self.query_with(&mut ws, query)
    }

    /// Answers `query` through the cache on a reusable workspace: validate,
    /// clamp, look up; on a miss run the pipeline and publish. Invalid
    /// queries error exactly as [`Eve::query_with`] and never touch the
    /// cache.
    pub fn query_with(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
    ) -> Result<SimplePathGraph, QueryError> {
        self.query_with_outcome(ws, query).map(|(spg, _)| spg)
    }

    /// [`CachedEve::query_with`] additionally reporting whether the answer
    /// was a [`CacheOutcome::Hit`] or a computed [`CacheOutcome::Miss`].
    pub fn query_with_outcome(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
    ) -> Result<(SimplePathGraph, CacheOutcome), QueryError> {
        self.query_with_outcome_budgeted(ws, query, &QueryBudget::unlimited())
    }

    /// [`CachedEve::query_with_outcome`] under a caller-supplied
    /// [`QueryBudget`]. A hit costs nothing; a miss runs the pipeline
    /// cooperatively and a budget abort publishes nothing to the cache.
    pub fn query_with_outcome_budgeted(
        &self,
        ws: &mut QueryWorkspace,
        query: Query,
        budget: &QueryBudget,
    ) -> Result<(SimplePathGraph, CacheOutcome), QueryError> {
        query.validate(self.eve.graph())?;
        let clamped = query.clamped_to(self.eve.graph());
        if let Some(hit) = self.cache.get(self.version, clamped) {
            return Ok((hit, CacheOutcome::Hit));
        }
        // Compute outside any shard lock, then publish. A concurrent racer
        // on the same key publishes an identical (deterministic) answer.
        let spg = self.eve.query_budgeted(ws, clamped, budget)?;
        self.cache.insert(self.version, clamped, &spg);
        Ok((spg, CacheOutcome::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{self, names::*};
    use crate::stats::PhaseTimings;

    /// A synthetic answer with `edges` edges, for budget scripting.
    fn answer(tag: u32, edges: usize) -> SimplePathGraph {
        let list: Vec<(u32, u32)> = (0..edges as u32).map(|i| (tag * 1000 + i, i + 1)).collect();
        SimplePathGraph::from_parts(
            Query::new(0, 1, 1),
            EdgeSubgraph::from_edges(list),
            crate::stats::EveStats::default(),
        )
    }

    fn q(s: u32, t: u32, k: u32) -> Query {
        Query::new(s, t, k)
    }

    #[test]
    fn hit_returns_the_stored_answer() {
        let cache = SpgCache::new(1 << 16);
        let a = answer(1, 4);
        assert!(cache.get(7, q(0, 1, 3)).is_none());
        cache.insert(7, q(0, 1, 3), &a);
        let hit = cache.get(7, q(0, 1, 3)).expect("hit");
        assert_eq!(hit.edges(), a.edges());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0 && stats.bytes <= stats.budget_bytes);
        assert_eq!(stats.hit_rate(), Some(0.5));
        assert!(!cache.is_empty());
    }

    #[test]
    fn version_is_part_of_the_key() {
        let cache = SpgCache::new(1 << 16);
        cache.insert(1, q(0, 1, 3), &answer(1, 2));
        assert!(cache.get(2, q(0, 1, 3)).is_none(), "other version misses");
        assert!(cache.get(1, q(0, 1, 3)).is_some());
        // Purging keeps only the requested version.
        cache.insert(2, q(0, 1, 3), &answer(2, 2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.purge_other_versions(2), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(2, q(0, 1, 3)).is_some());
    }

    #[test]
    fn lru_eviction_order_under_scripted_trace() {
        // Single shard => exact global LRU. Budget fits exactly two entries.
        let a = answer(1, 8);
        let budget = 2 * entry_cost(&a) + entry_cost(&a) / 2;
        let cache = SpgCache::with_shards(budget, 1);
        cache.insert(1, q(0, 1, 1), &a); // A
        cache.insert(1, q(0, 1, 2), &answer(2, 8)); // B
        assert_eq!(cache.len(), 2);
        // Touch A so B becomes the LRU victim.
        assert!(cache.get(1, q(0, 1, 1)).is_some());
        cache.insert(1, q(0, 1, 3), &answer(3, 8)); // C evicts B
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, q(0, 1, 1)).is_some(), "A survived");
        assert!(cache.get(1, q(0, 1, 2)).is_none(), "B was the LRU victim");
        assert!(cache.get(1, q(0, 1, 3)).is_some(), "C resident");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.eviction_count(), 1, "lock-free accessor agrees");
        assert!(cache.bytes() <= budget);
        // Inserting D now evicts A (B's miss refreshed nothing).
        cache.insert(1, q(0, 1, 4), &answer(4, 8)); // D evicts A
        assert!(cache.get(1, q(0, 1, 1)).is_none(), "A evicted second");
        assert!(cache.get(1, q(0, 1, 3)).is_some());
        assert!(cache.get(1, q(0, 1, 4)).is_some());
    }

    #[test]
    fn oversize_entries_are_rejected_not_stored() {
        let small = SpgCache::with_shards(64, 1);
        small.insert(1, q(0, 1, 1), &answer(1, 1000));
        assert_eq!(small.len(), 0);
        assert_eq!(small.bytes(), 0);
        assert_eq!(small.stats().oversize_rejections, 1);
        assert_eq!(small.stats().insertions, 0);
    }

    #[test]
    fn reinserting_a_key_refreshes_value_and_recency() {
        let a = answer(1, 8);
        let budget = 2 * entry_cost(&a) + entry_cost(&a) / 2;
        let cache = SpgCache::with_shards(budget, 1);
        cache.insert(1, q(0, 1, 1), &a); // A
        cache.insert(1, q(0, 1, 2), &answer(2, 8)); // B
        cache.insert(1, q(0, 1, 1), &answer(5, 8)); // refresh A -> MRU
        assert_eq!(cache.len(), 2, "refresh does not duplicate");
        cache.insert(1, q(0, 1, 3), &answer(3, 8)); // evicts B, not A
        assert!(cache.get(1, q(0, 1, 2)).is_none());
        let hit = cache.get(1, q(0, 1, 1)).expect("refreshed A resident");
        assert_eq!(hit.edges(), answer(5, 8).edges(), "newest value served");
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = SpgCache::new(1 << 16);
        for i in 0..32 {
            cache.insert(1, q(i, i + 1, 3), &answer(i, 3));
        }
        assert_eq!(cache.len(), 32);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().insertions, 32, "counters are monotone");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SpgCache::with_shards(1024, 0).stats().shards, 1);
        assert_eq!(SpgCache::with_shards(1024, 3).stats().shards, 4);
        assert_eq!(SpgCache::new(1024).stats().shards, DEFAULT_SHARDS);
        assert_eq!(SpgCache::new(1024).budget_bytes(), 1024);
    }

    #[test]
    fn cached_eve_hits_skip_the_pipeline_and_match() {
        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        let uncached = Eve::with_defaults(vg.graph());
        let mut ws = QueryWorkspace::new();

        // k runs to n − 1 = 7 only: k = 8 would clamp onto the k = 7 key.
        for k in 1..=7u32 {
            let (first, o1) = cached.query_with_outcome(&mut ws, q(S, T, k)).unwrap();
            let (second, o2) = cached.query_with_outcome(&mut ws, q(S, T, k)).unwrap();
            assert_eq!(o1, CacheOutcome::Miss);
            assert_eq!(o2, CacheOutcome::Hit);
            let reference = uncached.query(q(S, T, k)).unwrap();
            assert_eq!(first.edges(), reference.edges(), "k={k}");
            assert_eq!(second.edges(), reference.edges(), "k={k}");
            assert_eq!(
                second.stats().upper_bound_edges,
                reference.stats().upper_bound_edges
            );
            // A hit carries the miss's clamped query and witness; no phase
            // ran, so its timings and work counters are zero.
            assert_eq!(second.query(), first.query(), "k={k}");
            assert!(first.witness().is_some());
            assert_eq!(second.witness(), first.witness(), "k={k}");
            assert_eq!(second.stats().timings, PhaseTimings::default());
            assert_eq!(second.stats().search_space.forward_edge_scans, 0);
        }
        // k = 8 clamps to 7 and is served by the k = 7 entry immediately.
        let (_, alias) = cached.query_with_outcome(&mut ws, q(S, T, 8)).unwrap();
        assert_eq!(alias, CacheOutcome::Hit);
        assert_eq!(cached.version(), vg.version());
        assert_eq!(cached.eve().graph().edge_count(), 13);
        assert_eq!(cached.cache().stats().hits, 8);
    }

    #[test]
    fn clamped_k_shares_one_entry() {
        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        let n = vg.vertex_count() as u32;

        let full = cached.query(q(S, T, n - 1)).unwrap();
        let huge = cached.query(q(S, T, u32::MAX)).unwrap();
        assert_eq!(full.edges(), huge.edges());
        assert_eq!(huge.query().k, n - 1, "served answer records the clamp");
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "one entry for every clamped alias");
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn invalid_queries_error_and_never_touch_the_cache() {
        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        assert!(cached.query(q(S, S, 3)).is_err());
        assert!(cached.query(q(S, 99, 3)).is_err());
        assert!(cached.query(q(S, T, 0)).is_err());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn query_batch_matches_uncached_batch() {
        use crate::{BatchExecutor, FlightGroup};

        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        let eve = Eve::with_defaults(vg.graph());
        // Repeats plus an invalid slot.
        let batch = vec![
            q(S, T, 4),
            q(A, B, 3),
            q(S, T, 4),
            q(S, S, 2),
            q(A, B, 3),
            q(S, T, 7),
        ];
        let executor = BatchExecutor::new(1);
        let got =
            executor.run_cached_coalesced_with_deadlines(&cached, &FlightGroup::new(), &batch, &[]);
        let expected = executor.run(&eve, &batch);
        for (i, (g, e)) in got.results.iter().zip(&expected).enumerate() {
            match (g, e) {
                (Ok(a), Ok(b)) => assert_eq!(a.edges(), b.edges(), "slot {i}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "slot {i}"),
                other => panic!("slot {i}: Ok/Err mismatch {other:?}"),
            }
        }
        assert_eq!(
            got.stats.cache_coalesced, 2,
            "the two repeated slots fan in"
        );
        assert_eq!(cache.stats().insertions, 3, "one publish per distinct key");
    }

    #[test]
    fn binding_after_a_swap_reclaims_stale_bytes() {
        let mut vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        CachedEve::with_defaults(&vg, &cache)
            .query(q(S, T, 4))
            .unwrap();
        assert!(cache.bytes() > 0);
        let insertions = cache.stats().insertions;

        vg.replace(paper_example::figure1_graph());
        let cached = CachedEve::with_defaults(&vg, &cache); // bind sweeps retired
        assert_eq!(cache.bytes(), 0, "stale bytes reclaimed on bind");
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.insertions, insertions, "no new inserts were needed");
        assert_eq!(stats.purged_stale, 1);
        // Re-sweeping the same retired list is a deduped no-op.
        assert_eq!(cached.purge_retired(), 0);
        assert_eq!(cache.stats().purged_stale, 1);
    }

    #[test]
    fn purge_versions_is_list_driven() {
        let cache = SpgCache::new(1 << 16);
        cache.insert(1, q(0, 1, 3), &answer(1, 2));
        cache.insert(2, q(0, 1, 3), &answer(2, 2));
        cache.insert(3, q(0, 1, 3), &answer(3, 2));
        assert_eq!(cache.purge_versions(&[]), 0);
        assert_eq!(cache.purge_versions(&[2]), 1, "only the listed version");
        assert!(
            cache.get_quiet(1, q(0, 1, 3)).is_some(),
            "other graphs keep theirs"
        );
        assert!(cache.get_quiet(3, q(0, 1, 3)).is_some());
        assert_eq!(cache.purge_versions(&[2]), 0, "deduped re-sweep");
        assert_eq!(cache.stats().purged_stale, 1);
    }

    #[test]
    fn scoped_purge_checks_version_and_witness() {
        use spg_graph::{DiGraph, EdgeDelta};
        let cache = SpgCache::new(1 << 16);
        // Two versions share a key shape; only version 1 entries are swept.
        cache.insert(1, q(0, 1, 4), &answer(1, 2)); // witness-less
        cache.insert(
            1,
            q(2, 3, 4),
            &answer(2, 2).with_witness(&[2, 3]), // witness excludes 5 and 6
        );
        cache.insert(9, q(0, 1, 4), &answer(3, 2));
        assert_eq!(cache.max_resident_k(1), 4);
        assert_eq!(cache.max_resident_k(7), 0);
        let g = DiGraph::from_edges(8, [(0, 1), (5, 6)]);
        let scope = InvalidationScope::build(&g, &[EdgeDelta::remove(5, 6)], 4);
        assert_eq!(cache.purge_scoped(1, &scope), 1, "witness-less entry only");
        assert!(cache.get_quiet(1, q(0, 1, 4)).is_none());
        assert!(
            cache.get_quiet(1, q(2, 3, 4)).is_some(),
            "witness cleared it"
        );
        assert!(
            cache.get_quiet(9, q(0, 1, 4)).is_some(),
            "other version safe"
        );
        assert_eq!(cache.stats().purged_scoped, 1);
    }

    #[test]
    fn entry_overhead_covers_every_fixed_allocation() {
        let row = mem::size_of::<SlotKey>() + mem::size_of::<Signature>();
        let fixed = row // the purge row: key and signature
            + mem::size_of::<Slot>() // the slab slot
            + mem::size_of::<(SlotKey, u32)>() // at least one index-map key slot
            + ARC_HEADER_BYTES
            + mem::size_of::<EdgeSubgraph>() // the shared edge-list allocation
            + ARC_HEADER_BYTES; // the witness allocation's header
        assert!(ENTRY_OVERHEAD_BYTES >= fixed);
        assert_eq!(ARC_HEADER_BYTES, mem::size_of::<Arc<EdgeSubgraph>>() * 2);
        // An empty, witness-less answer is charged exactly the overhead.
        assert_eq!(entry_cost(&answer(1, 0)), ENTRY_OVERHEAD_BYTES);
        // The row is what a purge streams; the slot holds no key.
        assert!(row <= 64);
        assert!(mem::size_of::<Slot>() <= 48);
    }

    #[test]
    fn signature_false_positives_fall_through_to_the_witness() {
        use spg_graph::{DiGraph, EdgeDelta};
        let witness: Vec<VertexId> = (0..40).collect();
        let sig = Signature::of(Some(&witness));
        let bits = |v: VertexId| Signature::of(Some(&[v]));
        // Vertices outside the witness whose bits the signature holds
        // anyway, and one it rules out.
        let mut decoys = (40..).filter(|&v| sig.holds(&bits(v)));
        let (a2, b2) = (decoys.next().unwrap(), decoys.next().unwrap());
        let outsider = (40..).find(|&v| !sig.holds(&bits(v))).unwrap();
        assert!(sig.holds(&Signature::of_edge(a2, b2)));
        assert!(!sig.holds(&Signature::of_edge(3, outsider)));
        assert!(Signature::of(None).holds(&Signature::of_edge(a2, b2)));
        assert!(!Signature::EMPTY.holds(&Signature::of_edge(3, 7)));

        let cache = SpgCache::with_shards(1 << 16, 1);
        cache.insert(1, q(0, 1, 4), &answer(1, 2).with_witness(&witness));
        let g = DiGraph::empty(a2.max(b2) as usize + 1);
        let decoy = InvalidationScope::build(&g, &[EdgeDelta::remove(a2, b2)], 4);
        assert_eq!(
            cache.purge_scoped(1, &decoy),
            0,
            "the signature passes both decoys; the witness search rejects them"
        );
        let real = InvalidationScope::build(&g, &[EdgeDelta::remove(3, 7)], 4);
        assert_eq!(cache.purge_scoped(1, &real), 1);
    }

    #[test]
    fn resident_k_tallies_follow_inserts_evictions_and_purges() {
        let a = answer(1, 8);
        let budget = 2 * entry_cost(&a) + entry_cost(&a) / 2;
        let cache = SpgCache::with_shards(budget, 1);
        assert_eq!(cache.resident_k(1), None);
        cache.insert(1, q(0, 1, 7), &a);
        cache.insert(1, q(0, 1, 3), &answer(2, 8));
        cache.insert(2, q(0, 1, 9), &answer(3, 8)); // evicts the k = 7 entry
        assert_eq!(cache.max_resident_k(1), 3);
        assert_eq!(cache.max_resident_k(2), 9);
        cache.insert(1, q(0, 1, 5), &answer(4, 8)); // evicts the k = 3 entry
        assert_eq!(cache.max_resident_k(1), 5);
        assert_eq!(cache.purge_other_versions(2), 1);
        assert_eq!(cache.resident_k(1), None, "nothing of version 1 is left");
        assert_eq!(cache.resident_k(2), Some(9));
        // A freed tally is reused by the next version.
        cache.insert(3, q(0, 1, 2), &answer(5, 8));
        assert_eq!(cache.max_resident_k(3), 2);
        assert_eq!(cache.shards[0].lock().unwrap().tallies.len(), 2);
        cache.clear();
        assert_eq!(cache.resident_k(2), None);
    }

    #[test]
    fn entry_cost_charges_the_witness() {
        let bare = answer(1, 4);
        let witnessed = answer(1, 4).with_witness(&[0, 1, 2, 3]);
        assert_eq!(
            entry_cost(&witnessed),
            entry_cost(&bare) + 4 * mem::size_of::<VertexId>()
        );
    }

    #[test]
    fn entry_cost_tracks_answer_size() {
        let small = answer(1, 2);
        let large = answer(1, 200);
        assert!(entry_cost(&large) > entry_cost(&small));
        assert!(entry_cost(&small) >= ENTRY_OVERHEAD_BYTES);
        // Pipeline-produced answers use the recorded MemoryEstimate.
        let g = paper_example::figure1_graph();
        let spg = Eve::with_defaults(&g).query(q(S, T, 7)).unwrap();
        assert!(entry_cost(&spg) >= ENTRY_OVERHEAD_BYTES + spg.stats().memory.verification_bytes);
    }
}
