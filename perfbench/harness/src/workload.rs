//! The three workloads and their seeded inputs.
//!
//! Everything here runs before the server is spawned: graphs, request
//! streams, update edges and the pre-encoded request frames. The same
//! `(workload, scale, seed, seconds)` always yields the same inputs.

use std::path::Path;
use std::time::Duration;

use spg_core::Query;
use spg_graph::generators::{gnm_random, TransactionGraph, TransactionGraphConfig};
use spg_graph::hash::FxHashSet;
use spg_graph::io::{read_edge_list_file, write_edge_list_file};
use spg_graph::{multi_source_distances, DeltaOp, DiGraph, Direction, EdgeDelta, VertexId};
use spg_server::json::{self, Json};
use spg_workloads::{mixed_k_queries, open_loop_poisson};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotReads,
    ColdUniform,
    RingUpdates,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::HotReads, Kind::ColdUniform, Kind::RingUpdates];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotReads => "hot_reads",
            Kind::ColdUniform => "cold_uniform",
            Kind::RingUpdates => "ring_updates",
        }
    }
}

/// Hop constraints of the hot keys.
pub const HOT_KS: [u32; 4] = [5, 6, 7, 8];
/// Hop constraint of every cold query.
pub const COLD_K: u32 = 6;
/// Hop constraints of each ring burst, per (suspect, mule) pair.
pub const RING_KS: [u32; 3] = [4, 5, 6];

/// Sizes of one benchmark configuration. [`Scale::FULL`] is what the
/// benchmark measures; [`Scale::TINY`] runs the same code in seconds for the
/// self-check.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `gnm(n, m, seed)` served to `hot_reads` and `cold_uniform`.
    pub gnm: (usize, usize, u64),
    /// Transaction network of `ring_updates`.
    pub accounts: usize,
    pub background: usize,
    /// Distinct prewarmed keys of `hot_reads`.
    pub hot_keys: usize,
    /// Offered Poisson rate of `hot_reads`, requests/second.
    pub hot_rate: f64,
    /// Requests in flight in the `cold_uniform` closed loop.
    pub inflight: usize,
    /// Suspects (and mules) per ring burst.
    pub ring_side: usize,
    /// Largest request rate the cold pool and the ring bursts are sized
    /// for; a faster server ends the measured phase early.
    pub rate_cap: f64,
    /// Post-phase updates on the workloads whose main loop has none (see
    /// `README.md`).
    pub probe_updates: usize,
    /// Server start-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests replayed in the traced run (a prefix of the measured
    /// stream, plus the warm-up and the probes).
    pub replay_requests: usize,
    /// Fewest latency samples a valid run keeps.
    pub min_samples: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        gnm: (4_000, 24_000, 7),
        accounts: 3_000,
        background: 18_000,
        hot_keys: 256,
        hot_rate: 2_000.0,
        inflight: 128,
        ring_side: 8,
        rate_cap: 26_000.0,
        probe_updates: 32,
        setups: 9,
        replay_requests: 8_192,
        min_samples: 1_000,
    };

    pub const TINY: Scale = Scale {
        gnm: (300, 1_800, 7),
        accounts: 300,
        background: 1_800,
        hot_keys: 32,
        hot_rate: 500.0,
        inflight: 16,
        ring_side: 3,
        rate_cap: 40_000.0,
        probe_updates: 4,
        setups: 2,
        replay_requests: 512,
        min_samples: 50,
    };

    pub fn burst_len(&self) -> usize {
        self.ring_side * self.ring_side * RING_KS.len()
    }
}

/// One `ring_updates` burst: fresh suspect × mule × k triples, then the
/// awaited update.
#[derive(Debug, Clone)]
pub struct Burst {
    pub queries: Vec<Query>,
    pub update: EdgeDelta,
}

/// The measured request stream of a workload.
#[derive(Debug, Clone)]
pub enum Stream {
    /// Open loop: request `i` asks `draws[i]` at offset `schedule[i]`.
    Open {
        draws: Vec<Query>,
        schedule: Vec<Duration>,
    },
    /// Closed loop over distinct queries, `inflight` outstanding.
    Closed { pool: Vec<Query> },
    /// Closed loop of pipelined bursts, each followed by one update.
    Bursts { bursts: Vec<Burst> },
}

pub struct Workload {
    pub scale: Scale,
    /// The served graph, identical to what the server builds or loads.
    pub graph: DiGraph,
    /// The server's graph flag.
    pub graph_args: Vec<String>,
    /// Prewarmed keys, sent pipelined during set-up.
    pub warmup: Vec<Query>,
    pub stream: Stream,
    /// Post-phase updates of `hot_reads` and `cold_uniform`: alternately add
    /// and remove this absent edge.
    pub probe_updates: Vec<EdgeDelta>,
}

/// SplitMix64: a tiny seeded generator for the harness's own draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn absent_edge(graph: &DiGraph, rng: &mut Rng) -> (VertexId, VertexId) {
    let n = graph.vertex_count();
    loop {
        let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        if u != v && !graph.has_edge(u, v) {
            return (u, v);
        }
    }
}

fn distinct(queries: Vec<Query>) -> Vec<Query> {
    let mut seen = FxHashSet::default();
    queries.into_iter().filter(|q| seen.insert(*q)).collect()
}

impl Workload {
    /// Builds the inputs of `kind` for a run of `seconds` seconds.
    /// `ring_updates` writes its graph as an edge list into `out_dir` and
    /// serves it from there.
    pub fn build(
        kind: Kind,
        scale: Scale,
        seed: u64,
        seconds: f64,
        out_dir: &Path,
    ) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        let (n, m, gseed) = scale.gnm;
        let budget = (scale.rate_cap * seconds).ceil() as usize;
        let mut probe_updates = Vec::new();
        let (graph, graph_args, warmup, stream) = match kind {
            Kind::HotReads => {
                let graph = gnm_random(n, m, gseed);
                // The working set is part of the workload, like the graph:
                // fixed keys, so runs on different seeds differ only in the
                // traffic (draws and schedule), not in which answers are hot.
                let mut keys =
                    distinct(mixed_k_queries(&graph, 2 * scale.hot_keys, &HOT_KS, gseed));
                if keys.len() < scale.hot_keys {
                    return Err(format!("only {} distinct hot keys", keys.len()));
                }
                keys.truncate(scale.hot_keys);
                let count = (scale.hot_rate * seconds).ceil() as usize;
                let draws = (0..count).map(|_| keys[rng.below(keys.len())]).collect();
                let schedule = open_loop_poisson(count, scale.hot_rate, seed ^ 0x0A11_CE55);
                let args = vec!["--gnm".into(), format!("{n},{m},{gseed}")];
                (graph, args, keys, Stream::Open { draws, schedule })
            }
            Kind::ColdUniform => {
                let graph = gnm_random(n, m, gseed);
                let pool = cold_pool(&graph, budget, &mut rng);
                if pool.len() < scale.inflight {
                    return Err(format!("only {} distinct cold queries", pool.len()));
                }
                let args = vec!["--gnm".into(), format!("{n},{m},{gseed}")];
                (graph, args, Vec::new(), Stream::Closed { pool })
            }
            Kind::RingUpdates => {
                let network = TransactionGraph::generate(TransactionGraphConfig {
                    accounts: scale.accounts,
                    background_transactions: scale.background,
                    ..TransactionGraphConfig::default()
                });
                let path = out_dir.join("ring-graph.txt");
                write_edge_list_file(&network.full_graph(), &path)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                // Read back, so the harness's mirror is exactly the graph the
                // server loads from the same file.
                let graph = read_edge_list_file(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let count = budget / scale.burst_len() + 1;
                let bursts = ring_bursts(&graph, scale.ring_side, count, &mut rng);
                let args = vec!["--graph".into(), path.display().to_string()];
                (graph, args, Vec::new(), Stream::Bursts { bursts })
            }
        };
        if kind != Kind::RingUpdates {
            let (u, v) = absent_edge(&graph, &mut rng);
            probe_updates = (0..scale.probe_updates)
                .map(|i| {
                    if i % 2 == 0 {
                        EdgeDelta::add(u, v)
                    } else {
                        EdgeDelta::remove(u, v)
                    }
                })
                .collect();
        }
        Ok(Workload {
            scale,
            graph,
            graph_args,
            warmup,
            stream,
            probe_updates,
        })
    }
}

/// `count` distinct uniform reachable `COLD_K` queries, drawn as
/// `reachable_queries` draws them (uniform source with out-edges, uniform
/// distinct target, kept when reachable within `k`), but testing
/// reachability against each source's `k`-hop ball, computed once.
fn cold_pool(graph: &DiGraph, count: usize, rng: &mut Rng) -> Vec<Query> {
    let n = graph.vertex_count();
    let mut balls: Vec<Option<Vec<u64>>> = vec![None; n];
    let mut seen = FxHashSet::default();
    let mut pool = Vec::with_capacity(count);
    for _ in 0..count.saturating_mul(64) {
        if pool.len() == count {
            break;
        }
        let (s, t) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        if s == t || graph.out_degree(s) == 0 {
            continue;
        }
        let ball = balls[s as usize].get_or_insert_with(|| {
            let mut bits = vec![0u64; n.div_ceil(64)];
            let dist = multi_source_distances(graph, &[s], Direction::Forward, COLD_K);
            for (v, &d) in dist.iter().enumerate() {
                if d <= COLD_K {
                    bits[v / 64] |= 1 << (v % 64);
                }
            }
            bits
        });
        let reachable = ball[t as usize / 64] >> (t % 64) & 1 == 1;
        if reachable && seen.insert((s, t)) {
            pool.push(Query::new(s, t, COLD_K));
        }
    }
    pool
}

/// `count` bursts of fresh `side × side × RING_KS` triples. Suspects and
/// mules are drawn so that no (suspect, mule) pair repeats across bursts, so
/// no triple ever repeats. Even bursts end by adding a mule → suspect edge
/// absent from the base graph; odd bursts remove it again, so every even
/// burst runs on the base graph.
fn ring_bursts(graph: &DiGraph, side: usize, count: usize, rng: &mut Rng) -> Vec<Burst> {
    let n = graph.vertex_count();
    let mut used: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
    let mut bursts: Vec<Burst> = Vec::with_capacity(count);
    while bursts.len() < count {
        let mut picked: Vec<VertexId> = Vec::with_capacity(2 * side);
        while picked.len() < 2 * side {
            let v = rng.below(n) as VertexId;
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        let (suspects, mules) = picked.split_at(side);
        if suspects
            .iter()
            .any(|&s| mules.iter().any(|&t| used.contains(&(s, t))))
        {
            continue;
        }
        let update = match bursts.last() {
            Some(prev) if prev.update.op == DeltaOp::Add => {
                EdgeDelta::remove(prev.update.source, prev.update.target)
            }
            _ => match mules
                .iter()
                .flat_map(|&m| suspects.iter().map(move |&s| (m, s)))
                .find(|&(m, s)| !graph.has_edge(m, s))
            {
                Some((m, s)) => EdgeDelta::add(m, s),
                None => continue,
            },
        };
        let mut queries = Vec::with_capacity(side * side * RING_KS.len());
        for &s in suspects {
            for &t in mules {
                used.insert((s, t));
                queries.extend(RING_KS.iter().map(|&k| Query::new(s, t, k)));
            }
        }
        bursts.push(Burst { queries, update });
    }
    bursts
}

/// Request-id ranges, so every reply maps back to what asked for it.
pub mod ids {
    pub const WARMUP: u64 = 1 << 48;
    pub const UPDATE: u64 = 3 << 48;
    pub const PING: u64 = 4 << 48;
    pub const STATS: u64 = 5 << 48;
}

/// The JSON payload of a query request, exactly as `SpgClient` sends it.
pub fn query_payload(id: u64, q: Query) -> Vec<u8> {
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("op".into(), Json::Str("query".into())),
        ("s".into(), Json::Uint(q.source as u64)),
        ("t".into(), Json::Uint(q.target as u64)),
        ("k".into(), Json::Uint(q.k as u64)),
    ]))
    .into_bytes()
}

pub fn update_payload(id: u64, d: EdgeDelta) -> Vec<u8> {
    let edge = Json::Array(vec![Json::Array(vec![
        Json::Uint(d.source as u64),
        Json::Uint(d.target as u64),
    ])]);
    let key = match d.op {
        DeltaOp::Add => "add",
        DeltaOp::Remove => "remove",
    };
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("op".into(), Json::Str("update".into())),
        (key.into(), edge),
    ]))
    .into_bytes()
}

pub fn op_payload(id: u64, op: &str) -> Vec<u8> {
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("op".into(), Json::Str(op.into())),
    ]))
    .into_bytes()
}

/// Appends `payload` to `out` as one length-prefixed frame.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}
