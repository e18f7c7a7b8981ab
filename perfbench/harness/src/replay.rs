//! The traced replay: a workload's exact request sequence (its warm-up, a
//! prefix of the measured stream, and its updates) run in-process through
//! the public function of every layer, one span per call. It gives the
//! per-layer numbers without any tracing inside the program or the
//! end-to-end run.
//!
//! * `admission` — a `BatchQueue` at the server's default config, fed the
//!   workload's arrival rule (open-loop schedule, 128 in flight, or whole
//!   bursts) by a producer thread while a consumer pops batches and does no
//!   other work, so the wait is what admission itself adds.
//! * `protocol`, `cache`, `executor` — each replayed batch is parsed,
//!   probed, drained through `run_cached_coalesced_with_deadlines` on the
//!   server's executor configuration, and its replies encoded.
//! * `eve` — every miss is recomputed with `Eve::query_with` (which also
//!   checks the drain's answer); its phases 1a–3 become child spans placed
//!   back to back from the engine's own `EveStats` timers. Phase 1a is also
//!   run split, as `FlatDistances::compute` then
//!   `SearchSpace::rebuild_from_flat`.
//! * `cohort` — the drains' `BatchStats.phase1` counters.
//! * `dynamic` — each update runs the steps of `apply_delta_scoped` one
//!   call at a time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spg_core::{
    BatchExecutor, CacheOutcome, CachedEve, Eve, EveConfig, FlightGroup, InvalidationScope, Query,
    QueryWorkspace, SpgCache,
};
use spg_graph::{DeltaOp, EdgeDelta, FlatDistances, SearchSpace, SpaceScratch, VersionedGraph};
use spg_server::protocol::{self, ok_response, query_error_response, Request};
use spg_server::{BatchQueue, ServerConfig};

use crate::e2e::E2e;
use crate::load::wait_until;
use crate::report::{median, ratio, Metrics};
use crate::trace::Tracer;
use crate::verify::Check;
use crate::workload::{ids, query_payload, Stream, Workload};

/// How the admission simulation's producer releases requests.
enum Arrivals<'a> {
    Schedule(&'a [Duration]),
    InFlight(usize),
    Bursts(usize),
}

/// Batches formed by the simulated admission queue (request indices), and
/// how many closed on the window rather than full.
fn admission(
    tracer: &mut Tracer,
    n: usize,
    arrivals: Arrivals<'_>,
    cfg: &ServerConfig,
) -> (Vec<Vec<usize>>, usize) {
    let queue: BatchQueue<(usize, Instant)> =
        BatchQueue::new(cfg.queue_capacity, cfg.batch_max, cfg.batch_deadline);
    let popped = AtomicUsize::new(0);
    let mut batches = Vec::new();
    let mut by_window = 0;
    let mut waits = Vec::with_capacity(n);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..n {
                match arrivals {
                    Arrivals::Schedule(offsets) => wait_until(start + offsets[i]),
                    Arrivals::InFlight(limit) => {
                        while i - popped.load(Ordering::Acquire) >= limit {
                            std::thread::yield_now();
                        }
                    }
                    Arrivals::Bursts(len) => {
                        while i % len == 0 && popped.load(Ordering::Acquire) < i {
                            std::thread::yield_now();
                        }
                    }
                }
                let mut item = (i, Instant::now());
                while let Err(back) = queue.push(item) {
                    item = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut total = 0;
        while total < n {
            let Some(batch) = queue.next_batch() else {
                break;
            };
            let now = Instant::now();
            by_window += usize::from(batch.len() < cfg.batch_max);
            total += batch.len();
            popped.store(total, Ordering::Release);
            waits.extend(batch.iter().map(|&(i, pushed)| (i, pushed, now)));
            batches.push(batch.into_iter().map(|(i, _)| i).collect());
        }
    });
    for (i, pushed, popped_at) in waits {
        let (a, b) = (tracer.ns_of(pushed), tracer.ns_of(popped_at));
        tracer.record("admission", "admission.wait", i as u64, None, a, b);
    }
    (batches, by_window)
}

/// Replay state: the server's components, in-process.
struct Replay {
    graph: VersionedGraph,
    cache: SpgCache,
    /// Receives the timed `SpgCache::insert` calls, so the replayed cache
    /// sees each insert once, as the server's does.
    insert_cache: SpgCache,
    flights: FlightGroup,
    executor: BatchExecutor,
    ws: QueryWorkspace,
    fd: FlatDistances,
    space: SearchSpace,
    scratch: SpaceScratch,
    batches: u64,
    /// Counter sums over the replay.
    misses: usize,
    phase1: spg_core::SharedPhase1Stats,
    touched: usize,
    kept: usize,
    ub_extra: usize,
    answer_edges: usize,
    /// Drain spans of the measured batches, with their batch sizes.
    drains: Vec<(usize, usize)>,
    reply_bytes: Vec<u64>,
    purged: Vec<f64>,
    survivors: Vec<f64>,
}

impl Replay {
    fn new(w: &Workload, cfg: &ServerConfig) -> Replay {
        let executor = if cfg.threads == 0 {
            BatchExecutor::with_available_parallelism()
        } else {
            BatchExecutor::new(cfg.threads)
        }
        .shared_phase1(cfg.shared_phase1)
        .phase1_lanes(cfg.phase1_lanes);
        Replay {
            graph: VersionedGraph::new(w.graph.clone()),
            cache: SpgCache::new(cfg.cache_bytes),
            insert_cache: SpgCache::new(cfg.cache_bytes),
            flights: FlightGroup::new(),
            executor,
            ws: QueryWorkspace::new(),
            fd: FlatDistances::new(),
            space: SearchSpace::new(),
            scratch: SpaceScratch::new(),
            batches: 0,
            misses: 0,
            phase1: Default::default(),
            touched: 0,
            kept: 0,
            ub_extra: 0,
            answer_edges: 0,
            drains: Vec::new(),
            reply_bytes: Vec::new(),
            purged: Vec::new(),
            survivors: Vec::new(),
        }
    }

    /// One drained batch: parse, probe, drain, encode; then the per-miss
    /// engine spans.
    fn batch(&mut self, t: &mut Tracer, members: &[(u64, Query)], check: &mut Check) {
        let queries: Vec<Query> = members.iter().map(|m| m.1).collect();
        for &(id, q) in members {
            let payload = query_payload(id, q);
            let (parsed, _) = t.time("protocol", "protocol.parse", id, None, || {
                protocol::parse_request(&payload)
            });
            if !matches!(parsed, Ok(Request::Query { query, .. }) if query == q) {
                check.fail(format!("replay: request {id} did not parse back"));
            }
        }
        let version = self.graph.version();
        for &(id, q) in members {
            let clamped = q.clamped_to(self.graph.graph());
            t.time("cache", "cache.probe", id, None, || {
                self.cache.get(version, clamped)
            });
        }
        let cached = CachedEve::with_defaults(&self.graph, &self.cache);
        let batch_no = self.batches;
        self.batches += 1;
        let (outcome, drain) = t.time("executor", "executor.drain", batch_no, None, || {
            self.executor
                .run_cached_coalesced_with_deadlines(&cached, &self.flights, &queries, &[])
        });
        let (d0, d1) = (t.spans[drain].start_ns, t.spans[drain].end_ns);
        self.drains.push((drain, members.len()));
        // The engine work the drain ran, from the engine's own timers, as
        // children of the drain: each piece on the least-loaded of the
        // drain's workers, so the drain's self time is its wall time minus
        // the engine time per worker.
        let mut lanes = vec![d0; outcome.stats.threads.max(1)];
        let traversal = (
            "cohort",
            "executor.traversal",
            outcome.stats.phase1.traversal_time,
        );
        let engine = outcome
            .results
            .iter()
            .zip(&outcome.slot_sources)
            .filter(|(_, source)| **source == Some(CacheOutcome::Miss))
            .filter_map(|(r, _)| r.as_ref().ok())
            .map(|spg| ("eve", "executor.engine", spg.stats().timings.total()));
        for (layer, name, d) in std::iter::once(traversal).chain(engine) {
            let lane = (0..lanes.len()).min_by_key(|&l| lanes[l]).unwrap_or(0);
            let end = (lanes[lane] + d.as_nanos() as u64).min(d1);
            t.record(layer, name, batch_no, Some(drain), lanes[lane], end);
            lanes[lane] = end;
        }
        self.misses += outcome.stats.cache_misses;
        let p = outcome.stats.phase1;
        self.phase1.phase1_shared += p.phase1_shared;
        self.phase1.distinct_endpoints += p.distinct_endpoints;
        self.phase1.cohorts += p.cohorts;
        self.phase1.traversal_time += p.traversal_time;
        self.phase1.traversal.forward_edge_scans += p.traversal.forward_edge_scans;
        self.phase1.traversal.backward_edge_scans += p.traversal.backward_edge_scans;
        self.phase1.traversal.bottom_up_edge_scans += p.traversal.bottom_up_edge_scans;

        let g = self.graph.graph();
        for (i, &(id, q)) in members.iter().enumerate() {
            let result = &outcome.results[i];
            let (reply, _) = t.time("protocol", "protocol.encode", id, None, || {
                match (result, outcome.slot_sources[i]) {
                    (Ok(spg), Some(source)) => ok_response(id, source, spg.query().k, spg.edges()),
                    (Ok(_), None) => String::new(),
                    (Err(err), _) => query_error_response(id, err),
                }
            });
            self.reply_bytes.push(reply.len() as u64);
            let Ok(spg) = result else {
                check.fail(format!("replay: query {id} failed"));
                continue;
            };
            if outcome.slot_sources[i] != Some(CacheOutcome::Miss) {
                continue;
            }
            t.time("cache", "cache.insert", id, None, || {
                self.insert_cache.insert(version, spg.query(), spg)
            });
            let (oracle, eve) = t.time("eve", "eve.query", id, None, || {
                Eve::with_defaults(g).query_with(&mut self.ws, q)
            });
            match oracle {
                Ok(answer) if answer.edges() == spg.edges() => {
                    let timings = answer.stats().timings;
                    let mut at = t.spans[eve].start_ns;
                    for (name, d) in [
                        ("eve.p1a", timings.distance),
                        ("eve.p1b", timings.propagation),
                        ("eve.p2", timings.labeling),
                        ("eve.p3", timings.verification),
                    ] {
                        let end = at + d.as_nanos() as u64;
                        t.record("eve", name, id, Some(eve), at, end);
                        at = end;
                    }
                    self.ub_extra += answer.stats().upper_bound_edges - answer.edge_count();
                    self.answer_edges += answer.edge_count();
                }
                _ => check.fail(format!("replay: drain answer of {id} differs from Eve")),
            }
            let c = q.clamped_to(g);
            let strategy = EveConfig::default().distance_strategy;
            t.time("eve", "eve.p1a_bfs", id, None, || {
                self.fd.compute(g, c.source, c.target, c.k, strategy)
            });
            t.time("eve", "eve.p1a_compact", id, None, || {
                self.space.rebuild_from_flat(g, &self.fd, &mut self.scratch)
            });
            self.touched += self.fd.forward_seen().len();
            self.kept += self.space.vertex_count();
        }
    }

    /// One update, as `apply_delta_scoped` performs it, a call at a time.
    fn update(&mut self, t: &mut Tracer, id: u64, delta: EdgeDelta, check: &mut Check) {
        let deltas = [delta];
        let before = self.cache.len();
        let root = t.open("dynamic", "dynamic.update", id);
        let (applied, _) = t.time("dynamic", "dynamic.apply", id, Some(root), || {
            self.graph.apply_delta(&deltas)
        });
        if applied.map_or(true, |a| a.applied != 1) {
            check.fail(format!("replay: update {id} did not apply"));
        }
        let version = self.graph.version();
        let (max_k, _) = t.time("dynamic", "dynamic.max_k", id, Some(root), || {
            self.cache.max_resident_k(version)
        });
        let mut purged = 0;
        if !(max_k == 0 && delta.op == DeltaOp::Add) {
            let (scope, _) = t.time("dynamic", "dynamic.scope", id, Some(root), || {
                InvalidationScope::build(self.graph.graph(), &deltas, max_k)
            });
            if !scope.is_vacuous() {
                purged = t
                    .time("dynamic", "dynamic.purge", id, Some(root), || {
                        self.cache.purge_scoped(version, &scope)
                    })
                    .0;
            }
        }
        t.close(root);
        self.purged.push(purged as f64);
        self.survivors
            .push(ratio(self.cache.len() as f64, before as f64));
    }
}

/// Median self time per request of each step on a request's path, largest
/// first: the check that each workload loads the layer it is for.
pub type Ranking = Vec<(&'static str, f64)>;

/// Runs the replay of `w` after its end-to-end run `e2e`; returns the
/// per-layer metrics and the self-time ranking, and fills `tracer`.
pub fn run(w: &Workload, e2e: &E2e, tracer: &mut Tracer, check: &mut Check) -> (Metrics, Ranking) {
    let cfg = ServerConfig::default();
    let mut r = Replay::new(w, &cfg);
    let stream = crate::e2e::stream_queries(w);

    // Warm-up: pipelined, so drained in full batches.
    let warm: Vec<(u64, Query)> = w
        .warmup
        .iter()
        .enumerate()
        .map(|(i, &q)| (ids::WARMUP + i as u64, q))
        .collect();
    for chunk in warm.chunks(cfg.batch_max) {
        r.batch(tracer, chunk, check);
    }

    // Measured prefix, batched as the admission simulation forms batches.
    let burst = w.scale.burst_len();
    let mut n = e2e.sent.min(w.scale.replay_requests);
    let arrivals = match &w.stream {
        Stream::Open { schedule, .. } => Arrivals::Schedule(schedule),
        Stream::Closed { .. } => Arrivals::InFlight(w.scale.inflight),
        Stream::Bursts { .. } => {
            n -= n % burst;
            Arrivals::Bursts(burst)
        }
    };
    let (batches, by_window) = admission(tracer, n, arrivals, &cfg);
    r.drains.clear();
    let mut done = 0;
    for batch in &batches {
        let members: Vec<(u64, Query)> = batch.iter().map(|&i| (i as u64, stream[i])).collect();
        r.batch(tracer, &members, check);
        done += batch.len();
        if let Stream::Bursts { bursts } = &w.stream {
            if done % burst == 0 {
                let b = done / burst - 1;
                r.update(tracer, ids::UPDATE + b as u64, bursts[b].update, check);
            }
        }
    }
    for (i, &d) in w.probe_updates.iter().enumerate() {
        r.update(tracer, ids::UPDATE + i as u64, d, check);
    }

    // ---- Per-layer metrics.
    let selfs = tracer.self_times();
    let med = |name: &str| median(&tracer.self_of(&selfs, name));
    let dur = |name: &str| -> Vec<u64> {
        tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    };
    let update_purge: Vec<u64> = {
        let max_k = dur("dynamic.max_k");
        let mut purge = vec![0u64; max_k.len()];
        let roots: Vec<usize> = (0..tracer.spans.len())
            .filter(|&i| tracer.spans[i].name == "dynamic.update")
            .collect();
        for s in tracer.spans.iter().filter(|s| s.name == "dynamic.purge") {
            if let Some(slot) = roots.iter().position(|&root| Some(root) == s.parent) {
                purge[slot] += s.end_ns - s.start_ns;
            }
        }
        max_k.iter().zip(purge).map(|(a, b)| a + b).collect()
    };
    // Per measured request, a value of the drain it waited for.
    let drain_ns = |d: usize| tracer.spans[d].end_ns - tracer.spans[d].start_ns;
    let per_request = |f: &dyn Fn(usize, u64) -> u64| -> Vec<u64> {
        r.drains
            .iter()
            .flat_map(|&(d, len)| std::iter::repeat(f(d, len as u64)).take(len))
            .collect()
    };
    let drain_wall = per_request(&|d, _| drain_ns(d));
    let ph = r.phase1;
    let scans = ph.traversal.forward_edge_scans
        + ph.traversal.backward_edge_scans
        + ph.traversal.bottom_up_edge_scans;
    let stats = e2e.phase_stats;
    let wait_us = med("admission.wait") / 1e3;
    let blocking_us =
        (med("protocol.parse") + med("protocol.encode") + median(&drain_wall)) / 1e3 + wait_us;

    let mut m = Metrics::default();
    m.put("wire.ping_p50_us", e2e.ping_p50_us, "us");
    m.put("protocol.parse_ns", med("protocol.parse"), "ns");
    m.put("protocol.encode_ns", med("protocol.encode"), "ns");
    m.put("protocol.reply_bytes", median(&r.reply_bytes), "B");
    m.put("admission.wait_p50_us", wait_us, "us");
    m.put(
        "admission.deadline_closed_ratio",
        ratio(by_window as f64, batches.len() as f64),
        "ratio",
    );
    m.put(
        "admission.batch_size",
        ratio(stats.answered, stats.batches),
        "count",
    );
    m.put(
        "executor.drain_us_per_query",
        median(&per_request(&|d, len| drain_ns(d) / len)) / 1e3,
        "us",
    );
    m.put("cache.probe_ns", med("cache.probe"), "ns");
    m.put("cache.insert_ns", med("cache.insert"), "ns");
    m.put(
        "cache.hit_ratio",
        ratio(stats.hits, stats.hits + stats.misses),
        "ratio",
    );
    m.put(
        "cache.resident_mb",
        e2e.end_stats.cache_bytes / (1024.0 * 1024.0),
        "MiB",
    );
    m.put("eve.query_us", median(&dur("eve.query")) / 1e3, "us");
    m.put("eve.p1a_bfs_us", med("eve.p1a_bfs") / 1e3, "us");
    m.put("eve.p1a_compact_us", med("eve.p1a_compact") / 1e3, "us");
    m.put(
        "eve.bfs_touched",
        ratio(r.touched as f64, r.misses as f64),
        "count",
    );
    m.put(
        "eve.space_vertices",
        ratio(r.kept as f64, r.misses as f64),
        "count",
    );
    m.put(
        "eve.bfs_overshoot",
        ratio(r.touched as f64, r.kept as f64),
        "ratio",
    );
    m.put("eve.p1b_us", med("eve.p1b") / 1e3, "us");
    m.put("eve.p2_us", med("eve.p2") / 1e3, "us");
    m.put("eve.p3_us", med("eve.p3") / 1e3, "us");
    m.put(
        "eve.ub_redundant_ratio",
        ratio(r.ub_extra as f64, r.answer_edges as f64),
        "ratio",
    );
    m.put(
        "cohort.shared_ratio",
        ratio(ph.phase1_shared as f64, r.misses as f64),
        "ratio",
    );
    m.put(
        "cohort.lanes_per_cohort",
        ratio(ph.distinct_endpoints as f64, ph.cohorts as f64),
        "count",
    );
    m.put(
        "cohort.dedup_ratio",
        ratio(ph.phase1_shared as f64, ph.distinct_endpoints as f64),
        "ratio",
    );
    m.put(
        "cohort.traversal_us",
        ratio(ph.traversal_time.as_secs_f64() * 1e6, ph.cohorts as f64),
        "us",
    );
    m.put(
        "cohort.bottom_up_share",
        ratio(ph.traversal.bottom_up_edge_scans as f64, scans as f64),
        "ratio",
    );
    m.put("dynamic.update_p50_us", e2e.update_p50_us, "us");
    m.put(
        "dynamic.apply_us",
        median(&dur("dynamic.apply")) / 1e3,
        "us",
    );
    m.put(
        "dynamic.scope_us",
        median(&dur("dynamic.scope")) / 1e3,
        "us",
    );
    m.put("dynamic.purge_us", median(&update_purge) / 1e3, "us");
    m.put("dynamic.purged_per_update", mean(&r.purged), "count");
    m.put("dynamic.survivor_ratio", mean(&r.survivors), "ratio");
    m.put("harness.send_late_p90_us", e2e.send_late_p90_us, "us");
    m.put("harness.client_cpu_share", e2e.client_cpu_share, "ratio");
    let p50 = e2e.metrics.get("p50_us").unwrap_or(0.0);
    m.put(
        "trace.explained_share",
        ratio(blocking_us + e2e.ping_p50_us, p50),
        "ratio",
    );

    // The executor's share of a request: its drain's self time (wall minus
    // the engine work per worker) divided by the batch size.
    let executor = per_request(&|d, len| selfs[d] / len);
    let us = |name: &str| med(name) / 1e3;
    let mut ranking = vec![
        ("protocol.parse", us("protocol.parse")),
        ("admission.wait", us("admission.wait")),
        ("cache.probe", us("cache.probe")),
        ("executor.self_per_query", median(&executor) / 1e3),
        (
            "eve.p1a_bfs+compact",
            us("eve.p1a_bfs") + us("eve.p1a_compact"),
        ),
        ("eve.p1b", us("eve.p1b")),
        ("eve.p2", us("eve.p2")),
        ("eve.p3", us("eve.p3")),
        ("protocol.encode", us("protocol.encode")),
    ];
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
    (m, ranking)
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}
