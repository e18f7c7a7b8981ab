//! The end-to-end run against the release server: set-up (timed several
//! times), the measured phase, the post-phase probes, and the oracle check.
//! Nothing here is traced.

use std::path::Path;
use std::time::Instant;

use spg_graph::VersionedGraph;
use spg_server::json::{self, Json};

use crate::load::{self, Clock, Conn, Frames, PhaseLog, Replies};
use crate::procfs;
use crate::report::{median, median_f64, percentile, ratio, Metrics};
use crate::server::ServerProc;
use crate::verify::{self, Asked, Check};
use crate::workload::{ids, op_payload, query_payload, update_payload, Stream, Workload};

/// Sequential pings after the measured phase (`wire.ping_p50_us`).
const PINGS: usize = 200;

/// Counters read from the server's `stats` op.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    pub answered: f64,
    pub batches: f64,
    pub hits: f64,
    pub misses: f64,
    pub cache_bytes: f64,
}

impl ServerStats {
    fn parse(payload: &[u8]) -> ServerStats {
        let doc = json::parse(payload).unwrap_or(Json::Null);
        let get = |section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        ServerStats {
            answered: get("server", "answered"),
            batches: get("server", "batches"),
            hits: get("cache", "hits"),
            misses: get("cache", "misses"),
            cache_bytes: get("cache", "bytes"),
        }
    }
}

/// What the end-to-end run measured.
pub struct E2e {
    pub metrics: Metrics,
    pub check: Check,
    /// Requests of the measured stream that were sent (a prefix).
    pub sent: usize,
    pub ping_p50_us: f64,
    /// Server counters over the measured phase, and at its end.
    pub phase_stats: ServerStats,
    pub end_stats: ServerStats,
    pub send_late_p90_us: f64,
    pub client_cpu_share: f64,
    /// Median `update` round trip over add/remove pairs, in µs.
    pub update_p50_us: f64,
}

/// The measured stream's queries in send order, with their ids.
pub fn stream_queries(w: &Workload) -> Vec<spg_core::Query> {
    match &w.stream {
        Stream::Open { draws, .. } => draws.clone(),
        Stream::Closed { pool } => pool.clone(),
        Stream::Bursts { bursts } => bursts.iter().flat_map(|b| b.queries.clone()).collect(),
    }
}

fn query_frames(base: u64, queries: &[spg_core::Query]) -> Frames {
    Frames::from_payloads(
        queries
            .iter()
            .enumerate()
            .map(|(i, &q)| query_payload(base + i as u64, q)),
    )
}

fn asked(base: u64, queries: &[spg_core::Query], source: &'static str) -> Vec<Asked> {
    queries
        .iter()
        .enumerate()
        .map(|(i, &query)| Asked {
            id: base + i as u64,
            query,
            source,
        })
        .collect()
}

pub fn run(w: &Workload, server_bin: &Path, seconds: f64, threads: usize) -> Result<E2e, String> {
    // ---- Encode everything before the first spawn.
    let queries = stream_queries(w);
    let stream = query_frames(0, &queries);
    let warm = query_frames(ids::WARMUP, &w.warmup);
    let updates: Vec<spg_graph::EdgeDelta> = match &w.stream {
        Stream::Bursts { bursts } => bursts.iter().map(|b| b.update).collect(),
        _ => w.probe_updates.clone(),
    };
    let update_frames = Frames::from_payloads(
        updates
            .iter()
            .enumerate()
            .map(|(i, &d)| update_payload(ids::UPDATE + i as u64, d)),
    );
    let pings = Frames::from_payloads((0..PINGS as u64).map(|i| op_payload(ids::PING + i, "ping")));
    let stats_frames =
        Frames::from_payloads((0..2u64).map(|i| op_payload(ids::STATS + i, "stats")));
    let clock = Clock(Instant::now());

    // ---- Set-up, timed `setups` times; the last server is measured.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for round in 0..w.scale.setups {
        let t0 = Instant::now();
        let server = ServerProc::spawn(server_bin, &w.graph_args)?;
        let mut conn = Conn::new(server.connect()?, clock).map_err(|e| e.to_string())?;
        let mut warm_replies = Replies::default();
        if warm.len() > 0 {
            conn.burst(warm.slice(0..warm.len()), warm.len(), &mut warm_replies)
        } else {
            conn.round_trip(pings.frame(0), &mut warm_replies)
                .map(|r| r.0)
        }
        .map_err(|e| format!("warm-up: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if round + 1 == w.scale.setups {
            kept = Some((server, conn, warm_replies));
        }
    }
    let (server, mut conn, warm_replies) = kept.ok_or("no set-up round ran")?;
    let pid = server.pid();
    let mut post = Replies::default();
    let stats = |conn: &mut Conn, post: &mut Replies, i: usize| -> Result<ServerStats, String> {
        let (_, rec) = conn
            .round_trip(stats_frames.frame(i), post)
            .map_err(|e| format!("stats: {e}"))?;
        Ok(ServerStats::parse(post.payload(rec)))
    };

    // ---- Measured phase.
    let before = stats(&mut conn, &mut post, 0)?;
    let server_cpu0 = procfs::cpu_seconds(&pid).unwrap_or(0.0);
    let client_cpu0 = procfs::cpu_seconds("self").unwrap_or(0.0);
    let wall0 = Instant::now();
    let log: PhaseLog = match &w.stream {
        Stream::Open { schedule, .. } => load::open_loop(&mut conn, &stream, schedule),
        Stream::Closed { .. } => load::closed_loop(&mut conn, &stream, w.scale.inflight, seconds),
        Stream::Bursts { .. } => load::burst_loop(
            &mut conn,
            &stream,
            w.scale.burst_len(),
            &update_frames,
            seconds,
        ),
    };
    let wall = wall0.elapsed().as_secs_f64();
    let server_cpu = procfs::cpu_seconds(&pid).unwrap_or(0.0) - server_cpu0;
    let client_cpu = procfs::cpu_seconds("self").unwrap_or(0.0) - client_cpu0;
    let after = stats(&mut conn, &mut post, 1)?;

    // ---- Post-phase probes (see README.md for why they exist).
    let mut ping_ns = Vec::with_capacity(PINGS);
    let mut probe_update_ns = Vec::new();
    let mut probe_error = None;
    let probe_result = (|| -> std::io::Result<()> {
        for i in 0..PINGS {
            ping_ns.push(conn.round_trip(pings.frame(i), &mut post)?.0);
        }
        if log.error.is_none() && !matches!(w.stream, Stream::Bursts { .. }) {
            for i in 0..update_frames.len() {
                probe_update_ns.push(conn.round_trip(update_frames.frame(i), &mut post)?.0);
            }
        }
        Ok(())
    })();
    if let Err(e) = probe_result {
        probe_error = Some(format!("post-phase probe: {e}"));
    }
    let rss_mib = procfs::peak_rss_mib(&pid).unwrap_or(0.0);
    drop(conn);
    drop(server);

    // ---- Oracle check of every reply, after the clock has stopped.
    let mut check = Check::default();
    for e in log.error.iter().chain(&probe_error) {
        check.fail(e.clone());
    }
    let sent = log.sent_ns.len();
    let warm_ids = verify::index_replies(&warm_replies, &mut check);
    verify::check_queries(
        &w.graph,
        &asked(ids::WARMUP, &w.warmup, "miss"),
        &warm_replies,
        &warm_ids,
        threads,
        &mut check,
    );
    let by_id = verify::index_replies(&log.replies, &mut check);
    match &w.stream {
        Stream::Open { .. } | Stream::Closed { .. } => {
            let source = if w.warmup.is_empty() { "miss" } else { "hit" };
            let asked = asked(0, &queries[..sent], source);
            verify::check_queries(&w.graph, &asked, &log.replies, &by_id, threads, &mut check);
        }
        Stream::Bursts { bursts } => {
            let mut mirror = VersionedGraph::new(w.graph.clone());
            let mut base = 0u64;
            for (b, burst) in bursts.iter().take(log.bursts_ns.len()).enumerate() {
                let asked = asked(base, &burst.queries, "miss");
                verify::check_queries(
                    mirror.graph(),
                    &asked,
                    &log.replies,
                    &by_id,
                    threads,
                    &mut check,
                );
                base += burst.queries.len() as u64;
                if b < log.updates_ns.len() {
                    verify::check_ok(
                        &log.replies,
                        &by_id,
                        ids::UPDATE + b as u64,
                        &[("applied", 1)],
                        &mut check,
                    );
                    mirror
                        .apply_delta(&[burst.update])
                        .map_err(|e| format!("mirror update: {e}"))?;
                }
            }
        }
    }
    let post_ids = verify::index_replies(&post, &mut check);
    for id in (0..2)
        .map(|i| ids::STATS + i)
        .chain((0..ping_ns.len() as u64).map(|i| ids::PING + i))
    {
        verify::check_ok(&post, &post_ids, id, &[], &mut check);
    }
    for i in 0..probe_update_ns.len() as u64 {
        verify::check_ok(
            &post,
            &post_ids,
            ids::UPDATE + i,
            &[("applied", 1)],
            &mut check,
        );
    }

    // ---- Metrics.
    let mut recv_ns = vec![0u64; sent];
    for rec in 0..log.replies.recs.len() {
        if let Some(id) = load::reply_id(log.replies.payload(rec)).filter(|&id| id < sent as u64) {
            recv_ns[id as usize] = log.replies.recv_ns(rec);
        }
    }
    let answered = || recv_ns.iter().enumerate().filter(|(_, &r)| r > 0);
    let latencies: Vec<u64> = answered()
        .map(|(id, &r)| r.saturating_sub(log.due_ns[id]))
        .collect();
    // On the other workloads a burst is a run of `burst_len` consecutive
    // requests: from the first one's (scheduled) send to the last reply.
    let len = w.scale.burst_len();
    let groups: Vec<u64> = (0..sent / len)
        .map(|g| {
            let last = recv_ns[g * len..(g + 1) * len]
                .iter()
                .max()
                .copied()
                .unwrap_or(0);
            last.saturating_sub(log.due_ns[g * len])
        })
        .collect();
    let completed = log.replies.recs.len() as f64;
    let last_reply = log
        .replies
        .recs
        .iter()
        .map(|r| r.0)
        .max()
        .unwrap_or(log.end_ns);
    let measured_s = (last_reply.saturating_sub(log.start_ns)) as f64 / 1e9;
    let (bursts, updates) = match &w.stream {
        Stream::Bursts { .. } => (&log.bursts_ns, &log.updates_ns),
        _ => (&groups, &probe_update_ns),
    };
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median_f64(&setup_s), "s");
    metrics.put("p50_us", percentile(&latencies, 0.5) / 1e3, "us");
    metrics.put("p90_us", percentile(&latencies, 0.9) / 1e3, "us");
    metrics.put("throughput_rps", ratio(completed, measured_s), "req/s");
    metrics.put("burst_p50_ms", median(bursts) / 1e6, "ms");
    // Updates alternate add and remove, which cost differently; the median
    // of a two-cluster sample jumps between them, so pairs are averaged.
    let pairs: Vec<u64> = updates.chunks_exact(2).map(|p| (p[0] + p[1]) / 2).collect();

    metrics.put(
        "server_cpu_us_per_req",
        ratio(server_cpu * 1e6, completed),
        "us",
    );
    metrics.put("server_rss_mb", rss_mib, "MiB");
    if latencies.len() < w.scale.min_samples {
        check.fail(format!("only {} latency samples", latencies.len()));
    }

    let phase_stats = ServerStats {
        answered: after.answered - before.answered,
        batches: after.batches - before.batches,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        cache_bytes: after.cache_bytes,
    };
    Ok(E2e {
        metrics,
        check,
        sent,
        ping_p50_us: median(&ping_ns) / 1e3,
        phase_stats,
        end_stats: after,
        send_late_p90_us: percentile(&log.late_ns, 0.9) / 1e3,
        client_cpu_share: ratio(client_cpu, wall * threads as f64),
        update_p50_us: median(&pairs) / 1e3,
    })
}
