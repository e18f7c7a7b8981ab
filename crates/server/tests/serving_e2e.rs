//! End-to-end serving tests: a real `SpgServer` on a loopback socket,
//! driven by real [`SpgClient`] connections.
//!
//! The contract under test: every byte that comes back over the wire must
//! be explainable by a local [`Eve::query`] call — identical edge lists for
//! `ok`, identical [`spg_core::QueryError`] strings for `error` — and
//! overload must surface as explicit `overloaded` responses, never as a
//! hang or a dropped connection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spg_core::{Eve, EveConfig, Query};
use spg_graph::generators::gnm_random;
use spg_graph::DiGraph;
use spg_server::json::Json;
use spg_server::{Reply, ServerConfig, ServerHandle, SpgClient, SpgServer};

/// The shared test graph: small enough that every query is fast, dense
/// enough that answers have non-trivial edge lists.
fn test_graph() -> DiGraph {
    gnm_random(60, 360, 0xE2E)
}

/// Starts an in-process server and returns its address, control handle and
/// the `run()` thread (join it after `shutdown()` to assert clean exit).
fn start_server(config: ServerConfig) -> (std::net::SocketAddr, ServerHandle, JoinHandle<()>) {
    let server = SpgServer::bind(test_graph(), "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = thread::spawn(move || server.run().expect("serving loop"));
    (addr, handle, thread)
}

fn connect(addr: std::net::SocketAddr) -> SpgClient {
    let client = SpgClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    client
}

/// Fresh request ids, unique across every thread of a test.
fn next_id(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

/// The Phase-1 settings a served miss can take: per-query units on the
/// adaptive engine (the server default) and cohort-shared MS-BFS lanes.
/// The bit-identity tests whose drains hold several misses run under both,
/// against the same local `Eve` oracle.
const SHARED_PHASE1: [bool; 2] = [false, true];

#[test]
fn responses_are_bit_identical_to_local_eve() {
    for shared_phase1 in SHARED_PHASE1 {
        check_responses_bit_identical_to_local_eve(shared_phase1);
    }
}

fn check_responses_bit_identical_to_local_eve(shared_phase1: bool) {
    let (addr, handle, server) = start_server(ServerConfig {
        batch_deadline: Duration::ZERO,
        shared_phase1,
        ..ServerConfig::default()
    });
    let graph = test_graph();
    let eve = Eve::new(&graph, EveConfig::default());
    let mut client = connect(addr);

    // A spread of valid, clamped, and failing queries.
    let cases = [
        Query::new(0, 1, 4),
        Query::new(3, 17, 6),
        Query::new(5, 5, 4),   // s == t -> QueryError
        Query::new(999, 1, 4), // s out of range -> QueryError
        Query::new(2, 40, 0),  // k = 0 -> no path possible
    ];
    for (i, case) in cases.iter().enumerate() {
        let id = 100 + i as u64;
        let reply = client
            .query(id, case.source, case.target, case.k)
            .expect("round trip");
        assert_eq!(
            reply.id,
            Some(id),
            "responses echo the request id (shared_phase1 {shared_phase1})"
        );
        assert_matches_local_eve(&reply, &eve, *case, shared_phase1);
    }

    // A pipelined fan of distinct misses out of one hub: every drain that
    // takes two or more of them plans them as one cohort when sharing is
    // on, so the shared lanes answer under the same oracle.
    let fan: Vec<Query> = (20..52).map(|t| Query::new(0, t, 5)).collect();
    for (i, q) in fan.iter().enumerate() {
        client
            .send_query(300 + i as u64, q.source, q.target, q.k)
            .expect("send fan query");
    }
    let mut fan_ids = Vec::with_capacity(fan.len());
    for _ in &fan {
        let reply = client.recv().expect("fan reply");
        let id = reply.id.expect("every reply carries its id");
        let case = fan[(id - 300) as usize];
        assert_matches_local_eve(&reply, &eve, case, shared_phase1);
        fan_ids.push(id);
    }
    fan_ids.sort_unstable();
    assert!(
        fan_ids.iter().copied().eq(300..300 + fan.len() as u64),
        "every fan query is answered once"
    );

    // The same valid query again is a cache hit with the same bytes.
    let cold = client.query(200, 0, 1, 4).expect("cold");
    let warm = client.query(201, 0, 1, 4).expect("warm");
    assert_eq!(warm.source.as_deref(), Some("hit"));
    assert_eq!(warm.edges, cold.edges, "hits serve the identical answer");

    handle.shutdown();
    server.join().expect("clean server exit");
}

/// Holds one wire reply to the local `Eve::query` oracle: identical edge
/// lists and clamped `k` for `ok`, the exact `QueryError` string for
/// `error`.
fn assert_matches_local_eve(reply: &Reply, eve: &Eve<'_>, case: Query, shared_phase1: bool) {
    match eve.query(case) {
        Ok(spg) => {
            assert_eq!(
                reply.status, "ok",
                "{case:?}, shared_phase1 {shared_phase1}"
            );
            assert_eq!(
                reply.edges.as_deref(),
                Some(spg.edges()),
                "wire edges must be bit-identical to Eve::query for {case:?}, \
                 shared_phase1 {shared_phase1}"
            );
            assert_eq!(
                reply.k,
                Some(spg.query().k),
                "clamped k is echoed (shared_phase1 {shared_phase1})"
            );
        }
        Err(err) => {
            assert_eq!(
                reply.status, "error",
                "{case:?}, shared_phase1 {shared_phase1}"
            );
            assert_eq!(
                reply.error.as_deref(),
                Some(err.to_string().as_str()),
                "wire error must be the exact QueryError string for {case:?}, \
                 shared_phase1 {shared_phase1}"
            );
        }
    }
}

#[test]
fn wire_max_hop_bound_round_trips_bit_identically() {
    // k = u32::MAX must be served, not refused: the engine clamps it to
    // n − 1. Exercised on the paper's Figure-1 graph — the clamp keeps the
    // verification phase cheap, which an adversarial k on a dense random
    // graph would not (simple-path verification cost grows with k).
    let graph = DiGraph::from_edges(
        8,
        [
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 1),
            (2, 3),
            (1, 4),
            (4, 5),
            (5, 3),
            (3, 1),
            (5, 0),
            (2, 6),
            (4, 6),
            (6, 7),
            (7, 5),
        ],
    );
    let eve = Eve::new(&graph, EveConfig::default());
    let server = SpgServer::bind(
        graph.clone(),
        "127.0.0.1:0",
        ServerConfig {
            batch_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = thread::spawn(move || server.run().expect("serving loop"));

    let mut client = connect(addr);
    let reply = client.query(1, 0, 3, u32::MAX).expect("round trip");
    assert_eq!(reply.status, "ok");
    let spg = eve.query(Query::new(0, 3, u32::MAX)).expect("local answer");
    assert_eq!(reply.k, Some(spg.query().k), "clamped k echoed on the wire");
    assert!(reply.k.unwrap() <= 7, "clamp is n - 1");
    assert_eq!(reply.edges.as_deref(), Some(spg.edges()), "bit-identical");

    handle.shutdown();
    thread.join().expect("clean server exit");
}

#[test]
fn concurrent_hot_misses_compute_once() {
    const CLIENTS: usize = 12;
    // A wide admission window so all clients land in one micro-batch, where
    // the coalescing path (and cross-batch singleflight) must collapse them.
    let (addr, handle, server) = start_server(ServerConfig {
        batch_max: 64,
        batch_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let ids = AtomicU64::new(1);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let id = next_id(&ids);
            thread::spawn(move || {
                let mut client = connect(addr);
                barrier.wait();
                client.query(id, 0, 1, 5).expect("hot query")
            })
        })
        .collect();
    let replies: Vec<Reply> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    for reply in &replies {
        assert_eq!(reply.status, "ok");
        assert_eq!(reply.edges, replies[0].edges, "one answer for everyone");
    }

    let stats = connect(addr).stats(9000).expect("stats").raw;
    let insertions = stats
        .get("cache")
        .and_then(|c| c.get("insertions"))
        .and_then(spg_server::json::Json::as_u64)
        .expect("cache.insertions");
    assert_eq!(
        insertions, 1,
        "12 concurrent misses on one hot key must compute exactly once"
    );
    let answered = stats
        .get("server")
        .and_then(|s| s.get("answered"))
        .and_then(spg_server::json::Json::as_u64)
        .expect("server.answered");
    assert_eq!(answered, CLIENTS as u64);

    handle.shutdown();
    server.join().expect("clean server exit");
}

#[test]
fn rate_limited_tenant_gets_explicit_overload() {
    let (addr, handle, server) = start_server(ServerConfig {
        batch_deadline: Duration::ZERO,
        rate_per_sec: 1e-6, // effectively no refill within the test
        burst: 2.0,
        ..ServerConfig::default()
    });
    let mut client = connect(addr);

    // The burst admits two queries; the third is refused, explicitly.
    for id in 0..2u64 {
        client
            .send_query_for(id, 0, 1, 4, Some("noisy"))
            .expect("send");
        let reply = client.recv().expect("reply");
        assert_eq!(reply.status, "ok", "burst admits request {id}");
    }
    client
        .send_query_for(2, 0, 1, 4, Some("noisy"))
        .expect("send");
    let refused = client.recv().expect("reply");
    assert_eq!(refused.status, "overloaded");
    assert_eq!(refused.id, Some(2));
    assert!(refused.error.unwrap().contains("rate limit"));

    // Another tenant has its own bucket and is unaffected.
    client
        .send_query_for(3, 0, 1, 4, Some("quiet"))
        .expect("send");
    assert_eq!(client.recv().expect("reply").status, "ok");

    // The connection survives refusals: a ping still answers.
    assert_eq!(client.ping(4).expect("ping").status, "ok");

    handle.shutdown();
    server.join().expect("clean server exit");
}

#[test]
fn oversized_request_is_answered_then_connection_closes() {
    let (addr, handle, server) = start_server(ServerConfig {
        max_frame_bytes: 256,
        batch_deadline: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut client = connect(addr);
    client.send_raw(&vec![b' '; 4096]).expect("send oversized");
    let reply = client.recv().expect("the refusal is answered first");
    assert_eq!(reply.status, "error");
    assert_eq!(reply.id, None, "an unreadable frame has no id to echo");
    assert!(reply.error.unwrap().contains("oversized"));
    // After the refusal the server hangs up (the stream is desynced).
    assert!(
        client.recv().is_err(),
        "the connection must be closed after an oversized frame"
    );

    // The server itself is fine: new connections work.
    let mut fresh = connect(addr);
    assert_eq!(fresh.ping(1).expect("ping").status, "ok");

    handle.shutdown();
    server.join().expect("clean server exit");
}

#[test]
fn ping_and_stats_expose_the_engine() {
    let (addr, handle, server) = start_server(ServerConfig {
        batch_deadline: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut client = connect(addr);
    let pong = client.ping(7).expect("ping");
    assert_eq!(pong.status, "ok");
    assert_eq!(pong.id, Some(7));

    client.query(8, 0, 1, 4).expect("one miss");
    client.query(9, 0, 1, 4).expect("one hit");
    let stats = client.stats(10).expect("stats").raw;
    for section in ["server", "cache", "flights"] {
        assert!(
            stats.get(section).is_some(),
            "stats has a {section} section"
        );
    }
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(spg_server::json::Json::as_u64)
        .expect("cache.hits");
    assert!(hits >= 1, "the repeat query must register as a cache hit");
    // The robustness counters are exposed, and quiet on a healthy server.
    for counter in ["deadline_exceeded", "panics_isolated", "batcher_restarts"] {
        let value = stats
            .get("server")
            .and_then(|s| s.get(counter))
            .and_then(spg_server::json::Json::as_u64);
        assert_eq!(value, Some(0), "server.{counter}");
    }

    handle.shutdown();
    server.join().expect("clean server exit");
}

#[test]
fn update_round_trip_purges_scoped_and_serves_the_new_graph() {
    // Two disconnected components so one cached answer is provably out of
    // scope of the delta: component A (0..4, a diamond) and component B
    // (8 -> 9).
    let graph = DiGraph::from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (8, 9)]);
    let server = SpgServer::bind(
        graph,
        "127.0.0.1:0",
        ServerConfig {
            batch_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = thread::spawn(move || server.run().expect("serving loop"));
    let mut client = connect(addr);

    // Warm the cache with one entry per component.
    let original = client.query(1, 0, 3, 4).expect("warm A");
    assert_eq!(original.status, "ok");
    assert_eq!(client.query(2, 8, 9, 1).expect("warm B").status, "ok");

    // Remove an edge inside component A's answer.
    let reply = client.update(3, &[], &[(1, 2)]).expect("update");
    assert_eq!(reply.status, "ok");
    assert_eq!(reply.id, Some(3));
    let field = |key: &str| reply.raw.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(field("applied"), 1, "one real removal");
    assert_eq!(field("seq"), 1, "first delta batch on this snapshot");
    assert_eq!(
        field("purged"),
        1,
        "only component A's entry is in scope of the removal"
    );

    // Component B's entry survived the purge: the requery is a hit.
    let warm = client.query(4, 8, 9, 1).expect("requery B");
    assert_eq!(warm.source.as_deref(), Some("hit"));

    // Component A's entry was purged and recomputes on the mutated graph,
    // bit-identical to a local Eve on a from-scratch rebuild.
    let recomputed = client.query(5, 0, 3, 4).expect("requery A");
    assert_eq!(recomputed.status, "ok");
    assert_eq!(recomputed.source.as_deref(), Some("miss"));
    let rebuilt = DiGraph::from_edges(10, [(0, 1), (2, 3), (0, 2), (1, 3), (8, 9)]);
    let eve = Eve::new(&rebuilt, EveConfig::default());
    let spg = eve.query(Query::new(0, 3, 4)).expect("local answer");
    assert_eq!(
        recomputed.edges.as_deref(),
        Some(spg.edges()),
        "post-update wire answer must match the full rebuild"
    );

    // A second batch bumps seq; additions are in scope too, so the freshly
    // recomputed component-A entry is purged again by the re-add.
    let added = client.update(6, &[(1, 2)], &[]).expect("re-add");
    assert_eq!(added.status, "ok");
    let field = |key: &str| added.raw.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(field("applied"), 1);
    assert_eq!(field("seq"), 2);
    assert_eq!(field("purged"), 1, "the recomputed (0, 3, 4) entry");

    // Restoring the edge restores the original answer.
    let restored = client.query(7, 0, 3, 4).expect("requery A after re-add");
    assert_eq!(
        restored.edges, original.edges,
        "the re-add must serve the first answer again"
    );

    // Malformed batches are refused without poisoning the connection.
    let refused = client.update(8, &[(2, 2)], &[]).expect("self-loop");
    assert_eq!(refused.status, "error");
    assert!(refused.error.unwrap().contains("self-loop"));
    let empty = client.update(9, &[], &[]).expect("empty");
    assert_eq!(empty.status, "error");
    assert!(empty.error.unwrap().contains("non-empty"));
    assert_eq!(client.ping(10).expect("ping").status, "ok");

    // The stats surface the whole story.
    let stats = client.stats(11).expect("stats").raw;
    let server_stat = |key: &str| {
        stats
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .expect(key)
    };
    assert_eq!(server_stat("deltas_applied"), 2);
    assert_eq!(server_stat("entries_purged_scoped"), 2);
    // The empty batch died at parse time (a bad request, not an update
    // error); only the self-loop reached delta validation.
    assert_eq!(server_stat("update_errors"), 1);
    assert_eq!(server_stat("delta_seq"), 2);

    handle.shutdown();
    thread.join().expect("clean server exit");
}

#[test]
fn shutdown_is_clean_with_connected_clients() {
    let (addr, handle, server) = start_server(ServerConfig::default());
    let mut client = connect(addr);
    assert_eq!(client.ping(1).expect("ping").status, "ok");
    handle.shutdown();
    server.join().expect("run() returns after shutdown");
    // The client's connection was hung up; the next read fails cleanly.
    assert!(client.recv().is_err());
}

#[test]
fn already_expired_deadlines_are_shed_with_explicit_responses() {
    // A long batch-forming deadline guarantees the request sits in the
    // queue past its own deadline before the batcher claims it.
    let (addr, handle, server) = start_server(ServerConfig {
        batch_deadline: Duration::from_millis(30),
        ..ServerConfig::default()
    });
    let mut client = connect(addr);

    let shed = client
        .query_with_deadline(1, 0, 1, 4, 0)
        .expect("round trip");
    assert_eq!(shed.status, "expired");
    assert_eq!(
        shed.error.as_deref(),
        Some("deadline expired before execution"),
        "shedding is an explicit protocol status, not a query error"
    );

    // A generous deadline changes nothing about the answer.
    let ok = client
        .query_with_deadline(2, 0, 1, 4, 60_000)
        .expect("round trip");
    assert_eq!(ok.status, "ok");
    let plain = client.query(3, 0, 1, 4).expect("round trip");
    assert_eq!(
        ok.edges, plain.edges,
        "deadline does not perturb the answer"
    );

    let stats = client.stats(4).expect("stats").raw;
    let shed_expired = stats
        .get("server")
        .and_then(|s| s.get("shed_expired"))
        .and_then(spg_server::json::Json::as_u64)
        .expect("server.shed_expired");
    assert_eq!(shed_expired, 1, "exactly the one shed query is counted");

    handle.shutdown();
    server.join().expect("clean server exit");
}

#[test]
fn retrying_client_rides_out_transient_refusals() {
    use spg_server::RetryPolicy;

    // Burst of 1 token refilling at 50/s: the second immediate query is
    // refused, but a backoff of a few tens of ms earns the token back.
    let (addr, handle, server) = start_server(ServerConfig {
        rate_per_sec: 50.0,
        burst: 1.0,
        batch_deadline: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut client = connect(addr);

    assert_eq!(client.query(1, 0, 1, 4).expect("first").status, "ok");
    let refused = client.query(2, 0, 1, 4).expect("second");
    assert_eq!(refused.status, "overloaded", "the bucket is dry");

    let policy = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(15),
        max_backoff: Duration::from_millis(120),
        ..RetryPolicy::default()
    };
    let retried = client
        .query_retrying(3, 0, 1, 4, None, &policy)
        .expect("retry loop");
    assert_eq!(
        retried.status, "ok",
        "backoff outlasts the refill interval, so the retry lands"
    );

    // Deterministic errors are not transient: no retries, immediate return.
    let error = client
        .query_retrying(4, 5, 5, 4, None, &policy)
        .expect("retry loop");
    assert_eq!(error.status, "error");
    assert_eq!(
        error.error.as_deref(),
        Some("source and target must be distinct (both are 5)")
    );

    handle.shutdown();
    server.join().expect("clean server exit");
}

#[test]
fn pipelined_burst_spanning_drains_is_answered_once_per_id() {
    // One connection pipelines 200 queries and a ping before reading a
    // single reply. At `batch_max` 64 the queries need at least four
    // drains, and each drain answers the connection with one write of
    // several frames; the reader must still see every id exactly once.
    // Drains here hold many misses at once, so with sharing on the
    // hub-shaped repeats can run as cohorts.
    for shared_phase1 in SHARED_PHASE1 {
        check_pipelined_burst_answered_once_per_id(shared_phase1);
    }
}

fn check_pipelined_burst_answered_once_per_id(shared_phase1: bool) {
    let (addr, handle, server) = start_server(ServerConfig {
        batch_max: 64,
        batch_deadline: Duration::ZERO,
        shared_phase1,
        ..ServerConfig::default()
    });
    let graph = test_graph();
    let eve = Eve::new(&graph, EveConfig::default());
    let mut client = connect(addr);

    let mut sent = std::collections::HashMap::new();
    for i in 0..200u64 {
        let query = match i % 10 {
            // A small pool of repeats: hits or coalesced slots.
            0 | 1 => Query::new(0, 1 + (i % 3) as u32, 4),
            2 => Query::new(7, 7, 4),   // s == t
            3 => Query::new(999, 1, 4), // s out of range
            4 => Query::new(3, 9, 0),   // k = 0
            // Distinct misses.
            _ => Query::new(
                (i % 60) as u32,
                ((i * 7 + 1) % 60) as u32,
                3 + (i % 3) as u32,
            ),
        };
        client
            .send_query(i, query.source, query.target, query.k)
            .expect("send");
        sent.insert(i, query);
        if i == 100 {
            client
                .send_raw(br#"{"id": 5000, "op": "ping"}"#)
                .expect("send ping");
        }
    }

    let mut answered = std::collections::HashSet::new();
    for _ in 0..=sent.len() {
        let reply = client.recv().expect("every frame parses");
        let id = reply.id.expect("every reply carries its id");
        assert!(
            answered.insert(id),
            "id {id} answered twice (shared_phase1 {shared_phase1})"
        );
        if id == 5000 {
            assert_eq!(reply.raw.get("pong"), Some(&Json::Bool(true)));
            continue;
        }
        let query = sent.get(&id).expect("reply to a sent id");
        assert_matches_local_eve(&reply, &eve, *query, shared_phase1);
    }
    // Nothing is left over: the next frame answers a fresh ping.
    assert_eq!(client.ping(5001).expect("ping").id, Some(5001));

    let stats = client.stats(5002).expect("stats").raw;
    let server_stat = |key: &str| {
        stats
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .expect(key)
    };
    assert!(server_stat("batches") >= 4, "200 queries at batch_max 64");
    assert_eq!(server_stat("answered") + server_stat("query_errors"), 200);

    handle.shutdown();
    server.join().expect("clean server exit");
}
