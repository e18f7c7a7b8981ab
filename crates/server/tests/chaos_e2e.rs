//! Chaos harness: fault injection against the real release-mode server
//! binary, plus in-process batcher-death drills.
//!
//! Only compiled with `--features failpoints`. The contract under load and
//! under injected faults is the same one the healthy e2e suite enforces:
//!
//! * **Every in-flight request gets a response** — a fault may produce an
//!   `error`, `expired` or `overloaded` status, but never a hang and never
//!   a dropped request (reads run under a timeout so a hang fails loudly).
//! * **No corrupted neighbour slot** — every `ok` response must still be
//!   bit-identical to a local [`Eve::query`], even while a neighbouring
//!   query in the same micro-batch is panicking or being cancelled.
//! * **Updates never leave stale answers reachable** — each storm ends with
//!   an add/remove pair of one absent edge against the stormed cache; under
//!   `update_purge` both scoped purges fail, the server restamps the graph
//!   instead, and the post-chaos answer must still match the (restored)
//!   graph bit for bit.
//! * **Recovery** — the injected faults carry hit budgets, and once they
//!   disarm the server answers a fresh query correctly (CI greps the
//!   markers this suite prints on success).

#![cfg(feature = "failpoints")]

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use spg_core::{Eve, EveConfig, Query};
use spg_graph::generators::gnm_random;
use spg_graph::DiGraph;
use spg_server::{Reply, ServeError, ServerConfig, ServerHandle, SpgClient, SpgServer};

/// Same graph the server process is told to generate (`--gnm 60,360,3630`).
fn test_graph() -> DiGraph {
    gnm_random(60, 360, 3630)
}

/// The exact engine/server error strings a response is allowed to carry.
/// Anything else on the wire under chaos is corruption.
const ALLOWED_ERRORS: [&str; 4] = [
    "query deadline exceeded",
    "query work budget exceeded",
    "internal error: query execution panicked",
    "internal error: batch execution panicked",
];

/// A spawned `spg-server` process, killed on drop so a failing assertion
/// cannot leak a listener.
struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    /// Starts the release binary with `SPG_FAILPOINTS=spec` and waits for
    /// the `LISTENING <addr>` readiness line. If `SPG_CHAOS_SERVER_LOG` is
    /// set, the server's stderr is appended there (the CI job uploads it as
    /// an artifact); otherwise it is discarded.
    fn spawn(spec: &str) -> ServerProcess {
        let stderr = match std::env::var_os("SPG_CHAOS_SERVER_LOG") {
            Some(path) => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map(Stdio::from)
                .expect("open chaos server log"),
            None => Stdio::null(),
        };
        let mut child = Command::new(env!("CARGO_BIN_EXE_spg-server"))
            .args(["--gnm", "60,360,3630", "--batch-deadline-us", "500"])
            .env("SPG_FAILPOINTS", spec)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn spg-server binary");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let ready = lines
            .next()
            .expect("server prints a readiness line")
            .expect("readable stdout");
        let addr = ready
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected readiness line {ready:?}"))
            .to_string();
        ServerProcess { child, addr }
    }

    fn connect(&self) -> SpgClient {
        let client = SpgClient::connect(&self.addr).expect("connect to chaos server");
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        client
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The deterministic workload one storm thread sends.
fn storm_query(thread: u64, i: u64) -> (u32, u32, u32, Option<u64>) {
    let s = ((i * 7 + thread) % 60) as u32;
    let t = ((i * 13 + 31 + thread * 5) % 60) as u32;
    let k = 3 + (i % 5) as u32;
    // Every fifth request carries a 1ms deadline so delay faults surface
    // as shedding / cancellation rather than slow success.
    let deadline_ms = if i % 5 == 4 { Some(1) } else { None };
    (s, t, k, deadline_ms)
}

/// The local oracle: per (s, t, k), the engine's edges or error string.
type Oracle = HashMap<(u32, u32, u32), Result<Vec<(u32, u32)>, String>>;

/// One response under chaos: attributed, well-formed, and — when `ok` —
/// bit-identical to the local engine.
fn assert_uncorrupted(reply: &Reply, id: u64, expected: &Oracle, key: (u32, u32, u32)) {
    assert_eq!(reply.id, Some(id), "responses echo the request id");
    match reply.status.as_str() {
        "ok" => {
            let Some(Ok(edges)) = expected.get(&key) else {
                panic!("server said ok to a query the local engine rejects: {key:?}");
            };
            assert_eq!(
                reply.edges.as_deref(),
                Some(edges.as_slice()),
                "ok responses stay bit-identical to Eve::query under chaos ({key:?})"
            );
        }
        "error" => {
            let message = reply.error.as_deref().expect("errors carry a message");
            let deterministic = matches!(expected.get(&key), Some(Err(e)) if e == message);
            assert!(
                deterministic || ALLOWED_ERRORS.contains(&message),
                "unrecognised error string under chaos: {message:?}"
            );
        }
        "expired" => {
            assert_eq!(
                reply.error.as_deref(),
                Some("deadline expired before execution")
            );
        }
        "overloaded" => {}
        other => panic!("unexpected status {other:?} under chaos"),
    }
}

/// The tentpole acceptance test: hammer the release binary while faults
/// fire at every instrumented site; every request must come back, nothing
/// may corrupt, and the server must recover once the hit budgets disarm.
#[test]
fn every_request_is_answered_under_faults_at_every_site() {
    const THREADS: u64 = 4;
    const REQUESTS: u64 = 25;

    // Local oracle for every query the storm can send.
    let graph = test_graph();
    let eve = Eve::new(&graph, EveConfig::default());
    let mut expected = HashMap::new();
    for thread in 0..THREADS {
        for i in 0..REQUESTS {
            let (s, t, k, _) = storm_query(thread, i);
            expected.entry((s, t, k)).or_insert_with(|| {
                eve.query(Query::new(s, t, k))
                    .map(|spg| spg.edges().to_vec())
                    .map_err(|e| e.to_string())
            });
        }
    }

    // One storm per fault spec: every site fires, each a bounded number of
    // times so the run can prove recovery afterwards.
    let specs = [
        "batch_drain=panic*2",
        "batch_drain=budget*2",
        "flight_leader=budget*3",
        "phase1=panic*3",
        "phase1b=budget*3",
        "phase2=panic*3",
        "verify=delay:30*3",
        "update_purge=panic*2",
    ];
    // An edge the test graph lacks: the update storm adds it and removes it
    // again, so the post-chaos answer is the original graph's.
    let absent = (0..60u32)
        .flat_map(|u| (0..60u32).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !graph.has_edge(u, v))
        .expect("a sparse graph has an absent edge");
    // The stormed keys' answers while that edge is present.
    let grown = DiGraph::from_edges(60, graph.edges().chain([absent]));
    let grown_eve = Eve::new(&grown, EveConfig::default());
    let with_absent: Oracle = expected
        .keys()
        .map(|&(s, t, k)| {
            let answer = grown_eve
                .query(Query::new(s, t, k))
                .map(|spg| spg.edges().to_vec())
                .map_err(|e| e.to_string());
            ((s, t, k), answer)
        })
        .collect();
    let expected = Arc::new(expected);
    for spec in specs {
        let server = ServerProcess::spawn(spec);
        let workers: Vec<_> = (0..THREADS)
            .map(|thread| {
                let mut client = server.connect();
                let expected = Arc::clone(&expected);
                std::thread::spawn(move || {
                    for i in 0..REQUESTS {
                        let (s, t, k, deadline_ms) = storm_query(thread, i);
                        let id = thread * 1000 + i;
                        client
                            .send_query_with(id, s, t, k, None, deadline_ms)
                            .expect("send under chaos");
                        let reply = client.recv().unwrap_or_else(|e| {
                            panic!("request {id} got no response under {spec:?}: {e}")
                        });
                        assert_uncorrupted(&reply, id, &expected, (s, t, k));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("storm thread");
        }
        // Updates against the stormed cache: every purge the spec breaks
        // must restamp instead of leaving stale answers reachable, and the
        // deltas still apply. While the edge is present, every stormed key
        // must answer for the grown graph, never from a stale entry.
        let mut client = server.connect();
        let applied = |reply: &Reply| {
            assert_eq!(reply.status, "ok", "updates apply under {spec:?}");
            let applied = reply.raw.get("applied").and_then(|a| a.as_u64());
            assert_eq!(applied, Some(1), "the delta applied under {spec:?}");
        };
        applied(
            &client
                .update(9997, &[absent], &[])
                .expect("add under chaos"),
        );
        for (i, &key) in with_absent.keys().enumerate() {
            let id = 20_000 + i as u64;
            let (s, t, k) = key;
            client
                .send_query_with(id, s, t, k, None, None)
                .expect("send");
            let reply = client.recv().expect("requery after the update");
            assert_uncorrupted(&reply, id, &with_absent, key);
        }
        applied(
            &client
                .update(9998, &[], &[absent])
                .expect("remove under chaos"),
        );

        // The hit budgets are long spent: a fresh, never-stormed query must
        // now compute cleanly and bit-identically.
        let (s, t, k) = (0, 59, 6);
        let clean = eve.query(Query::new(s, t, k)).expect("local answer");
        let reply = server
            .connect()
            .query(9999, s, t, k)
            .expect("post-chaos query");
        assert_eq!(reply.status, "ok", "server recovered after {spec:?}");
        assert_eq!(
            reply.edges.as_deref(),
            Some(clean.edges()),
            "post-chaos answers are bit-identical ({spec:?})"
        );
        println!("CHAOS-OK no-hang no-corruption recovered spec={spec}");
    }
    println!("CHAOS-SUITE-PASS all sites injected, all requests answered");
}

fn start_in_process(
    config: ServerConfig,
) -> (
    ServerHandle,
    SpgClient,
    thread::JoinHandle<Result<(), ServeError>>,
) {
    let server = SpgServer::bind(test_graph(), "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = thread::spawn(move || server.run());
    let client = SpgClient::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    (handle, client, thread)
}

fn stat(reply: &Reply, name: &str) -> u64 {
    reply
        .raw
        .get("server")
        .and_then(|s| s.get(name))
        .and_then(spg_server::json::Json::as_u64)
        .unwrap_or_else(|| panic!("stats field server.{name}"))
}

/// Satellite bugfix drill: a dead batcher must be respawned, not left as a
/// black hole behind a listening socket.
#[test]
fn a_killed_batcher_is_respawned_and_service_continues() {
    let (handle, mut client, server) = start_in_process(ServerConfig {
        batch_deadline: Duration::ZERO,
        ..ServerConfig::default()
    });

    let before = client.query(1, 0, 1, 4).expect("healthy query");
    assert_eq!(before.status, "ok");

    // The kill takes effect right after the batcher answers its next
    // batch: this query is answered by the doomed batcher, whose dying act
    // follows it.
    handle.chaos_kill_batcher();
    let during = client
        .query(2, 2, 40, 5)
        .expect("query that wakes the doomed batcher");
    assert_eq!(
        during.status, "ok",
        "the batch before the death is answered"
    );

    // The supervisor respawns within its 2ms poll; later queries just work.
    let after = client.query(3, 0, 1, 4).expect("query after respawn");
    assert_eq!(after.status, "ok");
    assert_eq!(after.edges, before.edges, "the respawned engine agrees");

    let stats = client.stats(4).expect("stats");
    assert_eq!(
        stat(&stats, "batcher_restarts"),
        1,
        "one death, one respawn"
    );

    handle.shutdown();
    server
        .join()
        .expect("server thread")
        .expect("respawn is not fatal: run() still exits cleanly");
}

/// Past the restart bound the server refuses to keep accepting connections
/// it can never answer: `run()` returns the fatal error (the binary maps
/// this to a nonzero exit).
#[test]
fn repeated_batcher_deaths_fail_fast_with_an_error() {
    let (handle, mut client, server) = start_in_process(ServerConfig {
        batch_deadline: Duration::ZERO,
        ..ServerConfig::default()
    });

    for round in 1..=4u64 {
        handle.chaos_kill_batcher();
        // Each kill takes effect right after the batcher answers its next
        // batch, so every one of these queries is answered before its
        // batcher dies — a respawned batcher that has not started yet
        // cannot die on the flag with nothing answered.
        let reply = client
            .query(round, 0, 1, 4)
            .expect("query during kill round");
        assert_eq!(reply.status, "ok", "round {round} was answered");
        if round <= 3 {
            // Wait for the supervisor to log the respawn before re-killing,
            // so the four deaths cannot collapse into one flag swap.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let stats = client.stats(100 + round).expect("stats");
                if stat(&stats, "batcher_restarts") == round {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "respawn {round} not observed in time"
                );
                thread::sleep(Duration::from_millis(2));
            }
        }
    }

    let fatal = server.join().expect("server thread");
    assert_eq!(
        fatal,
        Err(ServeError::BatcherFailed { deaths: 4 }),
        "the fourth death exhausts MAX_BATCHER_RESTARTS and fails fast"
    );
    // The fatal path runs a full shutdown: the client was hung up.
    assert!(client.recv().is_err(), "connections are closed, not wedged");
}
