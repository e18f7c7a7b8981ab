//! The serving engine: acceptor, connection handlers, and the micro-batch
//! drain loop.
//!
//! ## Thread model (std-only, no async runtime)
//!
//! * **Acceptor** — [`SpgServer::run`] polls a non-blocking listener,
//!   spawning one handler thread per connection.
//! * **Connection handlers** — each reads length-prefixed frames
//!   ([`crate::protocol`]) through a buffered reader, so a pipelined burst
//!   of requests comes off the socket in a few `read`s. It answers
//!   `ping`/`stats`/`update`, refusals and protocol errors inline, one
//!   frame per write, and pushes admitted queries into the shared
//!   [`BatchQueue`].
//! * **Batcher** — a single thread drains the queue in micro-batches. By
//!   default it takes whatever is queued the moment it is free (a zero
//!   [`ServerConfig::batch_deadline`]: requests that arrive during a drain
//!   form the next batch anyway), earliest deadline first when a backlog
//!   leaves items behind. It runs each batch through
//!   [`BatchExecutor::run_cached_coalesced_with_deadlines`]: probe the shared
//!   [`SpgCache`], collapse duplicate misses onto singleflight latches
//!   ([`spg_core::FlightGroup`] — shared across batches, so a key already
//!   computing in the previous drain is joined, not recomputed), and compute
//!   the distinct misses in parallel, each as its own query on the adaptive
//!   per-query engine ([`ServerConfig::shared_phase1`] is off by default).
//!
//! ## Replies
//!
//! The batcher answers a drain per connection, not per reply. It frames
//! every reply of the drain — answers, engine errors, or the error of a
//! contained panic — into one buffer per connection, in slot order, and
//! writes each buffer with a single `write_all`, so a drain costs each
//! connection one write however many of its requests it answered. Shed
//! `expired` replies go out before the drain runs. Writes to one
//! connection are serialised by its write lock, so frames never
//! interleave; inline replies and drain replies may still arrive out of
//! request order (clients correlate by `id`).
//!
//! ## Streaming updates
//!
//! The served graph is mutable: an `update` request applies an edge-delta
//! batch on its **connection thread** under the graph's write lock
//! ([`spg_core::apply_delta_scoped`]), while the batcher binds each drain
//! to the current snapshot under the read lock — so a drain always sees a
//! consistent graph and an update waits at most one micro-batch. Deltas
//! keep the graph version (queries see the base CSR plus an overlay merged
//! at traversal time) and purge only the cache entries the batch could have
//! affected; unaffected hot keys keep serving hits. The `stats` op reports
//! `deltas_applied`, `entries_purged_scoped` and `overlay_compactions`.
//!
//! ## Back-pressure
//!
//! Nothing in the engine queues unboundedly. A query is refused with an
//! explicit `overloaded` response when its tenant's token bucket is dry or
//! the batch queue is full; the connection stays usable either way.
//!
//! ## Deadlines
//!
//! A query request may carry `deadline_ms`; the deadline clock starts when
//! the frame is parsed. A request whose deadline has already passed when
//! the batcher claims its batch is *shed* — answered with an explicit
//! `expired` response and never executed (counted as `shed_expired` in
//! `stats`). Live deadlines ride into the engine as per-slot
//! [`spg_core::QueryError::DeadlineExceeded`] budgets.
//!
//! ## Crash containment
//!
//! Containment is layered. The executor isolates a panicking query to its
//! own slot (`internal error: query execution panicked`, counted as
//! `panics_isolated`). The batcher wraps each drain in `catch_unwind`: a
//! panicking batch answers `internal error` to its own requests and the
//! server keeps serving. Flight tokens abandon or broadcast failure on
//! unwind (their `Drop` wakes joiners to recompute), so a crashed drain can
//! never wedge another batch. Finally, [`SpgServer::run`] supervises the
//! batcher thread itself: if it ever dies, the supervisor respawns it a
//! bounded number of times and then fails fast with [`ServeError`] — a dead
//! engine that silently keeps accepting connections is exactly the bug this
//! guards against.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::thread;
use std::time::{Duration, Instant};

use spg_core::{
    apply_delta_scoped, BatchExecutor, CachedEve, FlightGroup, LaneWidth, Query, QueryError,
    SpgCache,
};
use spg_graph::{DiGraph, EdgeDelta, VersionedGraph};

use crate::admission::{BatchQueue, RateLimiter};
use crate::json::{self, Json};
use crate::protocol::{
    self, error_response, expired_response, ok_response, overloaded_response, pong_response,
    query_error_response, update_response, FrameError, Request,
};

/// Tuning knobs of one [`SpgServer`] (see the crate docs for the protocol
/// and [`crate::admission`] for the admission semantics).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest micro-batch one drain executes.
    pub batch_max: usize,
    /// Longest a request waits for its batch to fill. The default, zero,
    /// drains whatever is queued as soon as the batcher is free: a window
    /// pays only when waiting gathers queries that share work, and under
    /// load the requests that arrive during a drain make up the next batch
    /// anyway. Under a backlog the deadline is never paid.
    pub batch_deadline: Duration,
    /// Bound on queries admitted but not yet drained; pushes beyond it are
    /// refused with `overloaded`.
    pub queue_capacity: usize,
    /// Cap on request/response frame payloads.
    pub max_frame_bytes: usize,
    /// Per-tenant admission rate (requests/second); ≤ 0 disables limiting.
    pub rate_per_sec: f64,
    /// Per-tenant burst capacity (tokens).
    pub burst: f64,
    /// Worker threads per batch drain (0 = available parallelism).
    pub threads: usize,
    /// Byte budget of the shared result cache.
    pub cache_bytes: usize,
    /// Cohort-shared MS-BFS Phase 1 for missed queries. Off by default in
    /// the server: each distinct miss runs as its own unit on the adaptive
    /// per-query engine, whose search stays inside the query's search space,
    /// while a cohort's lanes run the balanced, unpruned schedule over the
    /// union of their frontiers — on the served traffic measured so far a
    /// member's share of that traversal costs more than its own search.
    /// [`BatchExecutor`] keeps sharing on by default, for in-process
    /// batches that repeat endpoints. Answers are bit-identical either way.
    pub shared_phase1: bool,
    /// Widest MS-BFS lane block a shared-Phase-1 cohort may fill (64 or
    /// 256 pairs per traversal). Matters only with `shared_phase1` on.
    pub phase1_lanes: LaneWidth,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_max: 64,
            batch_deadline: Duration::ZERO,
            queue_capacity: 1024,
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            rate_per_sec: 0.0,
            burst: 64.0,
            threads: 0,
            cache_bytes: 64 << 20,
            shared_phase1: false,
            phase1_lanes: LaneWidth::default(),
        }
    }
}

/// Monotone serving counters, exposed over the wire by the `stats` op.
#[derive(Debug, Default)]
struct ServerCounters {
    /// Frames received that parsed into some request.
    requests: AtomicU64,
    /// Query responses with `status: ok`.
    answered: AtomicU64,
    /// Query responses with `status: error` from [`spg_core::QueryError`].
    query_errors: AtomicU64,
    /// Frames refused before reaching the engine (malformed, oversized).
    protocol_errors: AtomicU64,
    /// Queries refused with `status: overloaded`.
    overloaded: AtomicU64,
    /// Micro-batches drained.
    batches: AtomicU64,
    /// Largest micro-batch drained.
    max_batch: AtomicU64,
    /// Queries shed with `status: expired` (deadline burned in the queue).
    shed_expired: AtomicU64,
    /// Query errors that were deadline expiries inside the engine.
    deadline_exceeded: AtomicU64,
    /// Query panics the executor contained to their own slot.
    panics_isolated: AtomicU64,
    /// Times the supervisor respawned a dead batcher thread.
    batcher_restarts: AtomicU64,
    /// Edge deltas that changed the graph (no-ops excluded), across all
    /// `update` batches.
    deltas_applied: AtomicU64,
    /// Cache entries dropped by scoped (delta-driven) invalidation.
    entries_purged_scoped: AtomicU64,
    /// `update` batches rejected with a delta validation error.
    update_errors: AtomicU64,
}

/// One admitted query waiting for its micro-batch.
struct PendingQuery {
    id: u64,
    query: Query,
    /// Absolute wall-clock deadline, from the request's `deadline_ms`
    /// (measured from parse time; `None` = unlimited).
    deadline: Option<Instant>,
    conn: Arc<Connection>,
}

/// Write half of one client connection. Reads happen in the connection's
/// own thread through a clone of the stream; writes come from the
/// connection thread and the batcher and are serialised by the lock so
/// frames are never interleaved.
struct Connection {
    stream: TcpStream,
    write_lock: Mutex<()>,
}

impl Connection {
    /// Writes one response frame (see [`Connection::send_frames`]).
    fn send(&self, payload: &str) {
        let mut frame = Vec::new();
        // Only a payload past the u32 length prefix fails; it is dropped.
        if protocol::write_frame(&mut frame, payload.as_bytes()).is_ok() {
            self.send_frames(&frame);
        }
    }

    /// Writes a buffer of whole frames with one `write_all`; errors are
    /// deliberately swallowed (the peer may have hung up while its query
    /// computed, which is its right).
    fn send_frames(&self, frames: &[u8]) {
        let _guard = self.write_lock.lock().expect("connection writer"); // lock: server.conn_write
        let mut stream = &self.stream;
        let _ = stream.write_all(frames);
    }

    /// Unblocks the reader thread (used at shutdown).
    fn hang_up(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Everything the server's threads share.
struct ServerState {
    /// The served graph. Connection threads take the write lock to apply
    /// `update` batches; the batcher takes the read lock per drain.
    graph: RwLock<VersionedGraph>,
    cache: SpgCache,
    flights: FlightGroup,
    queue: BatchQueue<PendingQuery>,
    limiter: RateLimiter,
    config: ServerConfig,
    counters: ServerCounters,
    shutdown: AtomicBool,
    /// Live connections, so shutdown can unblock their readers.
    connections: Mutex<Vec<Weak<Connection>>>,
    /// Chaos hook flag (see [`ServerHandle::chaos_kill_batcher`]).
    #[cfg(feature = "failpoints")]
    chaos_kill_batcher: AtomicBool,
}

/// Remote control for a running [`SpgServer`] (cloneable, thread-safe).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Asks the server to stop: the acceptor exits, connection readers are
    /// unblocked, the batcher drains what was admitted and exits.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.close();
        let connections = self.state.connections.lock().expect("connection registry"); // lock: server.connections
        for conn in connections.iter().filter_map(Weak::upgrade) {
            conn.hang_up();
        }
    }

    /// Chaos hook (failpoints builds only): makes the batcher thread panic
    /// right after it answers its next batch — every reply of that batch
    /// written, shed ones included — exercising the supervisor's respawn
    /// path without losing any admitted query. An idle batcher never
    /// observes the flag, so pair this with a query.
    #[cfg(feature = "failpoints")]
    pub fn chaos_kill_batcher(&self) {
        self.state.chaos_kill_batcher.store(true, Ordering::SeqCst);
    }
}

/// Why [`SpgServer::run`] stopped serving instead of shutting down cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The batcher thread died more times than the supervisor tolerates;
    /// the server refused to keep accepting connections it could never
    /// answer and stopped instead.
    BatcherFailed {
        /// How many times the batcher was observed dead in total.
        deaths: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BatcherFailed { deaths } => {
                write!(f, "batcher thread died {deaths} times; giving up")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A bound serving engine: call [`SpgServer::run`] to serve until
/// [`ServerHandle::shutdown`].
pub struct SpgServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
}

impl SpgServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// prepares to serve `graph` under `config`.
    pub fn bind<A: ToSocketAddrs>(
        graph: DiGraph,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<SpgServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            graph: RwLock::new(VersionedGraph::new(graph)),
            cache: SpgCache::new(config.cache_bytes),
            flights: FlightGroup::new(),
            queue: BatchQueue::with_deadline_fn(
                config.queue_capacity,
                config.batch_max,
                config.batch_deadline,
                |p: &PendingQuery| p.deadline,
            ),
            limiter: RateLimiter::new(config.rate_per_sec, config.burst),
            config,
            counters: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            #[cfg(feature = "failpoints")]
            chaos_kill_batcher: AtomicBool::new(false),
        });
        Ok(SpgServer {
            listener,
            local_addr,
            state,
        })
    }

    /// The bound address (the resolved port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until [`ServerHandle::shutdown`]: spawns the batcher, then
    /// accepts connections, one handler thread each. Returns after the
    /// batcher has drained the admitted backlog.
    ///
    /// The acceptor doubles as the batcher's supervisor. A server whose
    /// batcher has died would keep accepting connections it can never
    /// answer — every admitted query would wait forever. If the batcher
    /// thread is ever observed dead outside shutdown, it is respawned (up
    /// to [`MAX_BATCHER_RESTARTS`] times); past that the server stops and
    /// returns [`ServeError::BatcherFailed`] so the process can exit
    /// nonzero instead of serving a black hole.
    pub fn run(self) -> Result<(), ServeError> {
        let mut batcher = Some(spawn_batcher(&self.state));
        let mut deaths = 0u32;
        let mut fatal = None;

        while !self.state.shutdown.load(Ordering::SeqCst) {
            if batcher.as_ref().is_some_and(|h| h.is_finished()) {
                let panicked = batcher.take().expect("checked present").join().is_err(); // spg-analyze: allow(no-panic) — presence checked on the line above
                if self.state.shutdown.load(Ordering::SeqCst) {
                    break; // Clean exit: the queue closed under shutdown.
                }
                deaths += 1;
                let cause = if panicked { "panicked" } else { "exited early" };
                if deaths > MAX_BATCHER_RESTARTS {
                    eprintln!("spg-server: batcher thread {cause} ({deaths} deaths); failing fast");
                    fatal = Some(ServeError::BatcherFailed { deaths });
                    break;
                }
                eprintln!(
                    "spg-server: batcher thread {cause}; \
                     respawning ({deaths}/{MAX_BATCHER_RESTARTS})"
                );
                self.state
                    .counters
                    .batcher_restarts
                    .fetch_add(1, Ordering::Relaxed);
                batcher = Some(spawn_batcher(&self.state));
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    let _ = thread::Builder::new()
                        .name("spg-conn".into())
                        .spawn(move || connection_loop(&state, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        if fatal.is_some() {
            // Stop admitting, unblock connection readers, drain the queue.
            self.handle().shutdown();
        }
        // `shutdown()` already closed the queue; wait for the drain to end.
        self.state.queue.close();
        if let Some(handle) = batcher {
            let _ = handle.join();
        }
        match fatal {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// Batcher deaths tolerated (respawned) before [`SpgServer::run`] fails
/// fast with [`ServeError::BatcherFailed`].
pub const MAX_BATCHER_RESTARTS: u32 = 3;

fn spawn_batcher(state: &Arc<ServerState>) -> thread::JoinHandle<()> {
    let state = Arc::clone(state);
    thread::Builder::new()
        .name("spg-batcher".into())
        .spawn(move || batcher_loop(&state))
        .expect("spawn batcher thread") // spg-analyze: allow(no-panic) — thread spawn failure at startup is fatal by design
}

/// Read buffer of one connection: a pipelined burst of request frames comes
/// off the socket in one `read`, not three per frame.
const READ_BUF_BYTES: usize = 64 << 10;

/// One connection's read loop: frame in, request out (see the module docs
/// for which thread answers what).
fn connection_loop(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Connection {
        stream,
        write_lock: Mutex::new(()),
    });
    state
        .connections
        .lock() // lock: server.connections
        .expect("connection registry")
        .push(Arc::downgrade(&conn));

    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, read_half);
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match protocol::read_frame(&mut reader, state.config.max_frame_bytes) {
            Ok(payload) => handle_frame(state, &conn, &payload),
            Err(FrameError::Closed) => break,
            Err(FrameError::Oversized { declared, max }) => {
                // The stream is no longer frame-aligned; answer, then close.
                state
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                conn.send(&error_response(
                    None,
                    &format!(
                        "oversized request: frame of {declared} bytes exceeds the {max}-byte cap"
                    ),
                ));
                conn.hang_up();
                break;
            }
            // Mid-frame disconnects and any other read failure end the
            // connection quietly; in-flight queries for it complete and
            // their writes are swallowed.
            Err(FrameError::Io(_)) => break,
        }
    }
}

/// Parses and dispatches one request frame.
fn handle_frame(state: &Arc<ServerState>, conn: &Arc<Connection>, payload: &[u8]) {
    let request = match protocol::parse_request(payload) {
        Ok(request) => request,
        Err(bad) => {
            state
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            conn.send(&error_response(bad.id, &bad.message));
            return;
        }
    };
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    match request {
        Request::Ping { id } => conn.send(&pong_response(id)),
        Request::Stats { id } => conn.send(&stats_response(state, id)),
        Request::Query {
            id,
            query,
            tenant,
            deadline_ms,
        } => {
            let tenant_name = tenant.as_deref().unwrap_or("");
            if !state.limiter.admit(tenant_name) {
                state.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                conn.send(&overloaded_response(
                    id,
                    &format!("rate limit exceeded for tenant '{tenant_name}'"),
                ));
                return;
            }
            // The deadline clock starts now, at parse time; a `deadline_ms`
            // too large for the clock saturates to unlimited.
            let deadline =
                deadline_ms.and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
            let pending = PendingQuery {
                id,
                query,
                deadline,
                conn: Arc::clone(conn),
            };
            if let Err(refused) = state.queue.push(pending) {
                state.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                refused
                    .conn
                    .send(&overloaded_response(refused.id, "admission queue is full"));
            }
        }
        Request::Update { id, add, remove } => {
            let deltas: Vec<EdgeDelta> = add
                .iter()
                .map(|&(u, v)| EdgeDelta::add(u, v))
                .chain(remove.iter().map(|&(u, v)| EdgeDelta::remove(u, v)))
                .collect();
            // Applied here, on the connection thread, while holding the
            // graph writer side: the batcher's per-drain read lock
            // serialises the mutation against in-flight batches, and the
            // scoped purge happens before any query can observe the
            // mutated graph.
            let mut graph = state.graph.write().expect("server graph"); // lock: server.graph
            match apply_delta_scoped(&mut graph, &state.cache, &deltas) {
                Ok(update) => {
                    drop(graph);
                    state
                        .counters
                        .deltas_applied
                        .fetch_add(update.delta.applied as u64, Ordering::Relaxed);
                    state
                        .counters
                        .entries_purged_scoped
                        .fetch_add(update.purged as u64, Ordering::Relaxed);
                    conn.send(&update_response(
                        id,
                        update.delta.applied,
                        update.purged,
                        update.delta.seq,
                    ));
                }
                Err(err) => {
                    drop(graph);
                    state.counters.update_errors.fetch_add(1, Ordering::Relaxed);
                    conn.send(&error_response(Some(id), &err.to_string()));
                }
            }
        }
    }
}

/// The single batcher thread: drain micro-batches until shutdown.
fn batcher_loop(state: &Arc<ServerState>) {
    let executor = if state.config.threads == 0 {
        BatchExecutor::with_available_parallelism()
    } else {
        BatchExecutor::new(state.config.threads)
    }
    .shared_phase1(state.config.shared_phase1)
    .phase1_lanes(state.config.phase1_lanes);

    while let Some(batch) = state.queue.next_batch() {
        answer_batch(state, &executor, &batch);
        // Chaos hook: die here, right after a batch's replies are written,
        // so the supervisor's respawn path is exercised without losing any
        // admitted query, and a freshly respawned batcher always answers a
        // batch before the hook can kill it.
        #[cfg(feature = "failpoints")]
        if state.chaos_kill_batcher.swap(false, Ordering::SeqCst) {
            panic!("chaos: batcher killed by test hook");
        }
    }
}

/// Sheds the batch's expired requests, drains the rest through `executor`
/// and writes every reply.
fn answer_batch(state: &ServerState, executor: &BatchExecutor, batch: &[PendingQuery]) {
    state.counters.batches.fetch_add(1, Ordering::Relaxed);
    state
        .counters
        .max_batch
        .fetch_max(batch.len() as u64, Ordering::Relaxed);

    // Shed requests whose deadline burned away while they queued: an
    // explicit `expired` response now beats a `deadline exceeded` error
    // after paying for a doomed execution.
    let now = Instant::now();
    let mut live: Vec<&PendingQuery> = Vec::with_capacity(batch.len());
    for pending in batch {
        match pending.deadline {
            Some(deadline) if deadline <= now => {
                state.counters.shed_expired.fetch_add(1, Ordering::Relaxed);
                pending.conn.send(&expired_response(pending.id));
            }
            _ => live.push(pending),
        }
    }
    if live.is_empty() {
        return;
    }

    let queries: Vec<Query> = live.iter().map(|p| p.query).collect();
    let deadlines: Vec<Option<Instant>> = live.iter().map(|p| p.deadline).collect();
    // Bind to the *current* snapshot per drain — `update` requests may
    // have mutated the graph since the last batch. Holding the read
    // lock across the drain keeps the batch consistent: an update waits
    // for the write lock until this drain's responses are computed.
    let graph = state.graph.read().expect("server graph"); // lock: server.graph
    let cached = CachedEve::with_defaults(&graph, &state.cache);
    let drained = catch_unwind(AssertUnwindSafe(|| {
        executor.run_cached_coalesced_with_deadlines(&cached, &state.flights, &queries, &deadlines)
    }));
    // The answers are owned: encode and write them outside the lock.
    drop(graph);
    let mut replies = DrainReplies::default();
    match drained {
        Ok(outcome) => {
            state
                .counters
                .panics_isolated
                .fetch_add(outcome.stats.panics_isolated as u64, Ordering::Relaxed);
            for (i, pending) in live.iter().enumerate() {
                match &outcome.results[i] {
                    Ok(spg) => {
                        state.counters.answered.fetch_add(1, Ordering::Relaxed);
                        let source =
                            outcome.slot_sources[i].expect("ok slots always carry a cache outcome"); // spg-analyze: allow(no-panic) — ok slots always carry a cache outcome
                        replies.push(
                            &pending.conn,
                            &ok_response(pending.id, source, spg.query().k, spg.edges()),
                        );
                    }
                    Err(err) => {
                        state.counters.query_errors.fetch_add(1, Ordering::Relaxed);
                        if matches!(err, QueryError::DeadlineExceeded) {
                            state
                                .counters
                                .deadline_exceeded
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        replies.push(&pending.conn, &query_error_response(pending.id, err));
                    }
                }
            }
        }
        Err(_) => {
            // Contain the crash to this batch: flight tokens abandoned on
            // unwind, joiners in other drains recompute, we keep serving.
            for pending in &live {
                state.counters.query_errors.fetch_add(1, Ordering::Relaxed);
                replies.push(
                    &pending.conn,
                    &error_response(Some(pending.id), "internal error: batch execution panicked"),
                );
            }
        }
    }
    replies.send();
}

/// One drain's replies, framed into one buffer per connection in slot order
/// (a drain holds at most `batch_max` slots, so a linear search over the
/// few connections beats hashing).
#[derive(Default)]
struct DrainReplies<'a> {
    buffers: Vec<(&'a Arc<Connection>, Vec<u8>)>,
}

impl<'a> DrainReplies<'a> {
    /// Appends `payload` as one frame to `conn`'s buffer.
    fn push(&mut self, conn: &'a Arc<Connection>, payload: &str) {
        let at = match self.buffers.iter().position(|(c, _)| Arc::ptr_eq(c, conn)) {
            Some(at) => at,
            None => {
                self.buffers.push((conn, Vec::new()));
                self.buffers.len() - 1
            }
        };
        // Only a payload past the u32 length prefix fails; it is dropped.
        let _ = protocol::write_frame(&mut self.buffers[at].1, payload.as_bytes());
    }

    /// Writes each connection's buffer with one `write_all`.
    fn send(self) {
        for (conn, frames) in &self.buffers {
            conn.send_frames(frames);
        }
    }
}

/// Builds the `stats` response: serving, cache and singleflight counters.
fn stats_response(state: &Arc<ServerState>, id: u64) -> String {
    let c = &state.counters;
    // Graph counters first, in their own scope: server.graph is released
    // before any other lock (cache shards, admission) is touched below.
    let (overlay_compactions, delta_seq, graph_version) = {
        let graph = state.graph.read().expect("server graph"); // lock: server.graph
        (graph.compactions(), graph.delta_seq(), graph.version())
    };
    let cache = state.cache.stats();
    let flights = state.flights.stats();
    let obj = Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("status".into(), Json::Str("ok".into())),
        (
            "server".into(),
            Json::Object(vec![
                (
                    "requests".into(),
                    Json::Uint(c.requests.load(Ordering::Relaxed)),
                ),
                (
                    "answered".into(),
                    Json::Uint(c.answered.load(Ordering::Relaxed)),
                ),
                (
                    "query_errors".into(),
                    Json::Uint(c.query_errors.load(Ordering::Relaxed)),
                ),
                (
                    "protocol_errors".into(),
                    Json::Uint(c.protocol_errors.load(Ordering::Relaxed)),
                ),
                (
                    "overloaded".into(),
                    Json::Uint(c.overloaded.load(Ordering::Relaxed)),
                ),
                (
                    "batches".into(),
                    Json::Uint(c.batches.load(Ordering::Relaxed)),
                ),
                (
                    "max_batch".into(),
                    Json::Uint(c.max_batch.load(Ordering::Relaxed)),
                ),
                (
                    "shed_expired".into(),
                    Json::Uint(c.shed_expired.load(Ordering::Relaxed)),
                ),
                (
                    "deadline_exceeded".into(),
                    Json::Uint(c.deadline_exceeded.load(Ordering::Relaxed)),
                ),
                (
                    "panics_isolated".into(),
                    Json::Uint(c.panics_isolated.load(Ordering::Relaxed)),
                ),
                (
                    "batcher_restarts".into(),
                    Json::Uint(c.batcher_restarts.load(Ordering::Relaxed)),
                ),
                (
                    "deltas_applied".into(),
                    Json::Uint(c.deltas_applied.load(Ordering::Relaxed)),
                ),
                (
                    "entries_purged_scoped".into(),
                    Json::Uint(c.entries_purged_scoped.load(Ordering::Relaxed)),
                ),
                (
                    "update_errors".into(),
                    Json::Uint(c.update_errors.load(Ordering::Relaxed)),
                ),
                (
                    "overlay_compactions".into(),
                    Json::Uint(overlay_compactions),
                ),
                ("delta_seq".into(), Json::Uint(delta_seq)),
                ("graph_version".into(), Json::Uint(graph_version)),
                ("queue_depth".into(), Json::Uint(state.queue.len() as u64)),
                ("tenants".into(), Json::Uint(state.limiter.tenants() as u64)),
            ]),
        ),
        (
            "cache".into(),
            Json::Object(vec![
                ("hits".into(), Json::Uint(cache.hits)),
                ("misses".into(), Json::Uint(cache.misses)),
                ("insertions".into(), Json::Uint(cache.insertions)),
                ("evictions".into(), Json::Uint(cache.evictions)),
                ("purged_stale".into(), Json::Uint(cache.purged_stale)),
                ("purged_scoped".into(), Json::Uint(cache.purged_scoped)),
                ("entries".into(), Json::Uint(cache.entries as u64)),
                ("bytes".into(), Json::Uint(cache.bytes as u64)),
                ("budget_bytes".into(), Json::Uint(cache.budget_bytes as u64)),
            ]),
        ),
        (
            "flights".into(),
            Json::Object(vec![
                ("led".into(), Json::Uint(flights.led)),
                ("joined".into(), Json::Uint(flights.joined)),
                ("abandoned".into(), Json::Uint(flights.abandoned)),
            ]),
        ),
    ]);
    json::to_string(&obj)
}

// `Write` is used through `&TcpStream` (see `Connection`); keep the bound
// explicit so refactors that break it fail here, not at a call site.
const _: () = {
    const fn assert_write<T: Write>() {}
    assert_write::<&TcpStream>();
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerState>();
    assert_send_sync::<ServerHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The server's admission queue is built earliest-deadline-first: when a
    /// backlog exceeds `batch_max`, a tight deadline queued behind lax and
    /// deadline-less queries lands in the first drained batch.
    #[test]
    fn backlog_drains_the_tight_deadline_first() {
        let config = ServerConfig {
            batch_max: 2,
            batch_deadline: Duration::ZERO,
            ..ServerConfig::default()
        };
        let server = SpgServer::bind(DiGraph::from_edges(2, [(0, 1)]), "127.0.0.1:0", config)
            .expect("bind loopback");
        let stream = TcpStream::connect(server.local_addr()).expect("connect loopback");
        let conn = Arc::new(Connection {
            stream,
            write_lock: Mutex::new(()),
        });
        let now = Instant::now();
        let pending = |id, deadline| PendingQuery {
            id,
            query: Query::new(0, 1, 1),
            deadline,
            conn: Arc::clone(&conn),
        };
        let queue = &server.state.queue;
        for (id, deadline) in [
            (1, Some(now + Duration::from_secs(60))),
            (2, None),
            (3, Some(now + Duration::from_secs(1))),
        ] {
            assert!(queue.push(pending(id, deadline)).is_ok(), "queue has room");
        }
        let ids = |batch: Vec<PendingQuery>| -> Vec<u64> { batch.iter().map(|p| p.id).collect() };
        assert_eq!(ids(queue.next_batch().expect("first batch")), vec![3, 1]);
        assert_eq!(ids(queue.next_batch().expect("second batch")), vec![2]);
    }
}
