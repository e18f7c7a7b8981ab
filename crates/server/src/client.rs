//! Minimal blocking client for the serving protocol.
//!
//! Used by the integration tests; also a reference implementation of the
//! framing for anyone writing a real client. One [`SpgClient`] is one TCP
//! connection; it is deliberately synchronous (send one frame, read one
//! frame) because the tests, which check one reply at a time, want
//! exactly that. Out-of-order responses —
//! which the server may produce across *concurrent* requests — only matter
//! to clients that pipeline, and those should match on [`Reply::id`].
//!
//! [`SpgClient::query_retrying`] is the reference retry loop: `overloaded`
//! and `expired` are the server's *transient* refusals (back-pressure and a
//! deadline burned in the queue), so they are worth retrying with jittered
//! exponential backoff ([`RetryPolicy`]); `error` responses are
//! deterministic and are returned immediately.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, Json};
use crate::protocol::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME_BYTES};

/// How [`SpgClient::query_retrying`] backs off between attempts.
///
/// Backoff for attempt `i` (0-based) is drawn uniformly from
/// `[0, min(max_backoff, base_backoff << i)]` — "full jitter", which
/// decorrelates a thundering herd of refused clients better than fixed
/// exponential steps. The jitter source is a deterministic xorshift stream
/// seeded from `jitter_seed ^ id`, so a given (policy, request) pair
/// replays identically; real deployments should vary `jitter_seed` per
/// client.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Backoff cap before the first doubling.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before attempt `attempt + 1`.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let ceiling = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let nanos = ceiling.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(xorshift(rng) % (nanos + 1))
    }
}

/// `xorshift64` — deterministic, dependency-free jitter. Not for crypto.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One response, decoded from the wire into plain fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoed request id (`None` when the server could not attribute the
    /// frame, e.g. a malformed or oversized request).
    pub id: Option<u64>,
    /// `"ok"`, `"error"`, `"overloaded"` or `"expired"`.
    pub status: String,
    /// For `ok` query replies: `"hit"`, `"miss"` or `"coalesced"`.
    pub source: Option<String>,
    /// For `ok` query replies: the clamped hop bound the engine recorded.
    pub k: Option<u32>,
    /// For `ok` query replies: the answer's edge list in engine order.
    pub edges: Option<Vec<(u32, u32)>>,
    /// For `error` / `overloaded`: the server's message.
    pub error: Option<String>,
    /// The full parsed document (stats payloads and forward compatibility).
    pub raw: Json,
}

impl Reply {
    fn from_json(raw: Json) -> io::Result<Reply> {
        let status = raw
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_reply("response has no status"))?
            .to_string();
        let edges = match raw.get("edges") {
            None => None,
            Some(Json::Array(items)) => {
                let mut list = Vec::with_capacity(items.len());
                for item in items {
                    let pair = item
                        .as_array()
                        .ok_or_else(|| bad_reply("edge not a pair"))?;
                    match pair {
                        [u, v] => {
                            let u = u.as_u64().ok_or_else(|| bad_reply("edge endpoint"))?;
                            let v = v.as_u64().ok_or_else(|| bad_reply("edge endpoint"))?;
                            list.push((
                                u32::try_from(u).map_err(|_| bad_reply("edge endpoint range"))?,
                                u32::try_from(v).map_err(|_| bad_reply("edge endpoint range"))?,
                            ));
                        }
                        _ => return Err(bad_reply("edge not a pair")),
                    }
                }
                Some(list)
            }
            Some(_) => return Err(bad_reply("edges not an array")),
        };
        Ok(Reply {
            id: raw.get("id").and_then(Json::as_u64),
            status,
            source: raw.get("source").and_then(Json::as_str).map(str::to_string),
            k: raw
                .get("k")
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok()),
            edges,
            error: raw.get("error").and_then(Json::as_str).map(str::to_string),
            raw,
        })
    }
}

fn bad_reply(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {message}"))
}

/// One blocking protocol connection (see the module docs).
#[derive(Debug)]
pub struct SpgClient {
    /// Read side: a reply comes off the socket in one `read`, not three.
    reader: BufReader<TcpStream>,
    /// Write side, a clone of the same socket: frames and raw test bytes.
    writer: TcpStream,
    max_frame_bytes: usize,
}

impl SpgClient {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<SpgClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(SpgClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Caps how large a *response* frame this client will accept.
    pub fn max_frame_bytes(mut self, max: usize) -> Self {
        self.max_frame_bytes = max;
        self
    }

    /// Sets a read timeout for [`SpgClient::recv`] (`None` blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one raw payload as a frame (tests use this to send hostile
    /// bytes; well-formed callers use the typed helpers).
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Writes raw bytes *without* framing — for tests that truncate a frame
    /// or corrupt a length prefix on purpose.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one response frame and decodes it.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let payload = read_frame(&mut self.reader, self.max_frame_bytes).map_err(|e| match e {
            FrameError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        let doc = json::parse(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Reply::from_json(doc)
    }

    /// Sends a query request (no tenant, no deadline).
    pub fn send_query(&mut self, id: u64, s: u32, t: u32, k: u32) -> io::Result<()> {
        self.send_query_with(id, s, t, k, None, None)
    }

    /// Sends a query request charged to `tenant`.
    pub fn send_query_for(
        &mut self,
        id: u64,
        s: u32,
        t: u32,
        k: u32,
        tenant: Option<&str>,
    ) -> io::Result<()> {
        self.send_query_with(id, s, t, k, tenant, None)
    }

    /// Sends a query request with every optional field spelled out.
    pub fn send_query_with(
        &mut self,
        id: u64,
        s: u32,
        t: u32,
        k: u32,
        tenant: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> io::Result<()> {
        let mut fields = vec![
            ("id".to_string(), Json::Uint(id)),
            ("op".to_string(), Json::Str("query".into())),
            ("s".to_string(), Json::Uint(s as u64)),
            ("t".to_string(), Json::Uint(t as u64)),
            ("k".to_string(), Json::Uint(k as u64)),
        ];
        if let Some(name) = tenant {
            fields.push(("tenant".to_string(), Json::Str(name.into())));
        }
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::Uint(ms)));
        }
        let payload = json::to_string(&Json::Object(fields));
        self.send_raw(payload.as_bytes())
    }

    /// Round trip: send a query, read one reply.
    pub fn query(&mut self, id: u64, s: u32, t: u32, k: u32) -> io::Result<Reply> {
        self.send_query(id, s, t, k)?;
        self.recv()
    }

    /// Round trip with a per-request deadline: the server sheds the query
    /// with `status: expired` if the deadline burns away in its queue, and
    /// cancels it with the `query deadline exceeded` error mid-execution.
    pub fn query_with_deadline(
        &mut self,
        id: u64,
        s: u32,
        t: u32,
        k: u32,
        deadline_ms: u64,
    ) -> io::Result<Reply> {
        self.send_query_with(id, s, t, k, None, Some(deadline_ms))?;
        self.recv()
    }

    /// The reference retry loop: round trips the query up to
    /// `policy.max_attempts` times, sleeping a jittered exponential backoff
    /// after each *transient* refusal (`overloaded`, `expired`). Any other
    /// status — `ok`, or a deterministic `error` that a retry cannot fix —
    /// returns immediately; so does the last attempt's refusal, which the
    /// caller sees unchanged.
    pub fn query_retrying(
        &mut self,
        id: u64,
        s: u32,
        t: u32,
        k: u32,
        deadline_ms: Option<u64>,
        policy: &RetryPolicy,
    ) -> io::Result<Reply> {
        let mut rng = policy.jitter_seed ^ id;
        if rng == 0 {
            rng = 0x9E37_79B9_7F4A_7C15; // xorshift must not start at zero
        }
        let attempts = policy.max_attempts.max(1);
        for attempt in 0..attempts {
            self.send_query_with(id, s, t, k, None, deadline_ms)?;
            let reply = self.recv()?;
            let transient = reply.status == "overloaded" || reply.status == "expired";
            if !transient || attempt + 1 == attempts {
                return Ok(reply);
            }
            std::thread::sleep(policy.backoff(attempt, &mut rng));
        }
        unreachable!("the loop always returns on its last attempt");
    }

    /// Round trip: apply one edge-delta batch (`op: "update"`). Either list
    /// may be empty, but the server rejects a batch where both are. The
    /// reply's `raw` object carries `applied` (deltas that changed the
    /// graph), `purged` (cache entries scoped out) and `seq` (delta batches
    /// applied to the current snapshot).
    pub fn update(
        &mut self,
        id: u64,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) -> io::Result<Reply> {
        fn edges(list: &[(u32, u32)]) -> Json {
            Json::Array(
                list.iter()
                    .map(|&(s, t)| Json::Array(vec![Json::Uint(s as u64), Json::Uint(t as u64)]))
                    .collect(),
            )
        }
        let payload = json::to_string(&Json::Object(vec![
            ("id".into(), Json::Uint(id)),
            ("op".into(), Json::Str("update".into())),
            ("add".into(), edges(add)),
            ("remove".into(), edges(remove)),
        ]));
        self.send_raw(payload.as_bytes())?;
        self.recv()
    }

    /// Round trip: liveness probe.
    pub fn ping(&mut self, id: u64) -> io::Result<Reply> {
        let payload = json::to_string(&Json::Object(vec![
            ("id".into(), Json::Uint(id)),
            ("op".into(), Json::Str("ping".into())),
        ]));
        self.send_raw(payload.as_bytes())?;
        self.recv()
    }

    /// Round trip: counter snapshot (see [`crate::server`] for the shape).
    pub fn stats(&mut self, id: u64) -> io::Result<Reply> {
        let payload = json::to_string(&Json::Object(vec![
            ("id".into(), Json::Uint(id)),
            ("op".into(), Json::Str("stats".into())),
        ]));
        self.send_raw(payload.as_bytes())?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let policy = RetryPolicy::default();
        let (mut a, mut b) = (42u64, 42u64);
        let mut saw_nonzero = false;
        for attempt in 0..12 {
            let x = policy.backoff(attempt, &mut a);
            let y = policy.backoff(attempt, &mut b);
            assert_eq!(x, y, "same seed replays the same jitter stream");
            let ceiling = policy
                .base_backoff
                .saturating_mul(1u32 << attempt.min(16))
                .min(policy.max_backoff);
            assert!(x <= ceiling, "attempt {attempt}: {x:?} above {ceiling:?}");
            assert!(x <= policy.max_backoff, "never sleeps past the cap");
            saw_nonzero |= x > Duration::ZERO;
        }
        assert!(saw_nonzero, "jitter in [0, cap] should not be all zeros");
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let policy = RetryPolicy {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let mut rng = 7u64;
        for attempt in 0..4 {
            assert_eq!(policy.backoff(attempt, &mut rng), Duration::ZERO);
        }
    }
}
