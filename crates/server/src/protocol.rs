//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by exactly that many bytes of JSON.
//! Explicit framing (rather than a line protocol) makes truncation,
//! oversized payloads and mid-frame disconnects first-class protocol states
//! the server handles deliberately instead of edge cases inside a text
//! splitter.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "op": "query", "s": 0, "t": 5, "k": 4}
//! {"id": 2, "op": "query", "s": 0, "t": 5, "k": 4, "tenant": "fraud-team"}
//! {"id": 5, "op": "query", "s": 0, "t": 5, "k": 4, "deadline_ms": 250}
//! {"id": 3, "op": "ping"}
//! {"id": 4, "op": "stats"}
//! {"id": 6, "op": "update", "add": [[0, 7]], "remove": [[3, 5]]}
//! ```
//!
//! `id` is an arbitrary `u64` chosen by the client and echoed verbatim in
//! the response; `s`/`t` are vertex ids, `k` the hop bound (the full `u32`
//! range is accepted — clamping happens in the engine exactly as in the
//! library API). `tenant` selects the token bucket charged for admission
//! (default: the anonymous tenant). `deadline_ms` is an optional per-request
//! wall-clock budget, measured from the moment the server parses the
//! request: a request whose deadline passes while it waits in the admission
//! queue is **shed** with a `status: expired` response instead of being
//! computed, and one that expires mid-computation reports the engine's
//! [`spg_core::QueryError::DeadlineExceeded`].
//!
//! `update` applies a streaming edge-delta batch to the served graph
//! (`add`/`remove` are arrays of `[u, v]` pairs; either may be absent, not
//! both) and scopes cache invalidation to the entries the batch could have
//! affected — see `docs/dynamic_graphs.md` for the semantics and
//! guarantees.
//!
//! ## Responses
//!
//! ```json
//! {"id": 1, "status": "ok", "source": "miss", "k": 4, "edges": [[0,3],[3,5]]}
//! {"id": 1, "status": "error", "error": "source and target must be distinct (both are 5)"}
//! {"id": 2, "status": "overloaded", "error": "admission queue is full"}
//! {"id": 5, "status": "expired", "error": "deadline expired before execution"}
//! {"id": 3, "status": "ok", "pong": true}
//! {"id": 6, "status": "ok", "applied": 2, "purged": 1, "seq": 3}
//! ```
//!
//! `source` is `"hit"`, `"miss"` or `"coalesced"` — how the cache/
//! singleflight layer served the slot. `edges` is the answer's edge list in
//! the engine's deterministic order, so a client can compare responses
//! bit-for-bit against [`spg_core::Eve::query`]. `error` strings on
//! `status: error` responses are the exact [`spg_core::QueryError`] display
//! strings for the same reason: [`query_error_response`] is the **only**
//! path from an engine error to the wire, and it formats the variant via
//! that one canonical `Display` implementation — the server never writes a
//! free-form copy of an engine error string. Frames that cannot be
//! attributed to a request (unparseable id) are answered with `"id": null`.
//!
//! ## Encoding
//!
//! An `ok` answer is the one reply whose size grows with the query: its
//! edge list grows with k. The server writes it once, as a complete frame,
//! straight into its connection's drain buffer: `append_frame` reserves
//! the length prefix, `write_ok` writes the payload after it, formatting
//! integers two digits per step and appending each edge from a stack
//! buffer, and `append_frame` then patches the length in. [`ok_response`]
//! runs the same writer and returns the payload as a `String`. Every other
//! reply is small and rare, and is built as a [`Json`] tree.

use std::io::{self, Read, Write};

use spg_core::{CacheOutcome, Query, QueryError};

use crate::json::{self, Json};

/// Default cap on a frame's payload size, for whoever reads the frame. The
/// server applies its cap ([`crate::ServerConfig::max_frame_bytes`]) to
/// request frames only, which are tiny, and never caps a reply. A reply
/// carries its answer's whole edge list, so a client should size its own
/// cap to the answers it asks for: [`crate::SpgClient`] reads replies under
/// this default, and a k = 16 answer on a 4,000-vertex, 24,000-edge random
/// graph is about 260 KB.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Reading one frame: the payload, a clean end-of-stream, or a violation.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection between frames — a normal goodbye.
    Closed,
    /// The declared payload length exceeds the cap. The stream can no
    /// longer be trusted to be frame-aligned, so the connection must close
    /// after the error response.
    Oversized {
        /// Length the prefix declared.
        declared: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The peer disconnected mid-frame or another I/O error occurred.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Reads one length-prefixed frame. Returns [`FrameError::Closed`] only for
/// EOF *between* frames; EOF inside the prefix or payload is an I/O error
/// (truncated frame).
pub fn read_frame<R: Read>(reader: &mut R, max_bytes: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    // First byte decides Closed vs truncated.
    match reader.read(&mut prefix[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    reader
        .read_exact(&mut prefix[1..])
        .map_err(FrameError::Io)?;
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max_bytes {
        return Err(FrameError::Oversized {
            declared,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; declared];
    reader.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Appends one frame to `out` whose payload `write_payload` writes in
/// place: the 4-byte prefix is reserved, the payload written after it, and
/// the length patched into the prefix. A payload past the `u32` length
/// prefix is removed again and reported. This is the only code that knows
/// the frame format: [`write_frame`] and the server's batcher, which frames
/// a drain's replies into one buffer per connection, both go through it.
pub(crate) fn append_frame(
    out: &mut Vec<u8>,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write_payload(out);
    match u32::try_from(out.len() - start - 4) {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        Err(_) => {
            out.truncate(start);
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame exceeds u32 length",
            ))
        }
    }
}

/// Writes one length-prefixed frame with a single `write_all` of prefix
/// plus payload, so on a `TCP_NODELAY` socket the prefix never leaves in
/// a segment of its own.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    append_frame(&mut frame, |out| out.extend_from_slice(payload))?;
    writer.write_all(&frame)
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Answer `⟨s, t, k⟩` on the served graph.
    Query {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The hop-constrained s-t query.
        query: Query,
        /// Token bucket to charge (`None` = the anonymous tenant).
        tenant: Option<String>,
        /// Wall-clock budget in milliseconds, measured from parse time
        /// (`None` = unbounded).
        deadline_ms: Option<u64>,
    },
    /// Liveness probe; answered inline by the connection thread.
    Ping {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Counter snapshot (cache, singleflight, server); answered inline.
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
    /// Streaming edge-delta batch: apply to the served graph, purge only
    /// the affected cache entries. Applied on the connection thread under
    /// the server's graph write lock.
    Update {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Edges to insert (present edges are no-ops).
        add: Vec<(u32, u32)>,
        /// Edges to delete (absent edges are no-ops).
        remove: Vec<(u32, u32)>,
    },
}

/// Why a request frame was rejected before reaching the engine. Carries the
/// request id when one could be recovered, so the error response still
/// correlates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// Recovered correlation id, if the frame got that far.
    pub id: Option<u64>,
    /// Human-readable reason, echoed to the client.
    pub message: String,
}

impl BadRequest {
    fn new(id: Option<u64>, message: impl Into<String>) -> Self {
        BadRequest {
            id,
            message: message.into(),
        }
    }
}

/// Extracts a required exact-`u64` field. [`Json::Float`] is how the parser
/// surfaces out-of-range integers, so overflow reports precisely.
fn u64_field(doc: &Json, id: Option<u64>, key: &str) -> Result<u64, BadRequest> {
    match doc.get(key) {
        Some(Json::Uint(v)) => Ok(*v),
        Some(Json::Int(_) | Json::Float(_)) => Err(BadRequest::new(
            id,
            format!("field '{key}' must be an integer in [0, 2^64)"),
        )),
        Some(_) => Err(BadRequest::new(
            id,
            format!("field '{key}' must be a number"),
        )),
        None => Err(BadRequest::new(id, format!("missing field '{key}'"))),
    }
}

/// Like [`u64_field`] but bounded to `u32` (vertex ids and hop bounds).
fn u32_field(doc: &Json, id: Option<u64>, key: &str) -> Result<u32, BadRequest> {
    let v = u64_field(doc, id, key)?;
    u32::try_from(v)
        .map_err(|_| BadRequest::new(id, format!("field '{key}' exceeds the u32 range")))
}

/// Optional edge-list field of an `update` request: an array of `[u, v]`
/// pairs (absent or `null` reads as empty).
fn edge_list_field(doc: &Json, id: u64, key: &str) -> Result<Vec<(u32, u32)>, BadRequest> {
    let items = match doc.get(key) {
        None | Some(Json::Null) => return Ok(Vec::new()),
        Some(Json::Array(items)) => items,
        Some(_) => {
            return Err(BadRequest::new(
                Some(id),
                format!("field '{key}' must be an array of [u, v] pairs"),
            ))
        }
    };
    let mut edges = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item {
            Json::Array(pair) if pair.len() == 2 => pair,
            _ => {
                return Err(BadRequest::new(
                    Some(id),
                    format!("field '{key}' entries must be [u, v] pairs"),
                ))
            }
        };
        let mut ends = [0u32; 2];
        for (slot, value) in ends.iter_mut().zip(pair) {
            *slot = match value {
                Json::Uint(v) => u32::try_from(*v).map_err(|_| {
                    BadRequest::new(
                        Some(id),
                        format!("field '{key}' vertex exceeds the u32 range"),
                    )
                })?,
                _ => {
                    return Err(BadRequest::new(
                        Some(id),
                        format!("field '{key}' vertices must be integers in [0, 2^32)"),
                    ))
                }
            };
        }
        edges.push((ends[0], ends[1]));
    }
    Ok(edges)
}

/// Parses one request frame. Never panics on hostile input: every malformed
/// shape maps to a [`BadRequest`] the server answers and survives.
pub fn parse_request(payload: &[u8]) -> Result<Request, BadRequest> {
    let doc =
        json::parse(payload).map_err(|e| BadRequest::new(None, format!("malformed JSON: {e}")))?;
    if !matches!(doc, Json::Object(_)) {
        return Err(BadRequest::new(None, "request must be a JSON object"));
    }
    // Recover the id first so later errors still correlate.
    let id = match doc.get("id") {
        Some(Json::Uint(v)) => *v,
        Some(_) => {
            return Err(BadRequest::new(
                None,
                "field 'id' must be an integer in [0, 2^64)",
            ))
        }
        None => return Err(BadRequest::new(None, "missing field 'id'")),
    };
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| BadRequest::new(Some(id), "missing or non-string field 'op'"))?;
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "query" => {
            let s = u32_field(&doc, Some(id), "s")?;
            let t = u32_field(&doc, Some(id), "t")?;
            let k = u32_field(&doc, Some(id), "k")?;
            let tenant = match doc.get("tenant") {
                None | Some(Json::Null) => None,
                Some(Json::Str(name)) => Some(name.clone()),
                Some(_) => {
                    return Err(BadRequest::new(Some(id), "field 'tenant' must be a string"))
                }
            };
            let deadline_ms = match doc.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(_) => Some(u64_field(&doc, Some(id), "deadline_ms")?),
            };
            Ok(Request::Query {
                id,
                query: Query::new(s, t, k),
                tenant,
                deadline_ms,
            })
        }
        "update" => {
            let add = edge_list_field(&doc, id, "add")?;
            let remove = edge_list_field(&doc, id, "remove")?;
            if add.is_empty() && remove.is_empty() {
                return Err(BadRequest::new(
                    Some(id),
                    "update needs a non-empty 'add' or 'remove' edge list",
                ));
            }
            Ok(Request::Update { id, add, remove })
        }
        other => Err(BadRequest::new(
            Some(id),
            format!("unknown op '{other}' (expected query, update, ping or stats)"),
        )),
    }
}

/// The wire spelling of a [`CacheOutcome`].
pub fn source_str(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Coalesced => "coalesced",
    }
}

fn id_json(id: Option<u64>) -> Json {
    match id {
        Some(v) => Json::Uint(v),
        None => Json::Null,
    }
}

/// Bytes of an `ok` reply around its edges at the widest id, source and k:
/// `{"id":<20>,"status":"ok","source":"coalesced","k":<10>,"edges":[]}`.
const OK_FIXED_BYTES: usize = 88;

/// Bytes of one edge at the widest endpoints, with its separator:
/// `,[4294967295,4294967295]`.
const OK_EDGE_BYTES: usize = 24;

/// Appends the payload of the `status: ok` response for an answered query
/// to `out`: the clamped `k` the engine recorded plus the full edge list in
/// deterministic order.
///
/// The bytes are those [`json::to_string`] would emit for the object
/// `{id, status, source, k, edges}`, written straight into `out` after one
/// reservation for the widest reply: no `Json` tree and no `String`. Each
/// edge is formatted right to left into a stack buffer and appended with
/// one `extend_from_slice`.
pub(crate) fn write_ok(
    out: &mut Vec<u8>,
    id: u64,
    source: CacheOutcome,
    clamped_k: u32,
    edges: &[(u32, u32)],
) {
    out.reserve(OK_FIXED_BYTES + OK_EDGE_BYTES * edges.len());
    let mut number = [0u8; json::U64_DIGITS];
    out.extend_from_slice(b"{\"id\":");
    let start = json::put_digits(&mut number, id);
    out.extend_from_slice(&number[start..]);
    out.extend_from_slice(b",\"status\":\"ok\",\"source\":\"");
    out.extend_from_slice(source_str(source).as_bytes());
    out.extend_from_slice(b"\",\"k\":");
    let start = json::put_digits(&mut number, u64::from(clamped_k));
    out.extend_from_slice(&number[start..]);
    out.extend_from_slice(b",\"edges\":[");
    let mut edge = [0u8; OK_EDGE_BYTES];
    for (i, &(u, v)) in edges.iter().enumerate() {
        let mut at = OK_EDGE_BYTES - 1;
        edge[at] = b']';
        at = json::put_digits(&mut edge[..at], u64::from(v)) - 1;
        edge[at] = b',';
        at = json::put_digits(&mut edge[..at], u64::from(u)) - 1;
        edge[at] = b'[';
        at -= 1;
        edge[at] = b',';
        // The first edge goes out without its separator.
        out.extend_from_slice(&edge[at + usize::from(i == 0)..]);
    }
    out.extend_from_slice(b"]}");
}

/// [`write_ok`] into a fresh string, for callers that want the payload
/// alone; the server frames its replies in place instead.
pub fn ok_response(id: u64, source: CacheOutcome, clamped_k: u32, edges: &[(u32, u32)]) -> String {
    let mut out = Vec::new();
    write_ok(&mut out, id, source, clamped_k, edges);
    String::from_utf8(out).expect("the ok writer emits ASCII only") // spg-analyze: allow(no-panic) — every byte write_ok emits is ASCII
}

/// Builds a `status: error` response (malformed frame, protocol violation,
/// …). Engine errors must go through [`query_error_response`] instead so
/// their wire strings stay bit-identical to the library's.
pub fn error_response(id: Option<u64>, message: &str) -> String {
    json::to_string(&Json::Object(vec![
        ("id".into(), id_json(id)),
        ("status".into(), Json::Str("error".into())),
        ("error".into(), Json::Str(message.into())),
    ]))
}

/// Builds the `status: error` response for an engine [`QueryError`]. This
/// is the single path from an engine error to the wire: the `error` string
/// is exactly `err`'s canonical `Display` rendering — the same string a
/// local [`spg_core::Eve::query`] caller would format — so clients can
/// compare failures bit-for-bit too.
pub fn query_error_response(id: u64, err: &QueryError) -> String {
    error_response(Some(id), &err.to_string())
}

/// Builds the `status: expired` response for a request shed because its
/// deadline passed while it waited in the admission queue (it never reached
/// the engine; retrying with a larger `deadline_ms` may succeed).
pub fn expired_response(id: u64) -> String {
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("status".into(), Json::Str("expired".into())),
        (
            "error".into(),
            Json::Str("deadline expired before execution".into()),
        ),
    ]))
}

/// Builds a `status: overloaded` back-pressure response.
pub fn overloaded_response(id: u64, message: &str) -> String {
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("status".into(), Json::Str("overloaded".into())),
        ("error".into(), Json::Str(message.into())),
    ]))
}

/// Builds the `status: ok` response for an applied `update` batch:
/// `applied` counts the deltas that changed the graph (no-ops excluded),
/// `purged` the cache entries dropped by the scoped invalidation, `seq` the
/// graph's delta sequence number after the batch.
pub fn update_response(id: u64, applied: usize, purged: usize, seq: u64) -> String {
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("status".into(), Json::Str("ok".into())),
        ("applied".into(), Json::Uint(applied as u64)),
        ("purged".into(), Json::Uint(purged as u64)),
        ("seq".into(), Json::Uint(seq)),
    ]))
}

/// Builds the `ping` response.
pub fn pong_response(id: u64) -> String {
    json::to_string(&Json::Object(vec![
        ("id".into(), Json::Uint(id)),
        ("status".into(), Json::Str("ok".into())),
        ("pong".into(), Json::Bool(true)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"{\"id\":1}");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn truncated_prefix_and_payload_are_io_errors_not_closed() {
        // Only 2 of 4 prefix bytes.
        let mut cursor = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Io(_))
        ));
        // Prefix declares 10 bytes, 3 arrive.
        let mut partial = 10u32.to_be_bytes().to_vec();
        partial.extend_from_slice(b"abc");
        let mut cursor = Cursor::new(partial);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn oversized_declaration_is_rejected_without_reading() {
        let mut framed = u32::MAX.to_be_bytes().to_vec();
        framed.extend_from_slice(b"x");
        let mut cursor = Cursor::new(framed);
        match read_frame(&mut cursor, 64) {
            Err(FrameError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_documented_requests() {
        let q = parse_request(br#"{"id": 1, "op": "query", "s": 0, "t": 5, "k": 4}"#).unwrap();
        assert_eq!(
            q,
            Request::Query {
                id: 1,
                query: Query::new(0, 5, 4),
                tenant: None,
                deadline_ms: None
            }
        );
        let q = parse_request(
            br#"{"id": 2, "op": "query", "s": 1, "t": 2, "k": 4294967295, "tenant": "team"}"#,
        )
        .unwrap();
        assert_eq!(
            q,
            Request::Query {
                id: 2,
                query: Query::new(1, 2, u32::MAX),
                tenant: Some("team".into()),
                deadline_ms: None
            }
        );
        let q = parse_request(
            br#"{"id": 5, "op": "query", "s": 0, "t": 5, "k": 4, "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(
            q,
            Request::Query {
                id: 5,
                query: Query::new(0, 5, 4),
                tenant: None,
                deadline_ms: Some(250)
            }
        );
        assert_eq!(
            parse_request(br#"{"id": 3, "op": "ping"}"#).unwrap(),
            Request::Ping { id: 3 }
        );
        assert_eq!(
            parse_request(br#"{"id": 4, "op": "stats"}"#).unwrap(),
            Request::Stats { id: 4 }
        );
        assert_eq!(
            parse_request(br#"{"id": 6, "op": "update", "add": [[0, 7]], "remove": [[3, 5]]}"#)
                .unwrap(),
            Request::Update {
                id: 6,
                add: vec![(0, 7)],
                remove: vec![(3, 5)],
            }
        );
        assert_eq!(
            parse_request(br#"{"id": 7, "op": "update", "remove": [[1, 2], [2, 1]]}"#).unwrap(),
            Request::Update {
                id: 7,
                add: vec![],
                remove: vec![(1, 2), (2, 1)],
            }
        );
    }

    #[test]
    fn malformed_updates_error_cleanly() {
        for bad in [
            &br#"{"id": 1, "op": "update"}"#[..],
            br#"{"id": 1, "op": "update", "add": [], "remove": []}"#,
            br#"{"id": 1, "op": "update", "add": 7}"#,
            br#"{"id": 1, "op": "update", "add": [[0]]}"#,
            br#"{"id": 1, "op": "update", "add": [[0, 1, 2]]}"#,
            br#"{"id": 1, "op": "update", "add": [[0, "x"]]}"#,
            br#"{"id": 1, "op": "update", "add": [[0, 4294967296]]}"#,
            br#"{"id": 1, "op": "update", "add": [[0, -1]]}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.id, Some(1), "{:?}", bad);
        }
    }

    #[test]
    fn id_and_k_overflow_are_rejected_with_correlation() {
        // id beyond u64: unattributable.
        let err = parse_request(br#"{"id": 18446744073709551616, "op": "ping"}"#).unwrap_err();
        assert_eq!(err.id, None);
        assert!(err.message.contains("'id'"), "{}", err.message);
        // k beyond u32: attributable to id 9.
        let err = parse_request(br#"{"id": 9, "op": "query", "s": 0, "t": 1, "k": 4294967296}"#)
            .unwrap_err();
        assert_eq!(err.id, Some(9));
        assert!(err.message.contains("'k'"), "{}", err.message);
        // Negative and fractional ids.
        for bad in [
            &br#"{"id": -1, "op": "ping"}"#[..],
            br#"{"id": 1.5, "op": "ping"}"#,
            br#"{"id": "x", "op": "ping"}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().id, None);
        }
    }

    #[test]
    fn malformed_shapes_error_cleanly() {
        for bad in [
            &b"not json"[..],
            b"[]",
            b"{}",
            br#"{"id": 1}"#,
            br#"{"id": 1, "op": "evaporate"}"#,
            br#"{"id": 1, "op": "query"}"#,
            br#"{"id": 1, "op": "query", "s": "a", "t": 1, "k": 1}"#,
            br#"{"id": 1, "op": "query", "s": 0, "t": 1, "k": 1, "tenant": 7}"#,
            br#"{"id": 1, "op": "query", "s": 0, "t": 1, "k": 1, "deadline_ms": -5}"#,
            br#"{"id": 1, "op": "query", "s": 0, "t": 1, "k": 1, "deadline_ms": "soon"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{:?} must not parse", bad);
        }
    }

    #[test]
    fn responses_are_parseable_and_stable() {
        let ok = ok_response(7, CacheOutcome::Coalesced, 4, &[(0, 3), (3, 5)]);
        assert_eq!(
            ok,
            r#"{"id":7,"status":"ok","source":"coalesced","k":4,"edges":[[0,3],[3,5]]}"#
        );
        let doc = json::parse(ok.as_bytes()).unwrap();
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("coalesced"));
        assert_eq!(
            error_response(None, "malformed"),
            r#"{"id":null,"status":"error","error":"malformed"}"#
        );
        assert_eq!(
            overloaded_response(1, "queue full"),
            r#"{"id":1,"status":"overloaded","error":"queue full"}"#
        );
        assert_eq!(pong_response(2), r#"{"id":2,"status":"ok","pong":true}"#);
        assert_eq!(source_str(CacheOutcome::Hit), "hit");
        assert_eq!(source_str(CacheOutcome::Miss), "miss");
        assert_eq!(
            expired_response(3),
            r#"{"id":3,"status":"expired","error":"deadline expired before execution"}"#
        );
        assert_eq!(
            update_response(6, 2, 1, 3),
            r#"{"id":6,"status":"ok","applied":2,"purged":1,"seq":3}"#
        );
    }

    /// The `ok` reply formatted by std alone (integers through their
    /// `Display`, as `u64::to_string` renders them): an oracle that shares
    /// no code with `write_ok` or json's digit table.
    fn ok_response_oracle(
        id: u64,
        source: CacheOutcome,
        clamped_k: u32,
        edges: &[(u32, u32)],
    ) -> String {
        let edges: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
        format!(
            r#"{{"id":{id},"status":"ok","source":"{}","k":{clamped_k},"edges":[{}]}}"#,
            source_str(source),
            edges.join(",")
        )
    }

    const OUTCOMES: [CacheOutcome; 3] = [
        CacheOutcome::Hit,
        CacheOutcome::Miss,
        CacheOutcome::Coalesced,
    ];

    #[test]
    fn ok_response_matches_the_std_formatted_oracle_at_the_extremes() {
        let thousand: Vec<(u32, u32)> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> (i % 32), u32::MAX - i))
            .collect();
        let lists: [&[(u32, u32)]; 4] = [&[], &[(0, u32::MAX)], &[(u32::MAX, 0)], &thousand];
        for id in [0, 1, u64::MAX] {
            for source in OUTCOMES {
                for k in [0, 1, u32::MAX] {
                    for edges in lists {
                        assert_eq!(
                            ok_response(id, source, k, edges),
                            ok_response_oracle(id, source, k, edges),
                            "id {id}, {source:?}, k {k}, {} edges",
                            edges.len()
                        );
                    }
                }
            }
        }
    }

    /// Every power-of-ten boundary of `u32` and `u64` (0, 9, 10, 99, 100,
    /// …, `u32::MAX`, `u64::MAX`) through json's `write_u64`, and through
    /// framed `ok` replies as the id, as k and as both ends of an edge.
    #[test]
    fn integers_format_exactly_at_every_power_of_ten_boundary() {
        let u64s: Vec<u64> = std::iter::once(0)
            .chain((1..=19).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]))
            .chain([u64::from(u32::MAX), u64::MAX])
            .collect();
        let u32s: Vec<u32> = u64s.iter().filter_map(|&v| u32::try_from(v).ok()).collect();
        assert_eq!(u32s.last(), Some(&u32::MAX));
        for &v in &u64s {
            let mut out = String::new();
            json::write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }

        let edges: Vec<(u32, u32)> = u32s
            .iter()
            .copied()
            .zip(u32s.iter().rev().copied())
            .collect();
        let mut frames = Vec::new();
        let mut expected = Vec::new();
        for (&id, &k) in u64s.iter().zip(u32s.iter().cycle()) {
            append_frame(&mut frames, |out| {
                write_ok(out, id, CacheOutcome::Hit, k, &edges)
            })
            .unwrap();
            expected.push(ok_response_oracle(id, CacheOutcome::Hit, k, &edges));
        }
        let mut cursor = Cursor::new(frames);
        for want in expected {
            let payload = read_frame(&mut cursor, 1 << 16).unwrap();
            assert_eq!(String::from_utf8(payload).unwrap(), want);
        }
        assert!(matches!(
            read_frame(&mut cursor, 1 << 16),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn ok_response_capacity_fits_the_widest_reply() {
        let widest = [(u32::MAX, u32::MAX); 3];
        let reply = ok_response(u64::MAX, CacheOutcome::Coalesced, u32::MAX, &widest);
        // The first edge carries no separator.
        assert_eq!(
            reply.len(),
            OK_FIXED_BYTES + OK_EDGE_BYTES * widest.len() - 1
        );
        let empty = ok_response(u64::MAX, CacheOutcome::Coalesced, u32::MAX, &[]);
        assert_eq!(empty.len(), OK_FIXED_BYTES);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any id, source, k and edge list: the writer's bytes are the
        /// std-formatted oracle's bytes.
        #[test]
        fn ok_response_matches_the_std_formatted_oracle(
            (id, source, k) in (0u64..u64::MAX, 0usize..3, 0u32..u32::MAX),
            edges in vec(
                (endpoint(), endpoint()),
                0..1100usize,
            ),
        ) {
            let source = OUTCOMES[source];
            prop_assert_eq!(
                ok_response(id, source, k, &edges),
                ok_response_oracle(id, source, k, &edges)
            );
        }
    }

    /// Vertex ids of every digit count, with both ends of the `u32` range.
    fn endpoint() -> impl Strategy<Value = u32> {
        (0u32..4, 0u32..u32::MAX).prop_map(|(pick, r)| match pick {
            0 => 0,
            1 => u32::MAX,
            _ => r >> (r % 32),
        })
    }

    /// The wire contract: `status: error` responses to engine failures carry
    /// the exact `QueryError` display string, for every variant, through the
    /// one canonical builder.
    #[test]
    fn engine_errors_format_through_the_canonical_display_path() {
        for (err, wire) in [
            (
                QueryError::SourceEqualsTarget(5),
                r#"{"id":1,"status":"error","error":"source and target must be distinct (both are 5)"}"#,
            ),
            (
                QueryError::ZeroHopConstraint,
                r#"{"id":1,"status":"error","error":"hop constraint k must be at least 1"}"#,
            ),
            (
                QueryError::DeadlineExceeded,
                r#"{"id":1,"status":"error","error":"query deadline exceeded"}"#,
            ),
            (
                QueryError::BudgetExceeded,
                r#"{"id":1,"status":"error","error":"query work budget exceeded"}"#,
            ),
            (
                QueryError::ExecutionPanicked,
                r#"{"id":1,"status":"error","error":"internal error: query execution panicked"}"#,
            ),
        ] {
            assert_eq!(query_error_response(1, &err), wire);
            // And it is literally the Display string, not a lookalike.
            assert_eq!(
                query_error_response(1, &err),
                error_response(Some(1), &err.to_string())
            );
        }
    }
}
