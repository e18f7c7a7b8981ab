//! The oracle: after the timed phase, every reply is checked byte for byte
//! against the canonical encoding of `Eve::query_with` on the harness's
//! mirror graph, including the expected cache `source`.

use spg_core::{Eve, Query, QueryWorkspace};
use spg_graph::hash::FxHashMap;
use spg_graph::DiGraph;
use spg_server::json::{self, Json};
use spg_server::protocol::{ok_response, query_error_response};

use crate::load::{reply_id, Replies};

/// One query the harness asked, with the cache outcome it must report.
#[derive(Debug, Clone, Copy)]
pub struct Asked {
    pub id: u64,
    pub query: Query,
    pub source: &'static str,
}

/// Tally of checked requests.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Check {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// Maps reply ids to record indices; unattributable or duplicate replies
/// count as failures.
pub fn index_replies(replies: &Replies, check: &mut Check) -> FxHashMap<u64, usize> {
    let mut by_id = FxHashMap::default();
    for rec in 0..replies.recs.len() {
        match reply_id(replies.payload(rec)) {
            Some(id) => {
                if by_id.insert(id, rec).is_some() {
                    check.fail(format!("id {id} answered twice"));
                }
            }
            None => check.fail(format!(
                "unattributable reply {}",
                String::from_utf8_lossy(replies.payload(rec))
            )),
        }
    }
    by_id
}

/// Checks every `asked` query's reply against the oracle on `graph`,
/// computing each distinct query's answer once, on `threads` threads.
pub fn check_queries(
    graph: &DiGraph,
    asked: &[Asked],
    replies: &Replies,
    by_id: &FxHashMap<u64, usize>,
    threads: usize,
    check: &mut Check,
) {
    let mut distinct: Vec<Query> = asked.iter().map(|a| a.query).collect();
    distinct.sort_unstable_by_key(|q| (q.source, q.target, q.k));
    distinct.dedup();
    let answers = oracle(graph, &distinct, threads);
    let answer_of: FxHashMap<Query, usize> =
        distinct.iter().enumerate().map(|(i, q)| (*q, i)).collect();
    for a in asked {
        check.attempted += 1;
        let Some(&rec) = by_id.get(&a.id) else {
            check.fail(format!("no reply to query {} {:?}", a.id, a.query));
            continue;
        };
        let expected = match &answers[answer_of[&a.query]] {
            Ok((k, edges)) => {
                let source = match a.source {
                    "hit" => spg_core::CacheOutcome::Hit,
                    _ => spg_core::CacheOutcome::Miss,
                };
                ok_response(a.id, source, *k, edges)
            }
            Err(err) => query_error_response(a.id, err),
        };
        let got = replies.payload(rec);
        if got != expected.as_bytes() {
            check.fail(format!(
                "query {} {:?}: got {} want {}",
                a.id,
                a.query,
                clip(&String::from_utf8_lossy(got)),
                clip(&expected)
            ));
        }
    }
}

fn clip(s: &str) -> String {
    s.chars().take(160).collect()
}

type Answer = Result<(u32, Vec<(u32, u32)>), spg_core::QueryError>;

/// `Eve::query_with` answers of `queries`, split over `threads` threads.
pub fn oracle(graph: &DiGraph, queries: &[Query], threads: usize) -> Vec<Answer> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let eve = Eve::with_defaults(graph);
                    let mut ws = QueryWorkspace::new();
                    part.iter()
                        .map(|&q| {
                            eve.query_with(&mut ws, q)
                                .map(|spg| (spg.query().k, spg.edges().to_vec()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Checks a reply that must be `status: ok`, plus `want` fields that must
/// hold the given unsigned values (e.g. `applied: 1`).
pub fn check_ok(
    replies: &Replies,
    by_id: &FxHashMap<u64, usize>,
    id: u64,
    want: &[(&str, u64)],
    check: &mut Check,
) {
    check.attempted += 1;
    let Some(&rec) = by_id.get(&id) else {
        check.fail(format!("no reply to request {id}"));
        return;
    };
    let payload = replies.payload(rec);
    let doc = json::parse(payload).ok();
    let ok = doc.as_ref().is_some_and(|d| {
        d.get("status").and_then(Json::as_str) == Some("ok")
            && want
                .iter()
                .all(|(key, v)| d.get(key).and_then(Json::as_u64) == Some(*v))
    });
    if !ok {
        check.fail(format!(
            "request {id}: {}",
            clip(&String::from_utf8_lossy(payload))
        ));
    }
}
