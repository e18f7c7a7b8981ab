//! In-memory spans of the traced replay, written out when the run ends.
//!
//! A span is one timed call into a layer's public function: its layer, the
//! metric it feeds, the request (or batch, or update) it belongs to, start,
//! end and parent. A span's self time is its duration minus the part of it
//! that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Request id for per-request spans, batch or update number otherwise.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// `at` in ns since the tracer's epoch (0 for earlier instants).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span with explicit bounds; returns its index.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            parent,
            layer,
            name,
            request,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        (out, self.record(layer, name, request, parent, start, end))
    }

    /// Opens a span whose end is set later with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str, request: u64) -> usize {
        let now = self.now();
        self.record(layer, name, request, None, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_of(&self, selfs: &[u64], name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .collect()
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.layer, s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}
