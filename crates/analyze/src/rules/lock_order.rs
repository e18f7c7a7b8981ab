//! Rule `lock-order`: lock-class annotations, may-hold-while-acquiring
//! edges, and the declared partial order.
//!
//! The five files that own every sync primitive in the serving stack are
//! inventoried for `Mutex`/`RwLock`/`Condvar` acquisition sites
//! (`.lock()`, `.read()`, `.write()`, `.wait(guard)`, `.wait_timeout(…)`).
//! Each site must name its lock class with a `// lock: <class>` annotation;
//! guard scopes are then inferred (a `let`-bound guard lives to the end of
//! its enclosing block or an explicit `drop(name)`, a temporary to the end
//! of its statement) and every acquisition made while another guard is live
//! becomes a directed `held-class -> acquired-class` edge. The rule fails
//! on edges that contradict the ranked order declared in
//! `docs/lock_order.md`, on classes missing from that order, on same-class
//! re-acquisition under a live guard, and on any cycle in the edge graph.
//!
//! `Condvar::wait`/`wait_timeout` atomically release and re-acquire the
//! guard they are handed, so a wait never forms a same-class self-edge —
//! but it is still an acquisition site (the thread blocks there holding
//! nothing, then re-acquires) and must be annotated.

use std::collections::{BTreeMap, BTreeSet};

use super::{matching, occurrences};
use crate::workspace::{Diagnostic, SourceFile, Workspace};

pub const NAME: &str = "lock-order";

/// The files whose sync primitives the rule inventories. Anything that adds
/// a lock elsewhere should move the lock here or extend this list.
const TARGETS: [&str; 5] = [
    "crates/core/src/cache.rs",
    "crates/core/src/executor.rs",
    "crates/core/src/flight.rs",
    "crates/server/src/admission.rs",
    "crates/server/src/server.rs",
];

const ORDER_DOC: &str = "docs/lock_order.md";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain, // .lock() / .read() / .write()
    Wait,  // Condvar wait: releases and re-acquires its own guard
}

#[derive(Debug)]
struct Site {
    offset: usize,
    line: usize,
    kind: Kind,
    method: &'static str,
    class: Option<String>,
    /// Guard liveness interval end (byte offset, exclusive-ish).
    guard_end: usize,
    let_bound: bool,
}

/// One observed `held -> acquired` relation.
struct Edge {
    held: String,
    acquired: String,
    file: String,
    line: usize,
}

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let files: Vec<&SourceFile> = TARGETS.iter().filter_map(|t| ws.file(t)).collect();
    if files.is_empty() {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut used_classes: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for file in &files {
        scan_file(file, &mut diags, &mut edges);
        for (&line, classes) in &file.lock_classes {
            for class in classes {
                used_classes
                    .entry(class.clone())
                    .or_insert_with(|| (file.rel.clone(), line));
            }
        }
    }

    match parse_declared_order(ws) {
        None => {
            if !used_classes.is_empty() {
                diags.push(Diagnostic {
                    file: ORDER_DOC.to_string(),
                    line: 1,
                    rule: NAME,
                    message: format!(
                        "lock classes are annotated in source but {ORDER_DOC} declares no \
                         order (expected a numbered list of `class` names)"
                    ),
                });
            }
        }
        Some(ranks) => {
            for (class, (file, line)) in &used_classes {
                if !ranks.contains_key(class) {
                    diags.push(Diagnostic {
                        file: file.clone(),
                        line: *line,
                        rule: NAME,
                        message: format!("lock class `{class}` is not declared in {ORDER_DOC}"),
                    });
                }
            }
            for edge in &edges {
                let (Some(&held), Some(&acq)) = (ranks.get(&edge.held), ranks.get(&edge.acquired))
                else {
                    continue; // undeclared classes already reported above
                };
                if held >= acq {
                    diags.push(Diagnostic {
                        file: edge.file.clone(),
                        line: edge.line,
                        rule: NAME,
                        message: format!(
                            "acquires `{}` while holding `{}`, against the declared order \
                             in {ORDER_DOC} (`{}` ranks before `{}`)",
                            edge.acquired, edge.held, edge.acquired, edge.held
                        ),
                    });
                }
            }
        }
    }

    if let Some(cycle) = find_cycle(&edges) {
        let anchor = edges
            .iter()
            .find(|e| cycle.contains(&e.held) && cycle.contains(&e.acquired));
        let (file, line) = anchor
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_else(|| (TARGETS[0].to_string(), 1));
        let mut path = cycle.clone();
        path.push(cycle[0].clone());
        diags.push(Diagnostic {
            file,
            line,
            rule: NAME,
            message: format!("lock-order cycle: {}", path.join(" -> ")),
        });
    }
    diags
}

fn scan_file(file: &SourceFile, diags: &mut Vec<Diagnostic>, edges: &mut Vec<Edge>) {
    let masked = &file.lexed.masked;
    let mut sites = collect_sites(file);

    // Hand each line's annotated classes to its sites in textual order.
    let mut consumed: BTreeMap<usize, usize> = BTreeMap::new();
    for site in &mut sites {
        let idx = consumed.entry(site.line).or_insert(0);
        site.class = file
            .lock_classes
            .get(&site.line)
            .and_then(|classes| classes.get(*idx))
            .cloned();
        *idx += 1;
        if site.class.is_none() {
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: site.line,
                rule: NAME,
                message: format!(
                    "`{}` acquisition without a `// lock: <class>` annotation",
                    site.method
                ),
            });
        }
    }

    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            if sites[j].offset > sites[i].guard_end {
                continue;
            }
            let (Some(held), Some(acquired)) = (&sites[i].class, &sites[j].class) else {
                continue;
            };
            if held == acquired {
                // A wait hands its own guard back; temporaries are gone by
                // the next acquisition of the same stripe. Only a let-bound
                // guard makes same-class re-acquisition a self-deadlock.
                if sites[i].let_bound && sites[j].kind != Kind::Wait {
                    diags.push(Diagnostic {
                        file: file.rel.clone(),
                        line: sites[j].line,
                        rule: NAME,
                        message: format!(
                            "re-acquires lock class `{held}` while a guard of the same \
                             class is live (self-deadlock)"
                        ),
                    });
                }
                continue;
            }
            edges.push(Edge {
                held: held.clone(),
                acquired: acquired.clone(),
                file: file.rel.clone(),
                line: sites[j].line,
            });
        }
    }
    let _ = masked;
}

/// Finds every acquisition site and computes its guard interval.
fn collect_sites(file: &SourceFile) -> Vec<Site> {
    let masked = &file.lexed.masked;
    let mut sites = Vec::new();
    let patterns: [(&str, Kind); 5] = [
        (".lock(", Kind::Plain),
        (".read(", Kind::Plain),
        (".write(", Kind::Plain),
        (".wait(", Kind::Wait),
        (".wait_timeout(", Kind::Wait),
    ];
    for (pat, kind) in patterns {
        for offset in occurrences(masked, pat) {
            let open = offset + pat.len() - 1;
            let Some(close) = matching(masked, open) else {
                continue;
            };
            let args_empty = masked[open + 1..close].trim().is_empty();
            // Mutex::lock / RwLock::read / RwLock::write take no arguments
            // (`file.read(&mut buf)` is io, not a lock); Condvar waits take
            // the guard they re-acquire (`joiner.wait()` is not a Condvar).
            let is_acquisition = match kind {
                Kind::Plain => args_empty,
                Kind::Wait => !args_empty,
            };
            if !is_acquisition {
                continue;
            }
            let method: &'static str = &pat[1..pat.len() - 1];
            let (let_bound, guard_end) = guard_scope(masked, offset, close);
            sites.push(Site {
                offset,
                line: file.lexed.line_of(offset),
                kind,
                method,
                class: None,
                guard_end,
                let_bound,
            });
        }
    }
    sites.sort_by_key(|s| s.offset);
    sites
}

/// Infers whether the acquisition at `offset` produces a `let`-bound guard
/// and where that guard's liveness ends.
fn guard_scope(masked: &str, offset: usize, call_close: usize) -> (bool, usize) {
    let stmt_start = masked[..offset]
        .rfind([';', '{', '}'])
        .map(|p| p + 1)
        .unwrap_or(0);
    let stmt_head = masked[stmt_start..offset].trim_start();
    let let_bound = stmt_head.starts_with("let ") && !is_value_chain(masked, call_close);
    if !let_bound {
        return (false, statement_end(masked, call_close));
    }
    let end = enclosing_block_end(masked, stmt_start).unwrap_or(masked.len());
    // An explicit `drop(name)` releases the guard early.
    let end = binding_name(stmt_head)
        .and_then(|name| find_drop(masked, offset, end, &name))
        .unwrap_or(end);
    (true, end)
}

/// Whether the call chain continues past its `.expect(…)`/`.unwrap()`
/// poison handling — `shard.lock().expect("…").get(&key)` binds the looked
/// up *value*, so the guard is a temporary despite the `let`.
fn is_value_chain(masked: &str, call_close: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut i = call_close + 1;
    loop {
        // Skip whitespace and the `//`/`/*` markers masked comments keep —
        // a trailing `// lock:` annotation must not break the chain walk.
        while i < bytes.len()
            && ((bytes[i] as char).is_whitespace() || bytes[i] == b'/' || bytes[i] == b'*')
        {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'.' {
            return false; // `;`, `)` or `=` — the chain result is the guard
        }
        let ident_start = i + 1;
        let mut j = ident_start;
        while j < bytes.len() && super::is_ident(bytes[j]) {
            j += 1;
        }
        if !matches!(&masked[ident_start..j], "expect" | "unwrap") {
            return true;
        }
        match matching(masked, j) {
            Some(close) => i = close + 1,
            None => return false,
        }
    }
}

/// End of the statement containing `from` — the first `;` outside any
/// nesting opened after `from`, or the close of the surrounding delimiter.
fn statement_end(masked: &str, from: usize) -> usize {
    let bytes = masked.as_bytes();
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            b'{' => brace += 1,
            b'}' => brace -= 1,
            b';' if paren <= 0 && bracket <= 0 && brace <= 0 => return i,
            _ => {}
        }
        if paren < 0 || bracket < 0 || brace < 0 {
            return i;
        }
    }
    masked.len()
}

/// Offset of the `}` closing the block that contains `pos`.
fn enclosing_block_end(masked: &str, pos: usize) -> Option<usize> {
    let bytes = masked.as_bytes();
    let mut depth = 0i32;
    let mut open = None;
    for i in (0..pos).rev() {
        match bytes[i] {
            b'}' => depth += 1,
            b'{' => {
                if depth == 0 {
                    open = Some(i);
                    break;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    matching(masked, open?)
}

/// First bound identifier of a `let` statement head (`let mut x`, `let (a,
/// b)` → `a`).
fn binding_name(stmt_head: &str) -> Option<String> {
    let mut rest = stmt_head.strip_prefix("let ")?.trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    rest = rest.strip_prefix('(').unwrap_or(rest).trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .bytes()
        .take_while(|&b| super::is_ident(b))
        .map(char::from)
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Offset of an explicit `drop(name)` between `from` and `until`, if any.
fn find_drop(masked: &str, from: usize, until: usize, name: &str) -> Option<usize> {
    let window = &masked[from..until.min(masked.len())];
    for at in occurrences(window, "drop") {
        let after = window[at + 4..].trim_start();
        if let Some(args) = after.strip_prefix('(') {
            if args
                .split(')')
                .next()
                .map(|a| a.trim() == name)
                .unwrap_or(false)
            {
                return Some(from + at);
            }
        }
    }
    None
}

/// Parses `docs/lock_order.md` for its numbered ``1. `class` `` list; the
/// returned map carries each class's rank (outermost first).
fn parse_declared_order(ws: &Workspace) -> Option<BTreeMap<String, usize>> {
    let doc = ws.read_reference(ORDER_DOC)?;
    let mut ranks = BTreeMap::new();
    for line in doc.lines() {
        let trimmed = line.trim_start();
        let digits: String = trimmed.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            continue;
        }
        let Some(rest) = trimmed[digits.len()..].strip_prefix('.') else {
            continue;
        };
        let Some(tick) = rest.trim_start().strip_prefix('`') else {
            continue;
        };
        let Some(close) = tick.find('`') else {
            continue;
        };
        let class = tick[..close].to_string();
        let next_rank = ranks.len();
        ranks.entry(class).or_insert(next_rank);
    }
    (!ranks.is_empty()).then_some(ranks)
}

/// Finds one cycle in the edge graph, as the list of classes along it.
fn find_cycle(edges: &[Edge]) -> Option<Vec<String>> {
    let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for edge in edges {
        adjacency
            .entry(edge.held.as_str())
            .or_default()
            .insert(edge.acquired.as_str());
    }
    // Three-colour DFS: `path` is the grey stack, `black` is fully
    // explored. A back edge into the grey stack is a cycle.
    fn visit<'a>(
        node: &'a str,
        adjacency: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        path: &mut Vec<&'a str>,
        black: &mut BTreeSet<&'a str>,
    ) -> Option<Vec<String>> {
        if let Some(at) = path.iter().position(|&n| n == node) {
            return Some(path[at..].iter().map(|s| s.to_string()).collect());
        }
        if black.contains(node) {
            return None;
        }
        path.push(node);
        for &succ in adjacency.get(node).into_iter().flatten() {
            if let Some(cycle) = visit(succ, adjacency, path, black) {
                return Some(cycle);
            }
        }
        path.pop();
        black.insert(node);
        None
    }
    let mut black = BTreeSet::new();
    for &start in adjacency.keys() {
        if let Some(cycle) = visit(start, &adjacency, &mut Vec::new(), &mut black) {
            return Some(cycle);
        }
    }
    None
}
