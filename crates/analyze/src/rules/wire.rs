//! Rule `wire-drift`: wire strings and `docs/robustness.md` must agree.
//!
//! Clients hold the server to exact-string bit-identity, so the error/
//! status vocabulary is an API. The canonical producers are the `Display`
//! impls of `QueryError` (`query.rs`) and `BudgetExhausted` (`budget.rs`)
//! and the `status`/literal-`error` fields built in `protocol.rs`; the
//! canonical documentation is `docs/robustness.md`. This rule checks both
//! directions: every produced literal must appear verbatim in the doc
//! (statuses as `status: <value>`), and every wire string the doc's
//! `QueryError` taxonomy table promises (plus every `status: <value>` it
//! mentions) must actually be produced by source. The rule fails closed: a
//! `protocol.rs` in which it finds no status producer is reported itself,
//! so a status written some other way cannot switch the checks off.

use std::collections::BTreeSet;

use super::{matching, occurrences};
use crate::lexer::Span;
use crate::workspace::{Diagnostic, SourceFile, Workspace};

pub const NAME: &str = "wire-drift";

const DOC: &str = "docs/robustness.md";
const QUERY_RS: &str = "crates/core/src/query.rs";
const BUDGET_RS: &str = "crates/graph/src/budget.rs";
const PROTOCOL_RS: &str = "crates/server/src/protocol.rs";

/// A wire literal and where source produces it.
struct Produced {
    text: String,
    file: String,
    line: usize,
}

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let Some(doc) = ws.read_reference(DOC) else {
        return Vec::new();
    };
    let mut wire: Vec<Produced> = Vec::new();
    let mut statuses: Vec<Produced> = Vec::new();
    let mut diags = Vec::new();
    if let Some(file) = ws.file(QUERY_RS) {
        wire.extend(display_templates(file, "QueryError"));
    }
    if let Some(file) = ws.file(BUDGET_RS) {
        wire.extend(display_templates(file, "BudgetExhausted"));
    }
    if let Some(file) = ws.file(PROTOCOL_RS) {
        let (status_lits, error_lits) = protocol_literals(file);
        if status_lits.is_empty() {
            // Fail closed: a status this rule cannot see is one it cannot
            // hold to the doc.
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: 1,
                rule: NAME,
                message: format!(
                    "no status producer found: wire statuses must be built as \
                     `(\"status\".into(), Json::Str(\"<value>\".into()))` so they \
                     can be checked against {DOC}"
                ),
            });
        }
        statuses.extend(status_lits);
        wire.extend(error_lits);
    }

    for produced in &wire {
        if !doc.contains(&produced.text) {
            diags.push(Diagnostic {
                file: produced.file.clone(),
                line: produced.line,
                rule: NAME,
                message: format!("wire string `{}` is not documented in {DOC}", produced.text),
            });
        }
    }
    for produced in &statuses {
        let needle = format!("status: {}", produced.text);
        if !doc.contains(&needle) {
            diags.push(Diagnostic {
                file: produced.file.clone(),
                line: produced.line,
                rule: NAME,
                message: format!(
                    "wire status `{}` is not documented as `{needle}` in {DOC}",
                    produced.text
                ),
            });
        }
    }

    let wire_set: BTreeSet<&str> = wire.iter().map(|p| p.text.as_str()).collect();
    for (line, cell) in taxonomy_cells(&doc) {
        if !wire_set.contains(cell.as_str()) {
            diags.push(Diagnostic {
                file: DOC.to_string(),
                line,
                rule: NAME,
                message: format!(
                    "documented wire string `{cell}` is not produced by any \
                     Display impl in source"
                ),
            });
        }
    }
    let status_set: BTreeSet<&str> = statuses.iter().map(|p| p.text.as_str()).collect();
    for (line, status) in doc_statuses(&doc) {
        if !status_set.contains(status.as_str()) {
            diags.push(Diagnostic {
                file: DOC.to_string(),
                line,
                rule: NAME,
                message: format!("documented `status: {status}` is not produced by protocol.rs"),
            });
        }
    }
    diags
}

/// Format templates of `impl … Display for <type_name>`: the first string
/// literal of each `write!` in the impl body, skipping pure-delegation
/// templates (`"{}"` and friends, which carry no words of their own).
fn display_templates(file: &SourceFile, type_name: &str) -> Vec<Produced> {
    let masked = &file.lexed.masked;
    let header = format!("Display for {type_name}");
    let Some(at) = occurrences(masked, &header).into_iter().next() else {
        return Vec::new();
    };
    let Some(open) = masked[at..].find('{').map(|p| at + p) else {
        return Vec::new();
    };
    let end = matching(masked, open).unwrap_or(masked.len());
    let mut out = Vec::new();
    for write_at in occurrences(&masked[open..end], "write!(") {
        let call = open + write_at;
        if let Some(span) = first_string_after(file, call, end) {
            if span.text.chars().any(char::is_alphabetic) {
                out.push(Produced {
                    text: span.text.clone(),
                    file: file.rel.clone(),
                    line: span.line,
                });
            }
        }
    }
    out
}

/// Status values and literal `error` strings from `protocol.rs` response
/// builders. Both come from the idiom
/// `("status".into(), Json::Str("ok".into()))` — a key literal immediately
/// followed (modulo whitespace) by `Json::Str(` and a value literal; a
/// variable message (`Json::Str(message.into())`) has different
/// between-text and is skipped.
fn protocol_literals(file: &SourceFile) -> (Vec<Produced>, Vec<Produced>) {
    let mut statuses = Vec::new();
    let mut errors = Vec::new();
    let spans = &file.lexed.strings;
    for pair in spans.windows(2) {
        let key = &pair[0];
        let value = &pair[1];
        if key.text != "status" && key.text != "error" {
            continue;
        }
        let between_start = key.offset + key.text.len() + 2; // both quotes
        let between: String = file.lexed.masked[between_start..value.offset]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if between != ".into(),Json::Str(" {
            continue;
        }
        let produced = Produced {
            text: value.text.clone(),
            file: file.rel.clone(),
            line: value.line,
        };
        if key.text == "status" {
            statuses.push(produced);
        } else {
            errors.push(produced);
        }
    }
    (statuses, errors)
}

/// First string literal starting after `from` and before `until`.
fn first_string_after(file: &SourceFile, from: usize, until: usize) -> Option<&Span> {
    file.lexed
        .strings
        .iter()
        .find(|s| s.offset > from && s.offset < until)
}

/// Wire-string cells of the doc's `QueryError` taxonomy table: rows whose
/// first two cells are both backticked (`| \`Variant\` | \`wire string\` |`).
/// The failpoint-site table has a prose second cell and is skipped.
fn taxonomy_cells(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // split yields an empty first/last around the outer pipes
        if cells.len() < 4 {
            continue;
        }
        let (variant, wire) = (cells[1], cells[2]);
        let ticked = |c: &str| c.len() > 2 && c.starts_with('`') && c.ends_with('`');
        if ticked(variant) && ticked(wire) {
            out.push((idx + 1, wire[1..wire.len() - 1].to_string()));
        }
    }
    out
}

/// Every `status: <value>` mention in the doc.
fn doc_statuses(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        for at in occurrences(line, "status: ") {
            let value: String = line[at + "status: ".len()..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '_')
                .collect();
            if !value.is_empty() {
                out.push((idx + 1, value));
            }
        }
    }
    out
}
