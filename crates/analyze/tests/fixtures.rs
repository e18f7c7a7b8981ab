//! Fixture-tree tests for every lint rule: each fixture under
//! `tests/fixtures/<case>/` mirrors the real workspace layout
//! (`crates/*/src/**`, `docs/`) and seeds one violation per diagnostic
//! shape, next to a waived twin proving suppression works. Assertions pin
//! exact `(file, line, rule)` triples so a rule that drifts by a line — or
//! starts double-reporting — fails here, not in a confusing CI run later.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints a fixture tree and returns `(file, line, rule, message)` rows.
fn lint(name: &str) -> Vec<(String, usize, String, String)> {
    let (_, diags) = spg_analyze::lint(&fixture(name)).expect("fixture tree loads");
    diags
        .into_iter()
        .map(|d| (d.file, d.line, d.rule.to_string(), d.message))
        .collect()
}

fn rows(diags: &[(String, usize, String, String)]) -> Vec<(&str, usize, &str)> {
    diags
        .iter()
        .map(|(f, l, r, _)| (f.as_str(), *l, r.as_str()))
        .collect()
}

#[test]
fn lock_order_fixture_reports_cycle_violation_and_unannotated_site() {
    let diags = lint("lock_order");
    let flight = "crates/core/src/flight.rs";
    assert_eq!(
        rows(&diags),
        vec![
            (flight, 6, "lock-order"),  // cycle, anchored at its first edge
            (flight, 13, "lock-order"), // acquisition against the declared order
            (flight, 19, "lock-order"), // unannotated site
        ],
        "diagnostics: {diags:?}"
    );
    assert!(diags[0]
        .3
        .contains("lock-order cycle: alpha -> beta -> alpha"));
    assert!(diags[1].3.contains("acquires `alpha` while holding `beta`"));
    assert!(diags[2]
        .3
        .contains("without a `// lock: <class>` annotation"));
    // Line 24 seeds the same unannotated shape under a waiver: absent above.
}

#[test]
fn hot_loop_fixture_flags_clock_and_rmw_but_not_waiver_or_allowlist() {
    let diags = lint("hot_loop");
    let eve = "crates/core/src/eve.rs";
    assert_eq!(
        rows(&diags),
        vec![
            (eve, 4, "hot-loop"), // Instant::now in library code
            (eve, 6, "hot-loop"), // fetch_add in library code
        ],
        "diagnostics: {diags:?}"
    );
    assert!(diags[0].3.contains("clock read `Instant::now`"));
    assert!(diags[1].3.contains("atomic read-modify-write `fetch_add`"));
    // Line 5 (waived clock) and the allowlisted server.rs produce nothing.
}

#[test]
fn wire_drift_fixture_flags_both_directions() {
    let diags = lint("wire_drift");
    assert_eq!(
        rows(&diags),
        vec![
            ("crates/core/src/query.rs", 9, "wire-drift"), // undocumented template
            ("docs/robustness.md", 5, "wire-drift"),       // unproduced doc row
        ],
        "diagnostics: {diags:?}"
    );
    assert!(diags[0]
        .3
        .contains("`an undocumented wire string` is not documented"));
    assert!(diags[1]
        .3
        .contains("`a documented ghost string` is not produced"));
}

#[test]
fn wire_drift_status_fixture_flags_both_directions() {
    let diags = lint("wire_drift_status");
    assert_eq!(
        rows(&diags),
        vec![
            ("crates/server/src/protocol.rs", 8, "wire-drift"), // undocumented status
            ("docs/robustness.md", 4, "wire-drift"),            // unproduced status
        ],
        "diagnostics: {diags:?}"
    );
    assert!(diags[0]
        .3
        .contains("wire status `teapot` is not documented as `status: teapot`"));
    assert!(diags[1]
        .3
        .contains("documented `status: ghost` is not produced"));
}

#[test]
fn wire_drift_fails_closed_when_protocol_yields_no_status() {
    let diags = lint("wire_drift_no_status");
    assert_eq!(
        rows(&diags),
        vec![
            ("crates/server/src/protocol.rs", 1, "wire-drift"), // no producer seen
            ("docs/robustness.md", 3, "wire-drift"),            // so nothing is produced
        ],
        "diagnostics: {diags:?}"
    );
    assert!(diags[0].3.contains("no status producer found"));
    assert!(diags[1]
        .3
        .contains("documented `status: bogus` is not produced"));
}

#[test]
fn failpoints_fixture_flags_registry_chaos_and_callsite_drift() {
    let diags = lint("failpoints");
    let registry = "crates/core/src/failpoints.rs";
    assert_eq!(
        rows(&diags),
        vec![
            (registry, 3, "failpoint-registry"), // ORPHAN missing from ALL
            (registry, 4, "failpoint-registry"), // UNPROVEN not in chaos_e2e
            ("crates/core/src/user.rs", 2, "failpoint-registry"), // undeclared GHOST
        ],
        "diagnostics: {diags:?}"
    );
    assert!(diags[0]
        .3
        .contains("`ORPHAN` (\"orphan\") is missing from sites::ALL"));
    assert!(diags[1]
        .3
        .contains("`UNPROVEN` (\"unproven\") is never exercised"));
    assert!(diags[2].3.contains("`sites::GHOST` is not declared"));
}

#[test]
fn hygiene_fixture_flags_panics_and_missing_forbid_not_waiver_or_binaries() {
    let diags = lint("hygiene");
    let util = "crates/core/src/util.rs";
    assert_eq!(
        rows(&diags),
        vec![
            ("crates/core/src/lib.rs", 1, "forbid-unsafe"),
            (util, 2, "no-panic"), // println! in library code
            (util, 3, "no-panic"), // .unwrap() in library code
        ],
        "diagnostics: {diags:?}"
    );
    // Line 7 (waived unwrap), line 11 (poison-policy `.lock().expect`) and
    // the whole of main.rs produce nothing.
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance bar for the whole PR: zero unwaived diagnostics on the
    // actual tree this crate lives in.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (count, diags) = spg_analyze::lint(&root).expect("workspace loads");
    assert!(
        count > 50,
        "expected the real workspace, scanned {count} files"
    );
    assert!(diags.is_empty(), "real tree has diagnostics: {diags:#?}");
}
