//! Exit-code contract of the `spg-analyze` binary: 0 on a clean tree, 1
//! when any fixture violation survives, 2 on usage errors. CI gates on
//! exactly these codes, so they are pinned here.

use std::path::Path;
use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spg-analyze"))
        .args(args)
        .output()
        .expect("spawn spg-analyze")
}

#[test]
fn each_violation_fixture_exits_nonzero_with_diagnostics_on_stdout() {
    for case in [
        "lock_order",
        "hot_loop",
        "wire_drift",
        "wire_drift_status",
        "wire_drift_no_status",
        "failpoints",
        "hygiene",
    ] {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(case);
        let out = run(&["lint", "--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture {case}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.lines().any(|l| l.contains(": [")),
            "fixture {case} printed no `file:line: [rule]` diagnostics:\n{stdout}"
        );
    }
}

#[test]
fn clean_tree_exits_zero_and_prints_nothing_to_stdout() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run(&["lint", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "diagnostics:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(out.stdout.is_empty(), "stdout must stay diagnostics-only");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("files clean"),
        "summary goes to stderr"
    );
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&[]).status.code(), Some(2), "no subcommand");
    assert_eq!(
        run(&["frobnicate"]).status.code(),
        Some(2),
        "unknown subcommand"
    );
    assert_eq!(
        run(&["lint", "--root"]).status.code(),
        Some(2),
        "missing value"
    );
}
