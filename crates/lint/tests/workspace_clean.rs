//! The self-check: the real workspace must be violation-free.  This is what
//! keeps the CI gate from silently rotting — a new violation (or a lint
//! regression that suddenly misfires on existing code) fails `cargo test`
//! before it fails CI.

use std::path::PathBuf;

use ptolemy_lint::runner;

#[test]
fn real_workspace_has_no_violations() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join("Cargo.toml").is_file(),
        "expected the workspace root at {}",
        root.display()
    );
    let report = runner::run(&root).expect("scan succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan ({} files) — did the roots move?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.render_human()
    );
}
