//! Fixture-driven integration tests: every snippet under `tests/fixtures/` is
//! lexed and checked as library (non-test) code, pinning each
//! lint's positive, negative and suppressed behaviour against real files on
//! disk rather than inline strings.

#![allow(
    clippy::panic,
    reason = "test helpers outside #[test] fns panic; a failure there fails the test"
)]

use std::path::PathBuf;

use ptolemy_lint::lexer::lex;
use ptolemy_lint::lints::check_file;

/// Runs the strict rule set over one fixture, returning the sorted lint names.
fn check_fixture(name: &str) -> Vec<&'static str> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let mut lints: Vec<&'static str> = check_file(name, &lex(&source))
        .into_iter()
        .map(|finding| finding.lint)
        .collect();
    lints.sort_unstable();
    lints
}

#[test]
fn positive_fixture_trips_every_lint() {
    assert_eq!(
        check_fixture("positive.rs"),
        vec![
            "float-eq",         // a == 0.5
            "float-eq",         // (n as f32) != b
            "raw-numeric-cast", // as i8
            "raw-numeric-cast", // as u8
            "test-hook-in-prod",
        ]
    );
}

#[test]
fn test_hook_fixture_flags_the_field_the_statement_and_the_expression_only() {
    assert_eq!(check_fixture("test_hook.rs"), vec!["test-hook-in-prod"; 3]);
}

#[test]
fn negative_fixture_is_clean() {
    assert_eq!(check_fixture("negative.rs"), Vec::<&str>::new());
}

#[test]
fn suppressed_fixture_is_clean() {
    assert_eq!(check_fixture("suppressed.rs"), Vec::<&str>::new());
}

#[test]
fn malformed_suppressions_report_and_do_not_suppress() {
    assert_eq!(
        check_fixture("malformed_suppression.rs"),
        vec![
            "float-eq",         // the unknown-lint marker suppresses nothing
            "raw-numeric-cast", // the reason-less marker suppresses nothing
            "suppression",      // missing `: <reason>`
            "suppression",      // unknown lint name
            "suppression",      // a rule clippy carries
        ]
    );
}
