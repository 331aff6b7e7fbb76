//! The lint registry: each lint guards one convention the runtime's
//! correctness or performance story rests on, grounded in a real past bug or a
//! parity invariant pinned by the test-suite (see `docs/ARCHITECTURE.md`,
//! "Enforced invariants").
//!
//! Lints run over the [`crate::lexer`] token stream, so strings, comments and
//! char literals never false-positive.  Test code — files with a
//! `tests`/`examples`/`benches` path component, configured relaxed paths, and
//! `#[cfg(test)]` / `#[test]` regions inside library files — gets the relaxed
//! rule set: only the always-on lints run there (see [`relaxed_in_tests`]).
//!
//! A finding is suppressed by an adjacent `// lint:allow(<name>): <reason>`
//! comment (same line, or the line directly above); the reason is mandatory —
//! a suppression without one is itself a finding, and the violation it tried
//! to cover stays reported.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Token, TokenKind};

/// `(name, what it guards)` for every lint, in reporting order.
pub const LINTS: &[(&str, &str)] = &[
    (
        "direct-available-parallelism",
        "std::thread::available_parallelism() re-reads cgroup state (~10µs/call); use the cached \
         ptolemy_nn::available_parallelism() accessor",
    ),
    (
        "unbounded-channel",
        "mpsc::channel() is unbounded; worker handoffs must use sync_channel so backlog applies \
         backpressure instead of piling up",
    ),
    (
        "panic-in-worker",
        "unwrap/expect/panic!/unreachable! in library code can strand serve tickets and poison \
         worker-shared mutexes; return an error or annotate the structural invariant",
    ),
    (
        "float-eq",
        "parity is pinned bit-for-bit via to_bits(); ==/!= against a float literal silently \
         depends on rounding (and -0.0 == 0.0)",
    ),
    (
        "undocumented-unsafe",
        "every unsafe block/fn/impl needs an adjacent // SAFETY: comment stating the invariant \
         that makes it sound",
    ),
    (
        "todo-marker",
        "todo!/unimplemented! must not reach library code; gate the feature or return an error",
    ),
    (
        "raw-instant",
        "Instant::now() in library code bypasses ptolemy_obs::Clock — timings become invisible \
         to the manual test clock and inconsistent with the metrics registry; take a Clock and \
         read now_ns()",
    ),
    (
        "raw-numeric-cast",
        "`as i8` / `as u8` are lossy saturating casts; all quantization rounding lives in the \
         audited crates/tensor/src/quant.rs module — call its QuantParams API instead",
    ),
    (
        "raw-thread-spawn",
        "thread::scope / thread::spawn / Builder::spawn outside the allow-list: data parallelism \
         goes through ptolemy_tensor::parallel::fork_join, the one spawn site that gates on work \
         and counts claimed cores — a second site oversubscribes it",
    ),
    (
        "test-hook-in-prod",
        "#[cfg(test)] on a struct field, statement or expression threads a test hook through \
         production code (a fault flag and the call that reads it); only whole items may be test-only — inject \
         the fault from a test-side implementation of a public trait",
    ),
    (
        "suppression",
        "malformed lint:allow comment (unknown lint name, or missing the mandatory ': reason')",
    ),
];

/// Lints that do **not** run in relaxed scope (test/bench/example code): tests
/// deliberately unwrap, compare floats, probe std's parallelism lookup and
/// spawn threads to force interleavings.
/// `undocumented-unsafe` (and `suppression` well-formedness) stay on
/// everywhere.
pub const RELAXED_IN_TESTS: &[&str] = &[
    "direct-available-parallelism",
    "unbounded-channel",
    "panic-in-worker",
    "float-eq",
    "todo-marker",
    "raw-instant",
    "raw-numeric-cast",
    "raw-thread-spawn",
    "test-hook-in-prod",
];

/// `true` if `name` names a registered lint.
pub fn is_known(name: &str) -> bool {
    LINTS.iter().any(|(lint, _)| *lint == name)
}

/// The registered lint names, in reporting order.
pub fn known_names() -> Vec<&'static str> {
    LINTS.iter().map(|(name, _)| *name).collect()
}

/// `true` if `lint` is skipped in relaxed (test/bench/example) scope.
pub fn relaxed_in_tests(lint: &str) -> bool {
    RELAXED_IN_TESTS.contains(&lint)
}

/// One lint violation with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired.
    pub lint: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// 1-indexed column.
    pub col: usize,
    /// What happened and what to do instead.
    pub message: String,
}

/// Per-file lint context the runner derives from the config.
#[derive(Debug, Default)]
pub struct FileContext {
    /// The whole file uses the relaxed rule set (tests/, examples/,
    /// benches/, or a configured relaxed prefix).
    pub relaxed: bool,
    /// Lints disabled for this file via `[allow]` config entries.
    pub allowed: HashSet<String>,
}

/// Runs every lint over one file's token stream.
pub fn check_file(path: &str, tokens: &[Token], context: &FileContext) -> Vec<Finding> {
    let (regions, test_hooks) = test_regions(tokens);
    let (suppressions, mut findings) = parse_suppressions(path, tokens);
    let safety_lines: HashSet<usize> = tokens
        .iter()
        .filter(|t| match &t.kind {
            TokenKind::LineComment(text) | TokenKind::BlockComment(text) => {
                text.contains("SAFETY:")
            }
            _ => false,
        })
        .map(|t| t.line)
        .collect();

    // The code stream: comments removed so adjacency checks (`.` `unwrap` `(`)
    // see through interleaved comments.
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let ident = |i: usize| -> Option<&str> { code.get(i).and_then(|t| t.kind.ident()) };
    let punct = |i: usize, op: &str| -> bool { code.get(i).is_some_and(|t| t.kind.is_punct(op)) };
    let prev_punct = |i: usize, op: &str| -> bool { i > 0 && code[i - 1].kind.is_punct(op) };
    let prev2_path = |i: usize, seg: &str| -> bool {
        i >= 2 && prev_punct(i, "::") && code[i - 2].kind.ident() == Some(seg)
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut emit = |lint: &'static str, token: &Token, message: String| {
        raw.push(Finding {
            lint,
            file: path.to_string(),
            line: token.line,
            col: token.col,
            message,
        });
    };

    for attribute in test_hooks {
        emit(
            "test-hook-in-prod",
            attribute,
            "#[cfg(test)] on something that is not an item — a field, statement or expression \
             that exists only under test is a hook threaded through production code; keep the \
             production type closed and inject the fault from the test side (a test-only \
             implementation of a public trait), or gate a whole item"
                .into(),
        );
    }
    for (i, token) in code.iter().enumerate() {
        match token.kind.ident() {
            Some("available_parallelism") if prev2_path(i, "thread") => {
                emit(
                    "direct-available-parallelism",
                    token,
                    "direct std::thread::available_parallelism() re-reads cgroup state on every \
                     call (~10µs, the exact hot-path regression PR 4 removed); call the cached \
                     ptolemy_nn::available_parallelism() instead"
                        .into(),
                );
            }
            Some(name @ ("scope" | "spawn")) if prev2_path(i, "thread") => {
                emit(
                    "raw-thread-spawn",
                    token,
                    format!(
                        "thread::{name} outside the allow-list — fan work out through \
                         ptolemy_tensor::parallel (fork_join / par_row_chunks / par_chunks / \
                         par_map), which gates on work size and on the cores already claimed; \
                         long-lived service threads belong in the allow-listed start-up files"
                    ),
                );
            }
            Some(name @ ("spawn" | "spawn_scoped")) if prev_punct(i, ".") && punct(i + 1, "(") => {
                emit(
                    "raw-thread-spawn",
                    token,
                    format!(
                        ".{name}() starts a thread (Builder::spawn / Scope::spawn) outside the \
                         allow-list — fan work out through ptolemy_tensor::parallel instead; \
                         long-lived service threads belong in the allow-listed start-up files"
                    ),
                );
            }
            Some("now") if prev2_path(i, "Instant") => {
                emit(
                    "raw-instant",
                    token,
                    "Instant::now() in library code — take a ptolemy_obs::Clock and read \
                     now_ns() so the timing is steerable by the manual test clock and lands \
                     in the same timebase as the metrics registry"
                        .into(),
                );
            }
            Some("channel") if prev2_path(i, "mpsc") => {
                emit(
                    "unbounded-channel",
                    token,
                    "mpsc::channel() is unbounded — a slow consumer piles work up without \
                     backpressure; use mpsc::sync_channel(bound) like the serve/extraction \
                     overlap workers"
                        .into(),
                );
            }
            Some(name @ ("unwrap" | "expect")) if prev_punct(i, ".") && punct(i + 1, "(") => {
                emit(
                    "panic-in-worker",
                    token,
                    format!(
                        ".{name}() panics on the failure path — in worker/library code that \
                         strands serve tickets and poisons shared mutexes; propagate an error, \
                         or annotate the structural invariant with lint:allow"
                    ),
                );
            }
            Some(name @ ("panic" | "unreachable")) if punct(i + 1, "!") => {
                emit(
                    "panic-in-worker",
                    token,
                    format!(
                        "{name}! in library code kills the calling worker; return a typed error, \
                         or annotate why this branch is structurally impossible"
                    ),
                );
            }
            Some(ty @ ("i8" | "u8")) if i > 0 && ident(i - 1) == Some("as") => {
                emit(
                    "raw-numeric-cast",
                    token,
                    format!(
                        "`as {ty}` is a lossy saturating cast — quantization rounding is audited \
                         in one place; use ptolemy_tensor::quant::QuantParams (or annotate a \
                         non-quantization bit-field encoding with lint:allow)"
                    ),
                );
            }
            Some(name @ ("todo" | "unimplemented")) if punct(i + 1, "!") => {
                emit(
                    "todo-marker",
                    token,
                    format!("{name}! must not ship in library code"),
                );
            }
            Some("unsafe") => {
                let documented = (token.line.saturating_sub(5)..=token.line)
                    .any(|line| safety_lines.contains(&line));
                if !documented {
                    emit(
                        "undocumented-unsafe",
                        token,
                        "unsafe without an adjacent // SAFETY: comment — state the invariant \
                         that makes this sound (within the 5 lines above)"
                            .into(),
                    );
                }
            }
            _ => {}
        }
        if token.kind.is_punct("==") || token.kind.is_punct("!=") {
            let cast_to_float = |at: usize| -> bool {
                matches!(ident(at), Some("f32" | "f64")) && ident(at.wrapping_sub(1)) == Some("as")
            };
            // `(x as f32) == y`: look through a closing paren group for a
            // float cast anywhere inside it.
            let paren_casts_float = |close: usize| -> bool {
                if !punct(close, ")") {
                    return false;
                }
                let mut depth = 1usize;
                let mut at = close;
                while at > 0 && depth > 0 {
                    at -= 1;
                    if punct(at, ")") {
                        depth += 1;
                    } else if punct(at, "(") {
                        depth -= 1;
                    } else if depth == 1 && cast_to_float(at) {
                        return true;
                    }
                }
                false
            };
            let float_before = i > 0
                && (matches!(code[i - 1].kind, TokenKind::Float)
                    || cast_to_float(i - 1)
                    || paren_casts_float(i - 1));
            let float_after = matches!(code.get(i + 1).map(|t| &t.kind), Some(TokenKind::Float))
                || (punct(i + 1, "-")
                    && matches!(code.get(i + 2).map(|t| &t.kind), Some(TokenKind::Float)));
            if float_before || float_after {
                emit(
                    "float-eq",
                    token,
                    "==/!= against a float — parity in this workspace is pinned bit-for-bit; \
                     compare .to_bits(), use an explicit tolerance, or annotate the sentinel \
                     check"
                        .into(),
                );
            }
        }
    }

    // Apply scope, config allowances and suppressions.
    findings.extend(raw.into_iter().filter(|finding| {
        if context.allowed.contains(finding.lint) {
            return false;
        }
        if relaxed_in_tests(finding.lint)
            && (context.relaxed || regions.iter().any(|r| r.contains(finding.line)))
        {
            return false;
        }
        let suppressed = |line: usize| {
            suppressions
                .get(&line)
                .is_some_and(|names| names.iter().any(|n| n == finding.lint))
        };
        !(suppressed(finding.line) || suppressed(finding.line.wrapping_sub(1)))
    }));
    findings.sort_by(|a, b| (a.line, a.col, a.lint).cmp(&(b.line, b.col, b.lint)));
    findings
}

/// A `start..=end` line range of test-scoped code.
#[derive(Debug)]
struct Region {
    start: usize,
    end: usize,
}

impl Region {
    fn contains(&self, line: usize) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

/// What a `#[cfg(test)]` attribute may gate: a whole item (`pub`-qualified or
/// not).  On anything else — a struct field, a statement, an expression — it
/// is a test hook inside production code (`test-hook-in-prod`).
const ITEM_KEYWORDS: &[&str] = &[
    "mod", "fn", "use", "impl", "struct", "enum", "const", "static", "type", "trait",
];

/// Finds the line ranges covered by `#[cfg(test)]` / `#[test]` / `#[bench]`
/// items: the attribute, through the matching close brace of the item's body.
/// Also returns the `#` of every `#[cfg(test)]` outside those ranges whose
/// target is not an item; such an attribute opens no range.
fn test_regions(tokens: &[Token]) -> (Vec<Region>, Vec<&Token>) {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let mut regions = Vec::new();
    let mut test_hooks = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // An outer attribute: `#` `[` … `]` (inner `#![…]` attributes are
        // skipped — they configure the enclosing scope, not a test item).
        if !code[i].kind.is_punct("#") || !code.get(i + 1).is_some_and(|t| t.kind.is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() && depth > 0 {
            if code[j].kind.is_punct("[") {
                depth += 1;
            } else if code[j].kind.is_punct("]") {
                depth -= 1;
            } else if let Some(name) = code[j].kind.ident() {
                idents.push(name);
            }
            j += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"test" | &"bench") => true,
            Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        while j < code.len()
            && code[j].kind.is_punct("#")
            && code.get(j + 1).is_some_and(|t| t.kind.is_punct("["))
        {
            let mut depth = 1usize;
            let mut k = j + 2;
            while k < code.len() && depth > 0 {
                if code[k].kind.is_punct("[") {
                    depth += 1;
                } else if code[k].kind.is_punct("]") {
                    depth -= 1;
                }
                k += 1;
            }
            j = k;
        }
        // The target: an optional `pub` / `pub(…)`, then an item keyword.
        let mut at = j;
        if code.get(at).and_then(|t| t.kind.ident()) == Some("pub") {
            at += 1;
            if code.get(at).is_some_and(|t| t.kind.is_punct("(")) {
                while at < code.len() && !code[at].kind.is_punct(")") {
                    at += 1;
                }
                at += 1;
            }
        }
        let keyword = code.get(at).and_then(|t| t.kind.ident());
        if idents.first() == Some(&"cfg") && !keyword.is_some_and(|k| ITEM_KEYWORDS.contains(&k)) {
            test_hooks.push(code[i]);
            i = j;
            continue;
        }
        // The item body: first `{` before a `;` at the item level; a `;`
        // first means a body-less item (`#[cfg(test)] mod tests;`).
        let mut body_open = None;
        let mut k = j;
        while k < code.len() {
            if code[k].kind.is_punct("{") {
                body_open = Some(k);
                break;
            }
            if code[k].kind.is_punct(";") {
                break;
            }
            k += 1;
        }
        let Some(open) = body_open else {
            i = j;
            continue;
        };
        let mut depth = 1usize;
        let mut close = open;
        let mut k = open + 1;
        while k < code.len() {
            if code[k].kind.is_punct("{") {
                depth += 1;
            } else if code[k].kind.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            k += 1;
        }
        let end = if depth == 0 {
            code[close].line
        } else {
            // Unterminated (mid-edit file): relax to the end of the file.
            code.last().map_or(attr_line, |t| t.line)
        };
        regions.push(Region {
            start: attr_line,
            end,
        });
        i = k.max(j) + 1;
    }
    (regions, test_hooks)
}

/// Parses `// lint:allow(name, …): reason` comments.  Returns the map of
/// line → suppressed lint names, plus findings for malformed suppressions
/// (unknown lint, missing mandatory reason) — those do **not** suppress.
fn parse_suppressions(path: &str, tokens: &[Token]) -> (HashMap<usize, Vec<String>>, Vec<Finding>) {
    let mut map: HashMap<usize, Vec<String>> = HashMap::new();
    let mut findings = Vec::new();
    for token in tokens {
        let TokenKind::LineComment(text) = &token.kind else {
            continue;
        };
        let Some(rest) = text.trim().strip_prefix("lint:allow") else {
            continue;
        };
        let mut bad = |message: String| {
            findings.push(Finding {
                lint: "suppression",
                file: path.to_string(),
                line: token.line,
                col: token.col,
                message,
            });
        };
        let Some((names, reason)) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            bad("lint:allow must name the lint: // lint:allow(<name>): <reason>".into());
            continue;
        };
        let Some(reason) = reason.trim_start().strip_prefix(':') else {
            bad(
                "lint:allow is missing its mandatory ': <reason>' — say why the invariant \
                 holds here"
                    .into(),
            );
            continue;
        };
        if reason.trim().is_empty() {
            bad("lint:allow has an empty reason — say why the invariant holds here".into());
            continue;
        }
        let mut ok = true;
        let mut listed = Vec::new();
        for name in names.split(',').map(str::trim) {
            if is_known(name) && name != "suppression" {
                listed.push(name.to_string());
            } else {
                bad(format!(
                    "lint:allow names unknown lint '{name}' (known: {})",
                    known_names().join(", ")
                ));
                ok = false;
            }
        }
        if ok {
            map.entry(token.line).or_default().extend(listed);
        }
    }
    (map, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn strict(source: &str) -> Vec<Finding> {
        check_file("lib.rs", &lex(source), &FileContext::default())
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn flags_each_lint_with_line_precision() {
        let findings = strict(
            "fn f() {\n\
             let n = std::thread::available_parallelism();\n\
             let (tx, rx) = std::sync::mpsc::channel::<u8>();\n\
             let v = x.unwrap();\n\
             if a == 0.5 { panic!(\"no\") }\n\
             todo!()\n\
             }",
        );
        assert_eq!(
            lints_of(&findings),
            vec![
                "direct-available-parallelism",
                "unbounded-channel",
                "panic-in-worker",
                "float-eq",
                "panic-in-worker",
                "todo-marker",
            ]
        );
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 3);
        assert_eq!(findings[5].line, 6);
    }

    #[test]
    fn sync_channel_and_cached_accessor_pass() {
        let findings = strict(
            "fn f() {\n\
             let n = ptolemy_nn::available_parallelism();\n\
             let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(1);\n\
             let v = x.unwrap_or_default();\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let findings = strict(
            "fn f() {\n\
             let s = \"x.unwrap() mpsc::channel( panic!\";\n\
             // a comment about .unwrap() and todo!()\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_test_regions_are_relaxed() {
        let findings = strict(
            "fn lib() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn t() { y.unwrap(); assert!(1.0 == z); }\n\
             }\n",
        );
        assert_eq!(lints_of(&findings), vec!["panic-in-worker"]);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn cfg_test_on_a_field_statement_or_expression_is_a_test_hook() {
        let findings = strict(
            "struct Shared {\n\
             #[cfg(test)]\n\
             fail_next: bool,\n\
             }\n\
             fn run() -> Shared {\n\
             #[cfg(test)]\n\
             inject_fault();\n\
             Shared {\n\
             #[cfg(test)]\n\
             fail_next: false,\n\
             }\n\
             }\n\
             fn after() { x.unwrap(); }\n",
        );
        // The hook opens no test region: the code after it stays strict.
        assert_eq!(
            lints_of(&findings),
            vec![
                "test-hook-in-prod",
                "test-hook-in-prod",
                "test-hook-in-prod",
                "panic-in-worker"
            ]
        );
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 6, 9, 13]
        );
        // Whole items stay legal, `pub`-qualified or not, and so does a hook
        // inside a test region or a relaxed file.
        let items = "#[cfg(test)]\npub(crate) fn helper() {}\n\
                     #[cfg(test)]\nuse std::sync::Arc;\n\
                     #[cfg(test)]\npub struct Probe;\n\
                     #[cfg(test)]\nimpl Probe {}\n\
                     #[cfg(test)]\nmod tests {\nfn t() {\n#[cfg(test)]\nlet x = 1;\n}\n}\n";
        assert!(strict(items).is_empty(), "{:?}", strict(items));
        let relaxed = FileContext {
            relaxed: true,
            allowed: HashSet::new(),
        };
        let tokens = lex("struct S {\n#[cfg(test)]\nhook: bool,\n}\n");
        assert!(check_file("tests/t.rs", &tokens, &relaxed).is_empty());
    }

    #[test]
    fn cfg_not_test_stays_strict() {
        let findings = strict("#[cfg(not(test))]\nfn f() { x.unwrap(); }\n");
        assert_eq!(lints_of(&findings), vec!["panic-in-worker"]);
    }

    #[test]
    fn suppression_with_reason_suppresses() {
        let findings = strict(
            "fn f() {\n\
             // lint:allow(panic-in-worker): validated non-empty at construction\n\
             let v = x.unwrap();\n\
             let w = y.unwrap(); // lint:allow(panic-in-worker): index bounded by len above\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppression_without_reason_is_a_finding_and_does_not_suppress() {
        let findings = strict(
            "fn f() {\n\
             let v = x.unwrap(); // lint:allow(panic-in-worker)\n\
             }",
        );
        // Same line; sorted by column — the violation first, then the
        // malformed trailing suppression.
        assert_eq!(lints_of(&findings), vec!["panic-in-worker", "suppression"]);
    }

    #[test]
    fn suppression_of_unknown_lint_is_a_finding() {
        let findings = strict("// lint:allow(no-such): because\nfn f() {}\n");
        assert_eq!(lints_of(&findings), vec!["suppression"]);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let findings = strict("fn f() { unsafe { go() } }\n");
        assert_eq!(lints_of(&findings), vec!["undocumented-unsafe"]);
        let findings = strict(
            "fn f() {\n// SAFETY: ptr is valid for reads, checked above\nunsafe { go() }\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsafe_is_enforced_even_in_tests() {
        let findings = strict("#[test]\nfn t() { unsafe { go() } }\n");
        assert_eq!(lints_of(&findings), vec!["undocumented-unsafe"]);
    }

    #[test]
    fn float_eq_variants() {
        assert_eq!(
            lints_of(&strict("fn f() { let a = x != 1e-3; }")),
            vec!["float-eq"]
        );
        assert_eq!(
            lints_of(&strict("fn f() { let a = 0.5 == x; }")),
            vec!["float-eq"]
        );
        assert_eq!(
            lints_of(&strict("fn f() { let a = x == -0.5; }")),
            vec!["float-eq"]
        );
        assert_eq!(
            lints_of(&strict("fn f() { let a = (x as f32) == y; }")),
            vec!["float-eq"]
        );
        // to_bits comparison and integer comparisons pass.
        assert!(strict("fn f() { let a = x.to_bits() == y.to_bits(); }").is_empty());
        assert!(strict("fn f() { let a = n == 3; }").is_empty());
        // `=>` and `<=` are not `==`.
        assert!(strict("fn f() { match x { _ => 0.5 }; }").is_empty());
        assert!(strict("fn f() { let a = x <= 0.5; }").is_empty());
    }

    #[test]
    fn raw_instant_fires_in_library_code_only() {
        // Positive: any Instant::now() path form in library code.
        assert_eq!(
            lints_of(&strict("fn f() { let t = Instant::now(); }")),
            vec!["raw-instant"]
        );
        assert_eq!(
            lints_of(&strict("fn f() { let t = std::time::Instant::now(); }")),
            vec!["raw-instant"]
        );
        // Negative: Clock-based timing, other now()s, and strings/comments.
        assert!(strict("fn f() { let t = clock.now_ns(); }").is_empty());
        assert!(strict("fn f() { let t = SystemTime::now(); }").is_empty());
        assert!(strict("fn f() { // Instant::now() in prose\n }").is_empty());
        // Relaxed in test regions: benches and tests time freely.
        assert!(strict("#[test]\nfn t() { let s = Instant::now(); }").is_empty());
        // Suppressed with a reason.
        assert!(strict(
            "fn f() {\n\
             // lint:allow(raw-instant): monotonic source feeding the Clock itself\n\
             let t = Instant::now();\n\
             }"
        )
        .is_empty());
    }

    #[test]
    fn raw_thread_spawn_flags_every_spawn_form_and_spares_look_alikes() {
        let findings = strict(
            "fn f() {\n\
             std::thread::scope(|s| { s.spawn(|| 1); });\n\
             let h = thread::spawn(|| 2);\n\
             let b = std::thread::Builder::new().name(n).spawn(move || 3);\n\
             let c = Builder::new().spawn_scoped(scope, || 4);\n\
             }",
        );
        assert_eq!(lints_of(&findings), vec!["raw-thread-spawn"; 5]);
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 2, 3, 4, 5]
        );
        // A field or free function that merely shares the name, the gated
        // primitives, and anything inside test regions stay legal.
        let findings = strict(
            "fn f(scope: usize) {\n\
             let spawn = scope + 1;\n\
             ptolemy_tensor::parallel::fork_join(4, w, split, run);\n\
             let n = ptolemy_tensor::parallel::helpers_spawned();\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn t() { std::thread::spawn(|| 1).join().unwrap(); }\n\
             }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn raw_numeric_cast_fires_outside_quant_module() {
        // Positive: both cast targets, in any expression position.
        assert_eq!(
            lints_of(&strict("fn f() { let q = (x / s).round() as i8; }")),
            vec!["raw-numeric-cast"]
        );
        assert_eq!(
            lints_of(&strict("fn f() { let b = word as u8; }")),
            vec!["raw-numeric-cast"]
        );
        // Negative: widening / non-8-bit casts, From conversions, prose.
        assert!(strict("fn f() { let v = q as i32; }").is_empty());
        assert!(strict("fn f() { let v = i8::try_from(x); }").is_empty());
        assert!(strict("fn f() { let v = f32::from(q); }").is_empty());
        assert!(strict("fn f() { // `as i8` in a comment\n }").is_empty());
        assert!(strict("fn f() { let s = \"cast as u8\"; }").is_empty());
        // Relaxed in test regions: tests build i8 fixtures freely.
        assert!(strict("#[test]\nfn t() { let q = x as i8; }").is_empty());
        // Suppressed with a reason (the ISA word-encoding sites).
        assert!(strict(
            "fn f() {\n\
             // lint:allow(raw-numeric-cast): ISA word-field encoding, not quantization\n\
             let b = (word >> 8) as u8;\n\
             }"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_file_context_keeps_unsafe_lint_only() {
        let context = FileContext {
            relaxed: true,
            allowed: HashSet::new(),
        };
        let tokens = lex("fn f() { x.unwrap(); unsafe { go() } }");
        let findings = check_file("tests/t.rs", &tokens, &context);
        assert_eq!(lints_of(&findings), vec!["undocumented-unsafe"]);
    }

    #[test]
    fn config_allow_disables_per_file() {
        let context = FileContext {
            relaxed: false,
            allowed: ["direct-available-parallelism".to_string()].into(),
        };
        let tokens = lex("fn f() { let n = thread::available_parallelism(); }");
        assert!(check_file("crates/nn/src/batch.rs", &tokens, &context).is_empty());
    }
}
