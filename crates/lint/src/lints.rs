//! The lint registry: each lint guards one convention the runtime's
//! correctness or performance story rests on, grounded in a real past bug or a
//! parity invariant pinned by the test-suite (see `docs/ARCHITECTURE.md`,
//! "Enforced invariants").  These are the rules clippy cannot say exactly; the
//! rest are clippy lints configured in the workspace `Cargo.toml` and
//! `clippy.toml`.
//!
//! Lints run over the [`crate::lexer`] token stream, so strings, comments and
//! char literals never false-positive.  Test code — files with a
//! `tests`/`examples`/`benches` path component, and `#[cfg(test)]` /
//! `#[test]` regions inside library files — is exempt: only suppression
//! well-formedness is checked there.
//!
//! A finding is suppressed by an adjacent `// lint:allow(<name>): <reason>`
//! comment (same line, or the line directly above); the reason is mandatory —
//! a suppression without one is itself a finding, and the violation it tried
//! to cover stays reported.

use std::collections::HashMap;

use crate::lexer::{Token, TokenKind};

/// `(name, what it guards)` for every lint, in reporting order.
pub const LINTS: &[(&str, &str)] = &[
    (
        "float-eq",
        "parity is pinned bit-for-bit via to_bits(); ==/!= against a float literal silently \
         depends on rounding (and -0.0 == 0.0)",
    ),
    (
        "raw-numeric-cast",
        "`as i8` / `as u8` are lossy saturating casts; all quantization rounding lives in the \
         audited crates/tensor/src/quant.rs module — call its QuantParams API instead",
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

/// `true` if `name` names a registered lint.
fn is_known(name: &str) -> bool {
    LINTS.iter().any(|(lint, _)| *lint == name)
}

/// `true` if `path` is test code as a whole: it has a `tests`, `examples` or
/// `benches` component.
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|part| matches!(part, "tests" | "examples" | "benches"))
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

/// Runs every lint over one file's token stream; `path` (workspace-relative,
/// forward slashes) decides whether the file is test code.
pub fn check_file(path: &str, tokens: &[Token]) -> Vec<Finding> {
    let (regions, test_hooks) = test_regions(tokens);
    let (suppressions, mut findings) = parse_suppressions(path, tokens);

    // The code stream: comments removed so adjacency checks (`as` `i8`) see
    // through interleaved comments.
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let ident = |i: usize| -> Option<&str> { code.get(i).and_then(|t| t.kind.ident()) };
    let punct = |i: usize, op: &str| -> bool { code.get(i).is_some_and(|t| t.kind.is_punct(op)) };

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
        if let Some(ty @ ("i8" | "u8")) = token.kind.ident() {
            if i > 0 && ident(i - 1) == Some("as") {
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

    // Test code is exempt; then apply suppressions.
    let test_file = is_test_path(path);
    findings.extend(raw.into_iter().filter(|finding| {
        if test_file || regions.iter().any(|r| r.contains(finding.line)) {
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
                    "lint:allow names unknown lint '{name}' (known: {}; the other workspace \
                     rules are clippy lints, excused by #[expect(clippy::…, reason = \"…\")])",
                    LINTS
                        .iter()
                        .map(|(lint, _)| *lint)
                        .collect::<Vec<_>>()
                        .join(", ")
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
        check_file("lib.rs", &lex(source))
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn flags_each_lint_with_line_precision() {
        let findings = strict(
            "fn f() {\n\
             let q = x as i8;\n\
             if a == 0.5 { go() }\n\
             #[cfg(test)]\n\
             hook();\n\
             }",
        );
        assert_eq!(
            lints_of(&findings),
            vec!["raw-numeric-cast", "float-eq", "test-hook-in-prod"]
        );
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let findings = strict(
            "fn f() {\n\
             let s = \"x as u8 == 0.5 #[cfg(test)]\";\n\
             // a comment about `as i8` and a == 1.0\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let findings = strict(
            "fn lib() { let b = x as u8; }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn t() { let q = y as i8; assert!(1.0 == z); }\n\
             }\n",
        );
        assert_eq!(lints_of(&findings), vec!["raw-numeric-cast"]);
        assert_eq!(findings[0].line, 1);
        // A file under tests/, examples/ or benches/ is test code as a whole,
        // but its suppressions must still be well formed.
        let source = "fn f() { let q = x as i8; }\n// lint:allow(float-eq)\n";
        for path in [
            "tests/t.rs",
            "crates/x/examples/e.rs",
            "crates/x/benches/b.rs",
        ] {
            assert_eq!(
                lints_of(&check_file(path, &lex(source))),
                vec!["suppression"],
                "{path}"
            );
        }
        // A path that merely contains the word stays strict.
        assert_eq!(
            lints_of(&check_file("src/tests_util.rs", &lex(source))),
            vec!["raw-numeric-cast", "suppression"]
        );
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
             fn after() { let b = x as u8; }\n",
        );
        // The hook opens no test region: the code after it stays strict.
        assert_eq!(
            lints_of(&findings),
            vec![
                "test-hook-in-prod",
                "test-hook-in-prod",
                "test-hook-in-prod",
                "raw-numeric-cast"
            ]
        );
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 6, 9, 13]
        );
        // Whole items stay legal, `pub`-qualified or not, and so does a hook
        // inside a test region or a test file.
        let items = "#[cfg(test)]\npub(crate) fn helper() {}\n\
                     #[cfg(test)]\nuse std::sync::Arc;\n\
                     #[cfg(test)]\npub struct Probe;\n\
                     #[cfg(test)]\nimpl Probe {}\n\
                     #[cfg(test)]\nmod tests {\nfn t() {\n#[cfg(test)]\nlet x = 1;\n}\n}\n";
        assert!(strict(items).is_empty(), "{:?}", strict(items));
        let tokens = lex("struct S {\n#[cfg(test)]\nhook: bool,\n}\n");
        assert!(check_file("tests/t.rs", &tokens).is_empty());
    }

    #[test]
    fn cfg_not_test_stays_strict() {
        let findings = strict("#[cfg(not(test))]\nfn f() { let q = x as i8; }\n");
        assert_eq!(lints_of(&findings), vec!["raw-numeric-cast"]);
    }

    #[test]
    fn suppression_with_reason_suppresses() {
        let findings = strict(
            "fn f() {\n\
             // lint:allow(raw-numeric-cast): masked to 8 bits above\n\
             let v = x as u8;\n\
             let w = y == 0.0; // lint:allow(float-eq): exact zero sentinel\n\
             }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppression_without_reason_is_a_finding_and_does_not_suppress() {
        let findings = strict(
            "fn f() {\n\
             let v = x as u8; // lint:allow(raw-numeric-cast)\n\
             }",
        );
        // Same line; sorted by column — the violation first, then the
        // malformed trailing suppression.
        assert_eq!(lints_of(&findings), vec!["raw-numeric-cast", "suppression"]);
    }

    #[test]
    fn suppression_of_unknown_or_clippy_carried_lint_is_a_finding() {
        let findings = strict("// lint:allow(no-such): because\nfn f() {}\n");
        assert_eq!(lints_of(&findings), vec!["suppression"]);
        // The rules clippy carries are excused with #[expect], not lint:allow.
        let findings =
            strict("fn f() {\n// lint:allow(panic-in-worker): non-empty\nlet v = x.unwrap();\n}\n");
        assert_eq!(lints_of(&findings), vec!["suppression"]);
        assert!(
            findings[0].message.contains("#[expect(clippy::"),
            "{findings:?}"
        );
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
        // Suppressed with a reason (the ISA word-encoding sites).
        assert!(strict(
            "fn f() {\n\
             // lint:allow(raw-numeric-cast): ISA word-field encoding, not quantization\n\
             let b = (word >> 8) as u8;\n\
             }"
        )
        .is_empty());
    }
}
