//! The workspace runner: walks every `.rs` file under the scan roots and
//! renders findings as human-readable lines or a JSON report.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::lexer;
use crate::lints::{self, Finding};

/// Directories (relative to the workspace root) whose `.rs` files are
/// scanned.  `vendor/` (the offline proptest shim) is external-API-shaped code
/// the workspace invariants do not cover; `target/` is skipped anywhere.
const ROOTS: &[&str] = &["crates", "src", "examples", "tests"];

/// Path prefixes left out of the scan: the fixture snippets are deliberate
/// violations.
const EXCLUDE: &[&str] = &["crates/lint/tests/fixtures"];

/// The outcome of one workspace scan.
#[derive(Debug)]
pub struct Report {
    /// Findings across all scanned files, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the scan found nothing — the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report (one `file:line:col: [lint] message`
    /// per finding, plus a summary line).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                finding.file, finding.line, finding.col, finding.lint, finding.message
            ));
        }
        if self.is_clean() {
            out.push_str(&format!(
                "ptolemy-lint: {} files scanned, no violations\n",
                self.files_scanned
            ));
        } else {
            let files: HashSet<&str> = self.findings.iter().map(|f| f.file.as_str()).collect();
            out.push_str(&format!(
                "ptolemy-lint: {} violation(s) in {} file(s) ({} scanned)\n",
                self.findings.len(),
                files.len(),
                self.files_scanned
            ));
        }
        out
    }

    /// Renders the machine-readable JSON report (hand-rolled emission — the
    /// crate is dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"lint\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_string(finding.lint),
                json_string(&finding.file),
                finding.line,
                finding.col,
                json_string(&finding.message)
            ));
        }
        out.push_str(&format!(
            "],\"files_scanned\":{},\"clean\":{}}}\n",
            self.files_scanned,
            self.is_clean()
        ));
        out
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Scans the workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message on unreadable directories or files (a missing scan root
/// is tolerated — the layout may legitimately lack `examples/`).
pub fn run(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    for sub in ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    // Deterministic reporting order, independent of directory enumeration.
    files.sort();

    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for file in &files {
        let relative = relative_path(root, file);
        if EXCLUDE.iter().any(|prefix| relative.starts_with(prefix)) {
            continue;
        }
        files_scanned += 1;
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        findings.extend(lints::check_file(&relative, &lexer::lex(&source)));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });
    Ok(Report {
        findings,
        files_scanned,
    })
}

fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    // Forward slashes so path prefixes and reports are platform-stable.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            // `target/` can appear under any root when building in-tree.
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ptolemy-lint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        dir
    }

    #[test]
    fn scans_roots_and_reports_relative_paths() {
        let dir = scratch_dir("scan");
        std::fs::write(
            dir.join("src/lib.rs"),
            "pub fn f(x: u32) -> u8 { x as u8 }\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].file, "src/lib.rs");
        assert_eq!(report.findings[0].lint, "raw-numeric-cast");
        let human = report.render_human();
        assert!(human.contains("src/lib.rs:1:"), "{human}");
        assert!(human.contains("violation"), "{human}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let dir = scratch_dir("json");
        std::fs::write(
            dir.join("src/lib.rs"),
            "pub fn f(a: f32) -> bool { a == 0.5 }\n",
        )
        .unwrap();
        let report = run(&dir).unwrap();
        let json = report.render_json();
        assert!(json.starts_with("{\"findings\":["), "{json}");
        assert!(json.contains("\"lint\":\"float-eq\""), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
        // Quotes and backslashes in messages must be escaped.
        assert!(!json.contains("\n\""), "raw newline inside JSON: {json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn excluded_paths_and_target_dirs_are_skipped() {
        let dir = scratch_dir("exclude");
        let fixtures = dir.join(EXCLUDE[0]);
        std::fs::create_dir_all(&fixtures).unwrap();
        std::fs::write(
            fixtures.join("bad.rs"),
            "pub fn f(x: u32) -> u8 { x as u8 }\n",
        )
        .unwrap();
        std::fs::create_dir_all(dir.join("src/target")).unwrap();
        std::fs::write(
            dir.join("src/target/bad.rs"),
            "pub fn f(x: u32) -> u8 { x as u8 }\n",
        )
        .unwrap();
        std::fs::write(dir.join("src/lib.rs"), "pub fn f() {}\n").unwrap();
        let report = run(&dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.files_scanned, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_report_renders_summary() {
        let dir = scratch_dir("clean");
        std::fs::write(dir.join("src/lib.rs"), "pub fn f() {}\n").unwrap();
        let report = run(&dir).unwrap();
        assert!(report.is_clean());
        assert!(report.render_human().contains("no violations"));
        assert!(report.render_json().contains("\"clean\":true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
