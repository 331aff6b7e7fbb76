//! `BENCH_<experiment>.json` emission — the machine-readable perf trajectory.
//!
//! Every experiment run writes one schema'd JSON report next to its printed
//! tables: the experiment id, the scale it ran at, its wall time, every named
//! [`Table::metric`], and the deterministic [`Table::check`] shape-check
//! flags.  CI smoke-runs the registry, diffs the reports against the
//! committed baseline with `scripts/bench_diff.sh` (parity flags exact,
//! timing metrics tolerance-aware) and uploads them as artifacts, so the
//! repository carries its own performance trajectory.
//!
//! The format is deliberately one key per line so that shell tooling can
//! diff it with `grep`/`awk` alone:
//!
//! ```json
//! {
//!   "schema": "ptolemy-bench-v1",
//!   "experiment": "quantized_serve",
//!   "scale": "quick",
//!   "wall_us": 1234567,
//!   "metrics": {
//!     "int8_escalated": 27
//!   },
//!   "parity": {
//!     "both_modes_completed_every_request_without_failures": 1
//!   }
//! }
//! ```
//!
//! Reports land in `target/bench/` by default; set `PTOLEMY_BENCH_OUT` to
//! redirect (CI points it at the artifact directory).

use std::io;
use std::path::PathBuf;

use crate::{BenchScale, Table};

/// The report schema identifier; bump when the layout changes incompatibly.
pub const SCHEMA: &str = "ptolemy-bench-v1";

/// The directory reports are written to: `$PTOLEMY_BENCH_OUT` when set,
/// `target/bench` otherwise.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("PTOLEMY_BENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("bench"),
    }
}

/// Sanitises a metric/check label into a stable snake_case JSON key: ASCII
/// alphanumerics kept (lowercased), every other run of characters collapsed
/// to one `_`.  Labels must not embed run-dependent values — the baseline
/// diff matches reports by key.
pub fn key_of(label: &str) -> String {
    let mut key = String::with_capacity(label.len());
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            key.push(ch.to_ascii_lowercase());
        } else if !key.is_empty() && !key.ends_with('_') {
            key.push('_');
        }
    }
    while key.ends_with('_') {
        key.pop();
    }
    if key.is_empty() {
        key.push('x');
    }
    key
}

/// Collects `(label, value)` pairs into deduplicated `(key, value)` entries;
/// a repeated key gets a `_2`, `_3`, … suffix in encounter order so every
/// recorded value survives into the report.
fn keyed(entries: impl IntoIterator<Item = (String, u64)>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (label, value) in entries {
        let base = key_of(&label);
        let mut key = base.clone();
        let mut n = 1usize;
        while out.iter().any(|(existing, _)| *existing == key) {
            n += 1;
            key = format!("{base}_{n}");
        }
        out.push((key, value));
    }
    out
}

fn section(name: &str, entries: &[(String, u64)]) -> String {
    if entries.is_empty() {
        return format!("  \"{name}\": {{}}");
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(key, value)| format!("    \"{key}\": {value}"))
        .collect();
    format!("  \"{name}\": {{\n{}\n  }}", body.join(",\n"))
}

/// Renders the report text for one experiment run (one key per line, stable
/// ordering).  The output is plain JSON — `ptolemy_obs::json::parse` accepts
/// it, and so does any standard parser.
pub fn render(experiment: &str, scale: BenchScale, wall_us: u64, tables: &[Table]) -> String {
    let metrics = keyed(
        tables
            .iter()
            .flat_map(|t| t.metrics().iter().cloned())
            .collect::<Vec<_>>(),
    );
    let parity = keyed(
        tables
            .iter()
            .flat_map(|t| t.checks().iter().cloned())
            .map(|(label, ok)| (label, u64::from(ok)))
            .collect::<Vec<_>>(),
    );
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"experiment\": \"{}\",\n  \"scale\": \"{}\",\n  \
         \"wall_us\": {wall_us},\n{},\n{}\n}}\n",
        key_of(experiment),
        scale.label(),
        section("metrics", &metrics),
        section("parity", &parity),
    )
}

/// Writes the report for one experiment run to
/// `<out_dir>/BENCH_<experiment>.json` and returns the path.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write(
    experiment: &str,
    scale: BenchScale,
    wall_us: u64,
    tables: &[Table],
) -> io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{}.json", key_of(experiment)));
    std::fs::write(&path, render(experiment, scale, wall_us, tables))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_obs::json::{self, JsonValue};

    #[test]
    fn keys_are_stable_snake_case() {
        assert_eq!(key_of("wall_us"), "wall_us");
        assert_eq!(
            key_of("served int8-screen verdicts agree on >= 75% (of inputs)"),
            "served_int8_screen_verdicts_agree_on_75_of_inputs"
        );
        assert_eq!(key_of("BwCu >> BwAb"), "bwcu_bwab");
        assert_eq!(key_of("---"), "x");
    }

    #[test]
    fn duplicate_labels_get_numbered_keys() {
        let entries = keyed(vec![
            ("wall us".into(), 1),
            ("wall_us".into(), 2),
            ("wall-us".into(), 3),
        ]);
        assert_eq!(
            entries,
            vec![
                ("wall_us".to_string(), 1),
                ("wall_us_2".to_string(), 2),
                ("wall_us_3".to_string(), 3)
            ]
        );
    }

    #[test]
    fn report_renders_one_key_per_line_and_parses() {
        let mut table = Table::new("t");
        table.metric("int8_escalated", 27);
        table.check("fused parity", true);
        table.check("routing sums", false);
        let text = render("quantized_serve", BenchScale::Quick, 42, &[table]);
        // One key per line: every quoted key starts its own line.
        for key in ["\"schema\"", "\"wall_us\"", "\"int8_escalated\""] {
            assert_eq!(
                text.lines()
                    .filter(|l| l.trim_start().starts_with(key))
                    .count(),
                1,
                "{key} not on its own line:\n{text}"
            );
        }
        let parsed = json::parse(&text).expect("report parses");
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
        assert_eq!(
            parsed.get("experiment").and_then(JsonValue::as_str),
            Some("quantized_serve")
        );
        assert_eq!(
            parsed.get("scale").and_then(JsonValue::as_str),
            Some("quick")
        );
        assert_eq!(parsed.get("wall_us").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("int8_escalated"))
                .and_then(JsonValue::as_u64),
            Some(27)
        );
        assert_eq!(
            parsed
                .get("parity")
                .and_then(|p| p.get("fused_parity"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("parity")
                .and_then(|p| p.get("routing_sums"))
                .and_then(JsonValue::as_u64),
            Some(0)
        );
    }

    #[test]
    fn empty_sections_render_as_empty_objects() {
        let text = render("x", BenchScale::Full, 0, &[]);
        let parsed = json::parse(&text).expect("parses");
        assert_eq!(
            parsed.get("scale").and_then(JsonValue::as_str),
            Some("full")
        );
        assert!(matches!(
            parsed.get("metrics"),
            Some(JsonValue::Object(fields)) if fields.is_empty()
        ));
    }
}
