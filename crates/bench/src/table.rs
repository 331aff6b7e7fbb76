//! Minimal fixed-width text tables for the experiment harnesses.
//!
//! Every figure/table harness prints its results as a plain-text table with a
//! title, a header row and one row per configuration, plus optional
//! "paper: … / measured: …" comparison lines — the format EXPERIMENTS.md records.

use std::fmt;

/// A simple left-aligned text table.
///
/// Beyond the printable rows/notes, a table carries the machine-readable side
/// of an experiment: named integer [`Table::metric`]s and deterministic
/// [`Table::check`]s (gated exactly by the CI perf trajectory) — the `emit`
/// module renders both into the experiment's `BENCH_<id>.json`.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
    metrics: Vec<(String, u64)>,
    checks: Vec<(String, bool)>,
}

impl Table {
    /// Creates an empty table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            ..Table::default()
        }
    }

    /// Sets the header row.
    pub fn header<S: Into<String>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        self.header = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Appends a free-form note printed under the table (used for the
    /// paper-vs-measured comparison lines).
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Records a named integer metric for the experiment's `BENCH_<id>.json`.
    /// Integer-only by design (the workspace JSON dialect): scale fractional
    /// quantities up front (`*_milli`, `*_us`) and name the unit in the key.
    pub fn metric(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Records a **deterministic** shape check: printed as a note and emitted
    /// as a parity flag the CI bench gate compares exactly.  Only checks
    /// whose outcome never depends on wall-clock timing belong here.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) -> &mut Self {
        let label = label.into();
        self.notes.push(format!(
            "shape check — {label}: {}",
            if ok { "holds" } else { "VIOLATED" }
        ));
        self.checks.push((label, ok));
        self
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The recorded metrics, in insertion order.
    pub fn metrics(&self) -> &[(String, u64)] {
        &self.metrics
    }

    /// The recorded deterministic checks, in insertion order.
    pub fn checks(&self) -> &[(String, bool)] {
        &self.checks
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, cell) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}  "));
            }
            writeln!(f, "{}", line.trim_end())
        };
        if !self.header.is_empty() {
            write_row(f, &self.header)?;
            let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
            writeln!(f, "{}", "-".repeat(rule))?;
        }
        for row in &self.rows {
            write_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

/// Formats a float with three decimals (AUC-style values).
pub fn fmt3(value: f32) -> String {
    format!("{value:.3}")
}

/// Formats a relative factor (`12.3x` style).
pub fn fmt_factor(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a percentage with one decimal.
pub fn fmt_percent(value: f64) -> String {
    format!("{value:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_title_header_rows_and_notes() {
        let mut table = Table::new("Fig. X").header(["variant", "auc"]);
        table.row(["BwCu", "0.94"]);
        table.row(["FwAb", "0.91"]);
        table.note("paper: BwCu 0.95 / measured 0.94");
        let text = table.to_string();
        assert!(text.contains("== Fig. X =="));
        assert!(text.contains("variant"));
        assert!(text.contains("BwCu"));
        assert!(text.contains("paper: BwCu"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(0.9444), "0.944");
        assert_eq!(fmt_factor(12.302), "12.30x");
        assert_eq!(fmt_percent(5.25), "5.2%");
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let mut table = Table::new("ragged").header(["a"]);
        table.row(["1", "2", "3"]);
        assert!(table.to_string().contains('3'));
    }

    #[test]
    fn metrics_and_checks_are_recorded_and_rendered() {
        let mut table = Table::new("instrumented");
        table.metric("wall_us", 1234);
        table.check("fused parity", true);
        table.check("routing sums", false);
        assert_eq!(table.metrics(), &[("wall_us".to_string(), 1234)]);
        assert_eq!(
            table.checks(),
            &[
                ("fused parity".to_string(), true),
                ("routing sums".to_string(), false)
            ]
        );
        let text = table.to_string();
        assert!(text.contains("shape check — fused parity: holds"));
        assert!(text.contains("shape check — routing sums: VIOLATED"));
        assert_eq!(table.title(), "instrumented");
    }
}
