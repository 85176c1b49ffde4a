//! Minimal markdown table rendering for the experiment harness.

/// A titled markdown table with optional footnotes.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (rendered as a heading).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified by the producer).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes rendered under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row; must match the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a footnote.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// A copy with every host-timing cell — columns whose header contains
    /// `wall` or is `speedup` — replaced by `~`, so the rendering depends
    /// only on the deterministic counts (the pinned quick tables compare
    /// it).
    pub fn host_time_masked(&self) -> Table {
        let timed: Vec<bool> = self
            .header
            .iter()
            .map(|h| h.contains("wall") || h == "speedup")
            .collect();
        let mut t = self.clone();
        for row in &mut t.rows {
            for (cell, _) in row.iter_mut().zip(&timed).filter(|(_, &m)| m) {
                *cell = "~".into();
            }
        }
        t
    }

    /// Renders the table as GitHub-flavored markdown with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out.push('\n');
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Demo", &["n", "steps"]);
        t.push_row(vec!["64".into(), "1234".into()]);
        t.note("a note");
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("|  n | steps |"));
        assert!(md.contains("| 64 |  1234 |"));
        assert!(md.contains("> a note"));
    }

    #[test]
    fn masks_only_host_timing_columns() {
        let mut t = Table::new("Demo", &["n", "wall ms", "speedup", "steps"]);
        t.push_row(vec![
            "64".into(),
            "1.25".into(),
            "3.10".into(),
            "1234".into(),
        ]);
        let m = t.host_time_masked();
        assert_eq!(m.rows, vec![vec!["64", "~", "~", "1234"]]);
        assert_eq!(m.header, t.header);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
