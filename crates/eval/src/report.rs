//! Plain-text table rendering with paper-vs-measured columns.

use std::fmt::Write as _;

/// A rendered experiment table.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (first cell is usually the model name).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!(
                    "{:w$}",
                    c,
                    w = widths.get(i).copied().unwrap_or(c.len())
                ));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

/// Writes the table as JSON to `path` (machine-readable companion to the
/// plain-text rendering).
pub fn write_json(table: &Table, path: &std::path::Path) -> std::io::Result<()> {
    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
    serde_json::to_writer_pretty(file, table).map_err(std::io::Error::other)
}

/// Writes `table` as JSON to `path`, if given (the table binaries' `--json
/// FILE`). Errors are reported to stderr, not fatal.
pub fn maybe_write_json(path: Option<String>, table: &Table) {
    if let Some(path) = path {
        match write_json(table, std::path::Path::new(&path)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// `text`, followed by the paper's value in parentheses when the paper
/// reports one, e.g. `0.500 (paper 0.725)`.
pub fn with_paper(text: String, paper: Option<impl std::fmt::Display>) -> String {
    match paper {
        Some(p) => format!("{text} ({p})"),
        None => text,
    }
}

/// Formats mean ± std over repeated runs.
pub fn mean_std(values: &[f64]) -> String {
    if values.is_empty() {
        return "-".into();
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() == 1 {
        return format!("{mean:.3}");
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    format!("{:.3}±{:.3}", mean, var.sqrt())
}

/// Mean of a sample (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
// Tests may assert exact float values (constructed, not computed).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["Model", "NMI"]);
        t.push_row(vec!["CPGAN".into(), "0.72".into()]);
        t.push_row(vec!["B".into(), "0.1".into()]);
        t.push_note("scaled run");
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| CPGAN | 0.72 |"));
        assert!(s.contains("note: scaled run"));
    }

    #[test]
    fn json_round_trip() {
        let mut t = Table::new("J", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("cpgan_eval_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_json(&t, &path).unwrap();
        let loaded: Table = serde_json::from_reader(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(loaded.rows, t.rows);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn formatting_helpers() {
        let paper = Some(format!("paper {:.3}", 0.725));
        assert_eq!(with_paper("0.500".into(), paper), "0.500 (paper 0.725)");
        assert_eq!(with_paper("0.500".into(), None::<f64>), "0.500");
        assert_eq!(mean_std(&[]), "-");
        assert_eq!(mean_std(&[2.0]), "2.000");
        assert!(mean_std(&[1.0, 3.0]).starts_with("2.000±1.000"));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
