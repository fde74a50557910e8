//! Minimal TSV writers for the reproduction binaries.
//!
//! The bench harness emits every table/figure as a TSV series under
//! `results/`; a hand-rolled writer keeps the workspace inside the allowed
//! dependency set (no serde format crate needed).

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

/// A TSV table in memory: header plus rows of stringly-typed cells.
#[derive(Debug, Clone, Default)]
pub struct TsvTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl TsvTable {
    /// Create a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        TsvTable { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row of pre-rendered cells; panics on arity mismatch.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Write the table to `path`, creating parent directories as needed.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", self.headers.join("\t"))?;
        for row in &self.rows {
            writeln!(out, "{}", row.join("\t"))?;
        }
        out.flush()
    }

    /// Render to a printable string (used by the binaries to echo results).
    pub fn to_pretty_string(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        s.push_str(&fmt_row(&self.headers, &widths));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&fmt_row(row, &widths));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_write_and_shape() {
        let mut t = TsvTable::new(&["method", "error", "mnad"]);
        t.push_row(vec!["T-Crowd".into(), "0.044000".into(), "0.634000".into()]);
        t.push_row(vec!["MV".into(), "0.057".into(), "-".into()]);
        let dir = std::env::temp_dir().join("tcrowd_tsv_test");
        let path = dir.join("nested/out.tsv");
        t.write(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "method\terror\tmnad");
        assert!(lines[1].starts_with("T-Crowd\t0.044000"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = TsvTable::new(&["a", "b"]);
        t.push_row(vec!["x".into()]);
    }

    #[test]
    fn pretty_string_aligns() {
        let mut t = TsvTable::new(&["m", "v"]);
        t.push_row(vec!["longname".into(), "1".into()]);
        let s = t.to_pretty_string();
        assert!(s.contains("longname"));
        assert_eq!(s.lines().count(), 2);
    }
}
