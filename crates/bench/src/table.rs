//! Minimal aligned-column table printing for the figure harnesses.

/// A printable table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to a string with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("{:>width$}  ", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format seconds with one decimal.
pub fn secs(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a bandwidth in Mb/s with one decimal.
pub fn mbps(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:+.0}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["procs", "time"]);
        t.row(vec!["2".into(), "1234.5".into()]);
        t.row(vec!["12".into(), "9.1".into()]);
        let s = t.render();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("procs"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1.26), "1.3");
        assert_eq!(mbps(42.0), "42.0");
        assert_eq!(pct(0.43), "+43%");
        assert_eq!(pct(-0.38), "-38%");
    }
}
