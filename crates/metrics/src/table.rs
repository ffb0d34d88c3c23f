//! Plain-text rendering for paper-style tables and figures.

use std::fmt::Write as _;

use ddc_sim::TimeSeries;

/// An ASCII table builder used by the `repro` harness to print rows in the
/// same layout as the paper's tables.
///
/// # Example
///
/// ```
/// use ddc_metrics::TextTable;
///
/// let mut t = TextTable::new(vec!["Workload", "Throughput"]);
/// t.row(vec!["Webserver".into(), "93.7".into()]);
/// let s = t.render();
/// assert!(s.contains("Webserver"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                let _ = write!(line, " {:<width$} ", cells[i], width = widths[i]);
                if i + 1 < cols {
                    line.push('|');
                }
            }
            line
        };
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders one or more time series as a shared-axis ASCII chart, the
/// textual analogue of the paper's occupancy figures.
///
/// Each series becomes one braille-free line chart row block of height
/// `height`; values are scaled to the global maximum.
pub fn render_ascii_chart(series: &[&TimeSeries], width: usize, height: usize) -> String {
    if series.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let global_max = series
        .iter()
        .filter_map(|s| s.max_value())
        .fold(0.0_f64, f64::max);
    let mut out = String::new();
    for s in series {
        let pts = s.thin(width);
        let _ = writeln!(
            out,
            "{} (max {:.1})",
            s.name(),
            s.max_value().unwrap_or(0.0)
        );
        if pts.is_empty() || global_max <= 0.0 {
            let _ = writeln!(out, "  (no data)");
            continue;
        }
        let mut grid = vec![vec![' '; pts.len()]; height];
        for (x, p) in pts.iter().enumerate() {
            let scaled = (p.value / global_max * (height as f64 - 1.0)).round() as usize;
            let y = scaled.min(height - 1);
            for row in grid.iter().take(y + 1) {
                let _ = row; // fill below the curve
            }
            for (level, row) in grid.iter_mut().enumerate() {
                if level <= y {
                    row[x] = if level == y { '*' } else { '.' };
                }
            }
        }
        for level in (0..height).rev() {
            let line: String = grid[level].iter().collect();
            let _ = writeln!(out, "  |{line}");
        }
        let _ = writeln!(out, "  +{}", "-".repeat(pts.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_sim::SimTime;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "workload"]);
        t.row(vec!["1".into(), "web".into()]);
        t.row(vec!["22".into(), "videoserver".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('|'));
        assert!(lines[1].starts_with('-'));
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn chart_renders_series() {
        let mut s = TimeSeries::new("cache");
        for sec in 0..50 {
            s.record(SimTime::from_secs(sec), sec as f64);
        }
        let out = render_ascii_chart(&[&s], 40, 8);
        assert!(out.contains("cache"));
        assert!(out.contains('*'));
        assert!(out.lines().count() > 8);
    }

    #[test]
    fn chart_empty_inputs() {
        assert_eq!(render_ascii_chart(&[], 40, 8), "");
        let s = TimeSeries::new("empty");
        let out = render_ascii_chart(&[&s], 40, 8);
        assert!(out.contains("no data"));
    }

    #[test]
    fn chart_scales_to_global_max() {
        let mut a = TimeSeries::new("small");
        let mut b = TimeSeries::new("big");
        a.record(SimTime::from_secs(1), 1.0);
        b.record(SimTime::from_secs(1), 100.0);
        let out = render_ascii_chart(&[&a, &b], 10, 4);
        // The small series should sit at the bottom row of its block.
        assert!(out.contains("small (max 1.0)"));
        assert!(out.contains("big (max 100.0)"));
    }
}
