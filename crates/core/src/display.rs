//! Display of results: the pipeline's final stage.
//!
//! The paper attaches a Qt GUI that shows partial results during the run;
//! headless equivalents are provided here: a CSV writer, an ASCII chart
//! renderer and an
//! in-memory collector used by tests and the report API. All of them
//! consume the same [`StatRow`] stream the GUI would.

use std::fmt::Write as _;

use crate::engines::StatRow;

/// Renders rows as CSV: `time,instances,<obs>_mean,<obs>_var,...`.
#[derive(Debug)]
pub struct CsvRenderer {
    names: Vec<String>,
    with_centroids: bool,
}

impl CsvRenderer {
    /// Creates a renderer for observables with the given column names.
    pub fn new(names: Vec<String>, with_centroids: bool) -> Self {
        CsvRenderer {
            names,
            with_centroids,
        }
    }

    /// The CSV header line.
    pub fn header(&self) -> String {
        let mut h = String::from("time,instances");
        for n in &self.names {
            let _ = write!(h, ",{n}_mean,{n}_var,{n}_min,{n}_max");
            if self.with_centroids {
                let _ = write!(h, ",{n}_centroids");
            }
        }
        h
    }

    /// One CSV line for `row`.
    pub fn line(&self, row: &StatRow) -> String {
        let mut l = format!("{:.6},{}", row.time, row.instances);
        for obs in &row.observables {
            let _ = write!(
                l,
                ",{:.6},{:.6},{:.6},{:.6}",
                obs.mean, obs.variance, obs.min, obs.max
            );
            if self.with_centroids {
                let centroids = obs
                    .centroids
                    .iter()
                    .map(|c| format!("{c:.3}"))
                    .collect::<Vec<_>>()
                    .join("|");
                let _ = write!(l, ",{centroids}");
            }
        }
        l
    }

    /// Renders a whole table.
    pub fn render(&self, rows: &[StatRow]) -> String {
        let mut out = self.header();
        out.push('\n');
        for row in rows {
            out.push_str(&self.line(row));
            out.push('\n');
        }
        out
    }
}

/// Renders one observable's mean as a fixed-size ASCII chart.
///
/// The terminal stand-in for the paper's GUI plot window.
pub fn ascii_chart(rows: &[StatRow], observable: usize, width: usize, height: usize) -> String {
    if rows.is_empty() || width == 0 || height == 0 {
        return String::from("(no data)\n");
    }
    let means: Vec<f64> = rows
        .iter()
        .map(|r| r.observables.get(observable).map(|o| o.mean).unwrap_or(0.0))
        .collect();
    let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(f64::EPSILON);
    let mut grid = vec![vec![b' '; width]; height];
    let col_to_row = |col: usize| {
        let idx = (col * (means.len() - 1).max(1) / width.max(1)).min(means.len() - 1);
        let v = (means[idx] - lo) / range;
        let r = ((1.0 - v) * (height - 1) as f64).round() as usize;
        r.min(height - 1)
    };
    for (col, row) in (0..width).map(col_to_row).enumerate() {
        grid[row][col] = b'*';
    }
    let mut out = String::new();
    let _ = writeln!(out, "max {hi:.2}");
    for line in grid {
        out.push_str(std::str::from_utf8(&line).expect("ascii"));
        out.push('\n');
    }
    let _ = writeln!(out, "min {lo:.2}");
    let _ = writeln!(
        out,
        "t: {:.2} .. {:.2}",
        rows.first().expect("non-empty").time,
        rows.last().expect("non-empty").time
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ObsStats;

    fn row(time: f64, mean: f64) -> StatRow {
        StatRow {
            time,
            instances: 3,
            observables: vec![ObsStats {
                mean,
                variance: 1.0,
                min: mean - 1.0,
                max: mean + 1.0,
                centroids: vec![mean],
                quantile: None,
                mode: None,
            }],
        }
    }

    #[test]
    fn csv_header_and_lines_align() {
        let r = CsvRenderer::new(vec!["A".into()], false);
        assert_eq!(r.header(), "time,instances,A_mean,A_var,A_min,A_max");
        let line = r.line(&row(1.5, 10.0));
        assert_eq!(line.split(',').count(), r.header().split(',').count());
        assert!(line.starts_with("1.500000,3,10.000000"));
    }

    #[test]
    fn csv_with_centroids_adds_column() {
        let r = CsvRenderer::new(vec!["A".into()], true);
        assert!(r.header().ends_with("A_centroids"));
        let line = r.line(&row(0.0, 2.0));
        assert!(line.ends_with("2.000"));
    }

    #[test]
    fn csv_render_produces_one_line_per_row() {
        let r = CsvRenderer::new(vec!["A".into()], false);
        let table = r.render(&[row(0.0, 1.0), row(1.0, 2.0)]);
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn ascii_chart_has_requested_height() {
        let rows: Vec<StatRow> = (0..50)
            .map(|i| row(i as f64, (i as f64 / 5.0).sin() * 10.0))
            .collect();
        let chart = ascii_chart(&rows, 0, 40, 10);
        // height rows + max line + min line + time line
        assert_eq!(chart.lines().count(), 13);
        assert!(chart.contains('*'));
    }

    #[test]
    fn ascii_chart_handles_empty_input() {
        assert_eq!(ascii_chart(&[], 0, 10, 5), "(no data)\n");
    }

    #[test]
    fn ascii_chart_handles_constant_series() {
        let rows: Vec<StatRow> = (0..10).map(|i| row(i as f64, 4.0)).collect();
        let chart = ascii_chart(&rows, 0, 20, 5);
        assert!(chart.contains('*'));
    }
}
