//! Labeled result series for experiment output.
//!
//! An experiment produces one [`Series`] per configuration (e.g. one per
//! scheduling policy) holding `(x, y)` points, plus optional free-form notes.
//! The bench crate renders these as aligned text tables and CSV so every
//! table in EXPERIMENTS.md can be regenerated from a single binary run.

use std::fmt;

/// One named sequence of `(x, y)` measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"whole-node"`.
    pub label: String,
    /// Measurement points in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A set of series sharing an x axis — one experiment figure.
#[derive(Debug, Clone, Default)]
pub struct Chart {
    /// Figure title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// All series.
    pub series: Vec<Series>,
}

impl Chart {
    /// A chart with axis labels and no data.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Chart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series and return a mutable handle to it.
    pub fn add_series(&mut self, label: impl Into<String>) -> &mut Series {
        self.series.push(Series::new(label));
        self.series.last_mut().expect("just pushed")
    }

    /// Find a series by label.
    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: header `x,<label>,...`, one row per x of the first
    /// series (missing values are blank). Panics if series disagree on x
    /// values — experiments always sweep the same grid.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        let Some(first) = self.series.first() else {
            return out;
        };
        for (i, &(x, _)) in first.points.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                let (sx, sy) = s.points[i];
                assert!(
                    (sx - x).abs() < 1e-9,
                    "series '{}' x grid mismatch at row {i}",
                    s.label
                );
                out.push_str(&format!(",{sy}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Chart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} ({} vs {})", self.title, self.y_label, self.x_label)?;
        write!(f, "{}", self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_csv_layout() {
        let mut c = Chart::new("util", "jobs", "percent");
        {
            let s = c.add_series("shared");
            s.push(10.0, 90.0);
            s.push(20.0, 95.0);
        }
        {
            let s = c.add_series("exclusive");
            s.push(10.0, 40.0);
            s.push(20.0, 35.0);
        }
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "jobs,shared,exclusive");
        assert_eq!(lines[1], "10,90,40");
        assert_eq!(lines[2], "20,95,35");
        assert!(c.get("shared").is_some());
        assert!(c.get("none").is_none());
    }

    #[test]
    #[should_panic(expected = "x grid mismatch")]
    fn chart_csv_rejects_misaligned_grids() {
        let mut c = Chart::new("t", "x", "y");
        c.add_series("a").push(1.0, 1.0);
        c.add_series("b").push(2.0, 2.0);
        let _ = c.to_csv();
    }
}
