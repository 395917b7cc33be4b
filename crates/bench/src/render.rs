//! Text rendering for experiment reports: aligned tables, the paper's
//! classifier-output format, and ASCII CDF plots.

use vqoe_ml::ConfusionMatrix;

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells are free-form strings).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with column alignment (first column left, rest right).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for i in 0..cols {
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                if i == 0 {
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                }
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
            out
        };
        let mut out = fmt_row(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Render the paper's classifier-output table (TP Rate / FP Rate /
/// Precision / Recall per class plus the weighted average row) — the
/// format of Tables 3, 6, 8 and 10.
pub fn render_class_report(matrix: &ConfusionMatrix) -> String {
    let mut t = Table::new(vec!["Class", "TP Rate", "FP Rate", "Precision", "Recall"]);
    for r in matrix.class_reports() {
        t.row(vec![
            r.class.clone(),
            format!("{:.3}", r.tp_rate),
            format!("{:.3}", r.fp_rate),
            format!("{:.3}", r.precision),
            format!("{:.3}", r.recall),
        ]);
    }
    let avg = matrix.weighted_average();
    t.row(vec![
        avg.class.clone(),
        format!("{:.3}", avg.tp_rate),
        format!("{:.3}", avg.fp_rate),
        format!("{:.3}", avg.precision),
        format!("{:.3}", avg.recall),
    ]);
    t.render()
}

/// Render the paper's confusion-matrix table (row percentages) — the
/// format of Tables 4, 7, 9 and 11.
pub fn render_confusion(matrix: &ConfusionMatrix) -> String {
    let mut headers = vec!["original \\ predicted".to_string()];
    headers.extend(matrix.class_names.iter().cloned());
    let mut t = Table::new(headers);
    let pcts = matrix.row_percentages();
    for (i, name) in matrix.class_names.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(pcts[i].iter().map(|p| format!("{p:.1}%")));
        t.row(row);
    }
    t.render()
}

/// Render an ASCII CDF: one row per grid point with a proportional bar.
/// `label` heads the plot; `unit` annotates the x column.
pub fn render_cdf(label: &str, unit: &str, steps: &[(f64, f64)], rows: usize) -> String {
    const BAR_WIDTH: usize = 40;
    let mut out = format!("{label}\n");
    if steps.is_empty() {
        out.push_str("  (empty distribution)\n");
        return out;
    }
    // Downsample to ~`rows` evenly spaced points across the series.
    let stride = (steps.len() / rows.max(1)).max(1);
    let mut picked: Vec<(f64, f64)> = steps.iter().copied().step_by(stride).collect();
    if picked.last() != steps.last() {
        picked.push(*steps.last().expect("non-empty"));
    }
    for (x, f) in picked {
        let bar = "#".repeat((f * BAR_WIDTH as f64).round() as usize);
        out.push_str(&format!(
            "  {x:>12.3} {unit:<6} |{bar:<BAR_WIDTH$}| {:.3}\n",
            f
        ));
    }
    out
}

/// Render two CDFs side by side on a merged grid (the Figure-4/5 shape).
pub fn render_cdf_pair(
    label: &str,
    unit: &str,
    name_a: &str,
    a: &vqoe_stats::Ecdf,
    name_b: &str,
    b: &vqoe_stats::Ecdf,
    rows: usize,
) -> String {
    let mut out = format!("{label}\n");
    if a.is_empty() && b.is_empty() {
        out.push_str("  (both distributions empty)\n");
        return out;
    }
    let lo = a.inverse(0.0).min(b.inverse(0.0));
    let hi = a.inverse(1.0).max(b.inverse(1.0));
    let mut t = Table::new(vec![
        format!("x ({unit})"),
        name_a.to_string(),
        name_b.to_string(),
    ]);
    for i in 0..=rows {
        let x = lo + (hi - lo) * i as f64 / rows as f64;
        t.row(vec![
            format!("{x:.3}"),
            format!("{:.3}", a.eval(x)),
            format!("{:.3}", b.eval(x)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "  KS distance = {:.3}   (n = {} vs {})\n",
        a.ks_distance(b),
        a.len(),
        b.len()
    ));
    out
}

/// A paper-vs-measured comparison line for the experiment footers.
pub fn compare_line(what: &str, paper: &str, measured: &str) -> String {
    format!("  {what:<46} paper: {paper:<18} measured: {measured}\n")
}

/// A footer line for a target this repository set itself, laid out
/// like [`compare_line`] but never labelled as a paper figure.
pub fn budget_line(what: &str, budget: &str, measured: &str) -> String {
    format!("  {what:<46} budget: {budget:<17} measured: {measured}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer-name", "23"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert!(lines[2].len() == lines[3].len());
        assert!(s.contains("longer-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn class_report_contains_weighted_avg() {
        let m = ConfusionMatrix::from_predictions(
            vec!["x".to_string(), "y".to_string()],
            &[0, 0, 1, 1],
            &[0, 1, 1, 1],
        );
        let s = render_class_report(&m);
        assert!(s.contains("weighted avg."));
        assert!(s.contains("TP Rate"));
    }

    #[test]
    fn confusion_rows_show_percentages() {
        let m = ConfusionMatrix::from_predictions(
            vec!["x".to_string(), "y".to_string()],
            &[0, 0, 1, 1],
            &[0, 0, 1, 0],
        );
        let s = render_confusion(&m);
        assert!(s.contains("100.0%"));
        assert!(s.contains("50.0%"));
    }

    #[test]
    fn cdf_renders_monotone_bars() {
        let steps: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, i as f64 / 10.0)).collect();
        let s = render_cdf("test", "s", &steps, 5);
        assert!(s.contains("test"));
        assert!(s.contains("1.000"));
    }

    #[test]
    fn cdf_pair_reports_ks() {
        let a = vqoe_stats::Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = vqoe_stats::Ecdf::new(&[2.0, 3.0, 4.0]);
        let s = render_cdf_pair("cmp", "KB", "A", &a, "B", &b, 4);
        assert!(s.contains("KS distance"));
    }

    #[test]
    fn empty_cdf_is_handled() {
        let s = render_cdf("empty", "s", &[], 5);
        assert!(s.contains("empty distribution"));
    }
}
