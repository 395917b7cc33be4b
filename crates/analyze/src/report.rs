//! Human-readable diagnostic rendering: one `file:line: [rule]
//! message` line per finding plus a summary.

use crate::Finding;

/// `file:line: [rule] message`, one finding per line, plus a summary.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("vqoe-analyze: all checks passed\n");
    } else {
        out.push_str(&format!("vqoe-analyze: {} violation(s)\n", findings.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding::new(
            "crates/x/src/lib.rs",
            7,
            "unbounded-map",
            "a \"quoted\" message",
        )]
    }

    #[test]
    fn text_format_is_file_line_rule_message() {
        let text = render_text(&sample());
        assert!(text.contains("crates/x/src/lib.rs:7: [unbounded-map] a \"quoted\" message"));
        assert!(text.contains("1 violation(s)"));
    }

    #[test]
    fn empty_report_is_valid() {
        assert!(render_text(&[]).contains("all checks passed"));
    }
}
