//! Human-readable diagnostic rendering: one `file:line: [rule]
//! message` line per finding plus a summary.

use crate::{severity_of, Finding, Severity};

/// `file:line: [rule] message`, one finding per line (warn-severity
/// findings carry a `warning:` prefix), plus a summary.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    let mut warnings = 0usize;
    for f in findings {
        let prefix = match severity_of(&f.rule) {
            Severity::Deny => "",
            Severity::Warn => {
                warnings += 1;
                "warning: "
            }
        };
        out.push_str(&format!(
            "{}:{}: {}[{}] {}\n",
            f.file, f.line, prefix, f.rule, f.message
        ));
    }
    let violations = findings.len() - warnings;
    if findings.is_empty() {
        out.push_str("vqoe-analyze: all checks passed\n");
    } else if warnings == 0 {
        out.push_str(&format!("vqoe-analyze: {violations} violation(s)\n"));
    } else {
        out.push_str(&format!(
            "vqoe-analyze: {violations} violation(s), {warnings} warning(s)\n"
        ));
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
            "unwrap",
            "a \"quoted\" message",
        )]
    }

    #[test]
    fn text_format_is_file_line_rule_message() {
        let text = render_text(&sample());
        assert!(text.contains("crates/x/src/lib.rs:7: [unwrap] a \"quoted\" message"));
        assert!(text.contains("1 violation(s)"));
    }

    #[test]
    fn warn_findings_are_prefixed_and_counted_separately() {
        let findings = vec![
            Finding::new("a.rs", 1, "unwrap", "m"),
            Finding::new("a.rs", 2, "clone-heavy-handoff", "m"),
        ];
        let text = render_text(&findings);
        assert!(text.contains("a.rs:2: warning: [clone-heavy-handoff]"));
        assert!(text.contains("1 violation(s), 1 warning(s)"));
    }

    #[test]
    fn empty_report_is_valid() {
        assert!(render_text(&[]).contains("all checks passed"));
    }
}
