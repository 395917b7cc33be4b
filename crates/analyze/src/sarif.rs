//! SARIF 2.1.0 output, the analyzer's one machine-readable format.
//!
//! SARIF (Static Analysis Results Interchange Format) is what code
//! hosts and IDEs ingest to annotate diffs with findings. The writer
//! is hand-rolled (the analyzer depends on nothing, not even the
//! workspace's vendored `serde_json`, so it keeps building when
//! everything else is broken) — one `run`, one `tool.driver` carrying
//! the full rule table (with default severity levels), one `result`
//! per finding.

use crate::{severity_of, Finding, Severity, RULES};

/// Render findings as a SARIF 2.1.0 log.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"vqoe-analyze\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/vqoe-analyze\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": {}}}}}",
            json_string(rule.id),
            json_string(rule.summary),
            json_string(level(rule.severity)),
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_string(&f.rule),
            json_string(level(severity_of(&f.rule))),
            json_string(&f.message),
            json_string(&f.file),
            f.line,
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Deny => "error",
        Severity::Warn => "warning",
    }
}

/// `s` as a quoted JSON string literal, escaping quotes, backslashes
/// and every control character.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_carries_schema_rules_and_results() {
        let findings = vec![Finding::new(
            "crates/x/src/lib.rs",
            7,
            "unwrap",
            "a \"quoted\" message",
        )];
        let s = render(&findings);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-schema-2.1.0.json"));
        assert!(s.contains("\"id\": \"lock-across-handoff\""));
        assert!(s.contains("\"ruleId\": \"unwrap\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("a \\\"quoted\\\" message"));
        // The warn-severity rule maps to SARIF's `warning` level.
        assert!(s.contains("\"level\": \"warning\""));
    }

    #[test]
    fn escaped_strings_parse_back_to_the_originals() {
        let file = "crates/x/src/we\"ird\\na\nme\t.rs";
        let message = "quote \" backslash \\ newline \n tab \t ctrl \u{1} end";
        let s = render(&[Finding::new(file, 3, "unwrap", message)]);
        let doc: serde_json::Value = serde_json::from_str(&s).expect("SARIF parses as JSON");
        let runs = doc["runs"].as_array().expect("runs");
        let results = runs[0]["results"].as_array().expect("results");
        assert_eq!(results[0]["message"]["text"].as_str(), Some(message));
        let locations = results[0]["locations"].as_array().expect("locations");
        assert_eq!(
            locations[0]["physicalLocation"]["artifactLocation"]["uri"].as_str(),
            Some(file)
        );
    }

    #[test]
    fn empty_findings_still_emit_a_valid_run() {
        let s = render(&[]);
        assert!(s.contains("\"results\": []"));
        assert!(s.contains("\"name\": \"vqoe-analyze\""));
    }
}
