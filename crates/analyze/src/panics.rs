//! Pass 2 — panic-path lint.
//!
//! Library code in this workspace is meant to run inside an operator's
//! monitoring pipeline (§8 of the paper): a malformed weblog entry must
//! surface as an `Err`, not take the process down. This pass forbids the
//! usual panic shortcuts in non-`#[cfg(test)]` code:
//!
//! * `.unwrap()` (rule `unwrap`) — including the float-comparison
//!   special case `partial_cmp(..).unwrap()`, where the fix is
//!   `f64::total_cmp`;
//! * `.expect(` (rule `expect`);
//! * `panic!(` (rule `panic`).
//!
//! Test modules are exempt (a failing test *should* panic), and truly
//! unreachable states can carry an `// analyze:allow(<rule>)` marker
//! with a justification.

use crate::lexer::Line;
use crate::Finding;

/// Per-file findings *before* `analyze:allow` filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let mut push = |rule: &str, message: String| {
            findings.push(Finding::new(file, lineno, rule, message));
        };
        if line.code.contains(".unwrap()") {
            let message = if line.code.contains("partial_cmp") {
                "`partial_cmp(..).unwrap()` panics on NaN; sort floats with \
                 `f64::total_cmp` instead"
                    .to_string()
            } else {
                "`.unwrap()` in library code; return a Result or handle the None case".to_string()
            };
            push("unwrap", message);
        }
        if line.code.contains(".expect(") {
            push(
                "expect",
                "`.expect(...)` in library code; return a Result or handle the \
                 None case"
                    .to_string(),
            );
        }
        if line.code.contains("panic!(") {
            push(
                "panic",
                "`panic!` in library code; return an error instead".to_string(),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn findings_in(src: &str) -> Vec<Finding> {
        let lines = lex_file(src);
        crate::filter_allows(raw_findings("x.rs", &lines), &lines)
    }

    #[test]
    fn unwrap_expect_and_panic_fire_in_library_code() {
        let src = "fn f() {\n    a.unwrap();\n    b.expect(\"msg\");\n    panic!(\"boom\");\n}\n";
        let rules: Vec<_> = findings_in(src).iter().map(|f| f.rule.clone()).collect();
        assert_eq!(rules, vec!["unwrap", "expect", "panic"]);
    }

    #[test]
    fn partial_cmp_unwrap_gets_the_total_cmp_hint() {
        let f = findings_in("v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n");
        assert!(f[0].message.contains("total_cmp"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(|| 1);\nlet c = z.expect_err(\"e\");\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn allow_marker_with_justification_suppresses() {
        let src = "// len checked above. analyze:allow(unwrap)\nlet x = v.first().unwrap();\n";
        assert!(findings_in(src).is_empty());
    }
}
