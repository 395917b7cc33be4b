//! Stale-allow check: the suppression markers stay honest.
//!
//! `analyze:allow(rule)` markers are the escape hatch for every
//! line-level rule, and escape hatches rot: the flagged code gets
//! refactored away and the suppression stays, silently masking the next
//! real finding on that line. Rule `stale-allow` closes the loop — a
//! marker is **stale** when the rule it names no longer fires (before
//! allow filtering) on any line the marker covers (its own line and the
//! one below).
//!
//! Scope of the staleness check:
//!
//! * only *line-verifiable* rules are checked — markers naming
//!   manifest/workspace-level rules (`const-*`, `workspace-*`) are left
//!   alone, since their liveness is not a property of one line;
//! * markers naming a rule this analyzer has never heard of are always
//!   reported (typos rot fastest), and so are markers naming a retired
//!   rule (`unwrap`, `wall-clock`, `hashmap-iter`,
//!   `lock-across-handoff`, `lib-doc` and the like): clippy or the
//!   compiler gates those now, and `#[expect(...)]` is their escape
//!   hatch;
//! * doc comments (`///`, `//!`) that merely *mention* the marker
//!   syntax are ignored — they document the hatch, they do not open it;
//! * `analyze:allow(stale-allow)` markers are exempt from their own
//!   rule (they are the escape hatch's escape hatch) and can suppress a
//!   stale-marker report on the same line.

use crate::lexer::Line;
use crate::Finding;

/// Run the stale-allow check for one file, given the union of every
/// line-level pass's findings *before* allow filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line], raw: &[Finding]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        if is_doc_comment(&line.comment) {
            continue;
        }
        for rule in parse_markers(&line.comment) {
            if rule == "stale-allow" {
                continue;
            }
            if !crate::is_known_rule(&rule) {
                findings.push(Finding::new(
                    file,
                    li + 1,
                    "stale-allow",
                    format!(
                        "`analyze:allow({rule})` names a rule this analyzer \
                         does not have; fix the typo or delete the marker"
                    ),
                ));
                continue;
            }
            if !crate::is_line_rule(&rule) {
                continue;
            }
            // The marker covers its own line and the next (1-based
            // li+1 and li+2).
            let covered = [li + 1, li + 2];
            let live = raw
                .iter()
                .any(|f| f.rule == rule && covered.contains(&f.line));
            if !live {
                findings.push(Finding::new(
                    file,
                    li + 1,
                    "stale-allow",
                    format!(
                        "`analyze:allow({rule})` no longer suppresses anything \
                         (rule `{rule}` does not fire on this line or the \
                         next); delete the stale marker"
                    ),
                ));
            }
        }
    }
    findings
}

/// Is this the comment text of a doc comment? The lexer strips the
/// leading `//`, so `///` leaves `/…`, `//!` leaves `!…`, and `/** */`
/// leaves `*…`.
fn is_doc_comment(comment: &str) -> bool {
    comment.starts_with('/') || comment.starts_with('!') || comment.starts_with('*')
}

/// Rules named by `analyze:allow(...)` markers in this comment text.
fn parse_markers(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("analyze:allow(") {
        rest = &rest[pos + "analyze:allow(".len()..];
        if let Some(end) = rest.find(')') {
            out.push(rest[..end].trim().to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    /// Run the pass the way the driver does: raw line findings from the
    /// bounded pass feed the staleness check, then allow filtering.
    fn findings_in(src: &str) -> Vec<Finding> {
        let lines = lex_file(src);
        let raw = crate::bounded::raw_findings("x.rs", &lines);
        crate::filter_allows(raw_findings("x.rs", &lines, &raw), &lines)
    }

    #[test]
    fn live_marker_is_fine() {
        let src = "struct S {\n\
                   // a helper evicts. analyze:allow(unbounded-map)\n\
                   open: BTreeMap<u64, u32>,\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn dead_marker_is_flagged() {
        let src = "// analyze:allow(unbounded-map)\nlet x = 42;\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stale-allow");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("unbounded-map"));
    }

    #[test]
    fn unknown_rule_is_flagged() {
        // A typo, and the retired rules that clippy or the compiler
        // carries instead of this analyzer.
        for rule in [
            "no-such-rule",
            "unwrap",
            "expect",
            "panic",
            "wall-clock",
            "raw-wall-clock",
            "thread-rng",
            "hashmap-iter",
            "float-reduce-order",
            "lock-across-handoff",
            "clone-heavy-handoff",
            "lib-doc",
            "missing-docs-attr",
            "forbid-unsafe",
        ] {
            let src = format!("// analyze:allow({rule})\nlet x = v.first().unwrap();\n");
            let f = findings_in(&src);
            assert_eq!(f.len(), 1, "{f:?}");
            assert!(f[0].message.contains("does not have"), "{f:?}");
        }
    }

    #[test]
    fn doc_comment_mentions_are_ignored() {
        let src = "//! Use `analyze:allow(unbounded-map)` markers sparingly.\n/// See analyze:allow(unbounded-map).\nlet x = 1;\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn manifest_level_rules_are_not_staleness_checked() {
        let src = "// analyze:allow(workspace-lints)\nlet x = 1;\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn stale_allow_marker_can_suppress_itself() {
        let src = "// analyze:allow(stale-allow) analyze:allow(unbounded-map)\nlet x = 1;\n";
        assert!(findings_in(src).is_empty());
    }
}
