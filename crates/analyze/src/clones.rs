//! Pass 7 — clone-heavy-handoff lint (severity `warn`).
//!
//! The ROADMAP names per-job clone overhead as the prime suspect for
//! the engine's compute-regime scaling tax: cloning a session's chunk
//! vector once per shard handoff or per fan-out job multiplies the
//! allocator traffic by the worker count without changing any output.
//! Rule `clone-heavy-handoff` flags `.clone()` / `.to_vec()` of the
//! workspace's heavy session/chunk types when the call sits inside
//!
//! * a loop whose body hands work to another thread (`.send(`,
//!   `.spawn(`, `run_indexed(`), or
//! * the body of a spawned worker / `run_indexed` job.
//!
//! A value is "heavy" when the line mentions one of the known heavy
//! type names, or when the cloned receiver's binding (or a same-file
//! field/param declaration) carries one. The pass warns rather than
//! denies: a clone is never *wrong*, it is a cost — an
//! `analyze:allow` marker records the ones the code owns deliberately.
//! Test code is exempt.

use crate::lexer::Line;
use crate::tree::{leading_ident, trailing_ident, TokenTree, FANOUT_HEADERS, HANDOFF_TOKENS};
use crate::Finding;

/// Session/chunk-vector types whose clones dominate handoff cost.
const HEAVY_TYPES: &[&str] = &[
    "WeblogEntry",
    "ReassembledSession",
    "SessionObs",
    "SessionAssessment",
    "SessionTrace",
    "SessionGroundTruth",
    "Dataset",
    "ShardOutput",
];

/// Per-file findings *before* `analyze:allow` filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line], tree: &TokenTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    let heavy_names = heavy_idents(lines, tree);
    for (li, line) in lines.iter().enumerate() {
        if line.in_test || !in_handoff_region(tree, lines, li) {
            continue;
        }
        for call in [".clone()", ".to_vec()"] {
            let Some(pos) = line.code.find(call) else {
                continue;
            };
            let heavy_on_line = HEAVY_TYPES.iter().find(|t| line.code.contains(*t));
            let receiver = trailing_ident(&line.code[..pos]);
            let heavy_receiver = receiver
                .as_deref()
                .filter(|r| heavy_names.iter().any(|n| n == r));
            let what = match (heavy_on_line, heavy_receiver) {
                (Some(t), _) => t.to_string(),
                (None, Some(r)) => format!("`{r}`"),
                (None, None) => continue,
            };
            findings.push(Finding::new(
                file,
                li + 1,
                "clone-heavy-handoff",
                format!(
                    "{call} of heavy session data ({what}) inside a \
                     per-job/handoff loop multiplies allocator traffic by \
                     the worker count; move the clone out of the loop, hand \
                     off a borrow or an index, or wrap the data in Arc"
                ),
            ));
        }
    }
    findings
}

/// Identifiers declared with a heavy type anywhere in the file:
/// `let` bindings whose type or initializer mentions one, plus
/// `name: <Heavy>`-shaped fields and parameters.
fn heavy_idents(lines: &[Line], tree: &TokenTree) -> Vec<String> {
    let mut out = Vec::new();
    for b in &tree.bindings {
        if HEAVY_TYPES
            .iter()
            .any(|t| b.ty.contains(t) || b.init.contains(t))
        {
            out.push(b.name.clone());
        }
    }
    for line in lines {
        let code = &line.code;
        for t in HEAVY_TYPES {
            let mut start = 0;
            while let Some(p) = code[start..].find(t) {
                let at = start + p;
                let head = code[..at].trim_end();
                let head =
                    head.trim_end_matches(|c: char| "&mut <[(".contains(c) || c.is_whitespace());
                if let Some(h) = head.strip_suffix(':') {
                    if let Some(name) = trailing_ident(h) {
                        out.push(name);
                    }
                }
                start = at + t.len();
            }
        }
    }
    // Loop variables over a heavy collection are heavy themselves:
    // `for s in sessions` makes `s` heavy when `sessions` is.
    for line in lines {
        let code = line.code.trim_start();
        let Some(rest) = code.strip_prefix("for ") else {
            continue;
        };
        let Some(in_pos) = rest.find(" in ") else {
            continue;
        };
        let var = rest[..in_pos]
            .trim()
            .trim_start_matches(|c: char| "(&".contains(c));
        let Some(var) = leading_ident(var) else {
            continue;
        };
        let source = &rest[in_pos + 4..];
        let source_heavy = HEAVY_TYPES.iter().any(|t| source.contains(t))
            || source
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|tok| !tok.is_empty() && out.iter().any(|n| n == tok));
        if source_heavy {
            out.push(var);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Is 0-based `line` inside a loop that hands off work, or inside a
/// fan-out job body?
fn in_handoff_region(tree: &TokenTree, lines: &[Line], line: usize) -> bool {
    tree.scopes.iter().any(|s| {
        if !(s.start <= line && line <= s.end) {
            return false;
        }
        if FANOUT_HEADERS.iter().any(|h| s.header.contains(h)) {
            return true;
        }
        let header = s.header.trim_start();
        let is_loop = header.starts_with("for ")
            || header.starts_with("while ")
            || header.starts_with("loop");
        is_loop
            && lines[s.start..=s.end.min(lines.len() - 1)]
                .iter()
                .any(|l| HANDOFF_TOKENS.iter().any(|t| l.code.contains(t)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn findings_in(src: &str) -> Vec<Finding> {
        let lines = lex_file(src);
        let tree = TokenTree::build(&lines);
        crate::filter_allows(raw_findings("x.rs", &lines, &tree), &lines)
    }

    #[test]
    fn clone_in_send_loop_is_flagged() {
        let src = "fn f(sessions: &[ReassembledSession]) {\n    for s in sessions {\n        tx.send(s.clone());\n    }\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "clone-heavy-handoff");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn to_vec_in_fanout_is_flagged_via_binding_type() {
        let src = "fn f(entries: &[WeblogEntry]) {\n    run_indexed(4, cfg, |i| {\n        let mine = entries.to_vec();\n        work(i, mine)\n    });\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`entries`"), "{f:?}");
    }

    #[test]
    fn moved_value_is_fine() {
        let src = "fn f(sessions: Vec<ReassembledSession>) {\n    for s in sessions {\n        tx.send(s);\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn clone_outside_the_loop_is_fine() {
        let src = "fn f(template: &ReassembledSession) {\n    let copy = template.clone();\n    for i in 0..3 {\n        tx.send(i);\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn light_clone_in_loop_is_fine() {
        let src =
            "fn f(ids: &[u64]) {\n    for id in ids {\n        tx.send(id.clone());\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn loop_without_handoff_is_fine() {
        let src = "fn f(sessions: &[ReassembledSession]) {\n    for s in sessions {\n        out.push(s.clone());\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f(sessions: &[ReassembledSession]) {\n    for s in sessions {\n        // cold path, bounded by the retry cap. analyze:allow(clone-heavy-handoff)\n        tx.send(s.clone());\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(s: &[SessionTrace]) {\n        for x in s {\n            tx.send(x.clone());\n        }\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }
}
