//! Pass 3 — bounded-collections lint.
//!
//! The online assessor keys long-lived state by subscriber id; on a
//! hostile tap (spoofed or colliding ids, mid-session cuts) any map
//! that only ever grows is a memory-exhaustion bug waiting for traffic.
//! This pass flags struct fields typed `BTreeMap`/`HashMap` in the
//! deterministic crates — the persistent session tables of streaming
//! code — unless the same file's non-test code also *evicts* from the
//! field (rule `unbounded-map`). A call to any of `remove`, `retain`,
//! `clear`, `pop_first`, `pop_last`, or a `mem::take`/`mem::replace` of
//! the field counts as eviction.
//!
//! Local `let` bindings and function parameters are deliberately out of
//! scope: a map that dies with its stack frame cannot leak across
//! entries. The heuristic is line-based, so
//! genuinely bounded designs it cannot see (e.g. eviction hidden behind
//! a helper type) use `// analyze:allow(unbounded-map)` on the field.

use crate::lexer::Line;
use crate::Finding;

/// Method calls on a map that shrink or empty it.
const EVICT_METHODS: &[&str] = &[
    ".remove(",
    ".retain(",
    ".clear(",
    ".pop_first(",
    ".pop_last(",
];

/// Per-file findings *before* `analyze:allow` filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some((name, kind)) = map_field(line) else {
            continue;
        };
        if has_eviction(lines, &name) {
            continue;
        }
        findings.push(Finding::new(
            file,
            idx + 1,
            "unbounded-map",
            format!(
                "struct field `{name}` is a {kind} with no eviction in this \
                 file (`remove`/`retain`/`clear`/`pop_first`/`mem::take`); a \
                 per-key table that only grows leaks on a hostile stream — \
                 bound it, or mark `// analyze:allow(unbounded-map)` if a \
                 helper owns the eviction"
            ),
        ));
    }
    findings
}

/// Is this line a struct-field map declaration? Returns the field name
/// and the map kind. Fields look like `name: HashMap<K, V>,`; `let`
/// bindings and `fn` signatures (parameters, return types) are skipped
/// because their maps do not outlive a call.
fn map_field(line: &Line) -> Option<(String, &'static str)> {
    if line.in_test {
        return None;
    }
    let code = &line.code;
    let kind = if code.contains(": BTreeMap<") {
        "BTreeMap"
    } else if code.contains(": HashMap<") {
        "HashMap"
    } else {
        return None;
    };
    if !code.trim_end().ends_with(',') {
        return None;
    }
    if contains_token(code, "let") || contains_token(code, "fn") {
        return None;
    }
    let pos = code.find(&format!(": {kind}<"))?;
    trailing_ident(&code[..pos]).map(|name| (name, kind))
}

/// Does any non-test line evict from `name`? Matches `name.remove(`,
/// `self.name.retain(` and friends, plus `mem::take`/`mem::replace`
/// lines that mention the field.
fn has_eviction(lines: &[Line], name: &str) -> bool {
    lines.iter().filter(|l| !l.in_test).any(|l| {
        let code = &l.code;
        EVICT_METHODS
            .iter()
            .any(|m| contains_token(code, &format!("{name}{m}")))
            || ((code.contains("mem::take") || code.contains("mem::replace"))
                && contains_token(code, name))
    })
}

/// The identifier `s` ends with (trailing whitespace ignored), if any.
fn trailing_ident(s: &str) -> Option<String> {
    let trimmed = s.trim_end();
    let start = trimmed
        .char_indices()
        .rev()
        .find(|(_, c)| !c.is_alphanumeric() && *c != '_')
        .map_or(0, |(i, c)| i + c.len_utf8());
    if start == trimmed.len() {
        None
    } else {
        Some(trimmed[start..].to_string())
    }
}

/// Substring match with identifier boundaries on both sides, so
/// `open.remove(` does not fire on `reopen.remove(`.
fn contains_token(code: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1]);
        let end = at + pat.len();
        let after_ok = end >= code.len() || !is_ident_char(code.as_bytes()[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + pat.len();
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
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
    fn growing_session_table_is_flagged() {
        let src = "struct S {\n    open: BTreeMap<u64, u32>,\n}\n\
                   impl S { fn push(&mut self) { self.open.insert(1, 2); } }\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unbounded-map");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`open`"));
    }

    #[test]
    fn eviction_in_the_same_file_clears_the_field() {
        for evict in [
            "self.open.remove(&1);",
            "self.open.retain(|_, v| *v > 0);",
            "self.open.clear();",
            "self.open.pop_first();",
            "let m = std::mem::take(&mut self.open);",
        ] {
            let src = format!(
                "struct S {{\n    open: HashMap<u64, u32>,\n}}\n\
                 impl S {{ fn f(&mut self) {{ {evict} }} }}\n"
            );
            assert!(findings_in(&src).is_empty(), "{evict} should count");
        }
    }

    #[test]
    fn let_bindings_and_fn_params_are_out_of_scope() {
        let src = "fn f(by_id: HashMap<u64, u32>,\n     n: u32) {\n\
                   let local: BTreeMap<u64, u32> = BTreeMap::new();\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "struct S {\n    // analyze:allow(unbounded-map)\n\
                   open: BTreeMap<u64, u32>,\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn eviction_on_a_different_field_does_not_count() {
        let src = "struct S {\n    open: BTreeMap<u64, u32>,\n    done: BTreeMap<u64, u32>,\n}\n\
                   impl S { fn f(&mut self) { self.done.remove(&1); } }\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`open`"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    struct Fixture {\n        \
                   seen: HashMap<u64, u32>,\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }
}
