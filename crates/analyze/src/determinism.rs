//! Pass 1 — determinism lint.
//!
//! The paper's pipeline is evaluated end-to-end on *simulated* sessions,
//! so every number in the reproduction must be a pure function of the
//! configured seeds. Iterating a `HashMap` silently breaks that:
//! iteration order varies per process because of `RandomState` hashing
//! (rule `hashmap-iter`). Keyed access is fine; ordered walks need a
//! `BTreeMap` or a sorted key vector. This rule skips `#[cfg(test)]`
//! code: the map-name tracking is file-global and tests legitimately
//! shadow library binding names. Clippy's `iter_over_hash_type` sees
//! only `for` loops, so this pass also catches `.values()`-style walks.
//!
//! Wall-clock reads are clippy's `disallowed_methods` /
//! `disallowed_types` (see the root `clippy.toml`). `crates/bench` is
//! deliberately *not* in [`crate::DETERMINISM_CRATES`]: measuring
//! wall-clock time is its whole job.

use crate::lexer::Line;
use crate::tree::{contains_token, leading_ident, trailing_ident};
use crate::Finding;

/// Methods that iterate a map in storage order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Per-file findings *before* `analyze:allow` filtering (the stale-allow
/// pass compares markers against these).
pub(crate) fn raw_findings(file: &str, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let maps = hashmap_names(lines);
    for (idx, line) in lines.iter().enumerate() {
        // The map-name heuristic is file-global, so a test that reuses a
        // library binding's name for a Vec would false-positive; test
        // code is exempt (an order-dependent test fails loudly anyway).
        for map in maps.iter().filter(|_| !line.in_test) {
            if let Some(how) = iterates(&line.code, map) {
                findings.push(Finding::new(
                    file,
                    idx + 1,
                    "hashmap-iter",
                    format!(
                        "`{map}` is a HashMap and `{how}` walks it in random \
                         RandomState order; use a BTreeMap or sort the keys first"
                    ),
                ));
            }
        }
    }
    findings
}

/// Identifiers declared as `HashMap` in this file: `let`/`let mut`
/// bindings whose line mentions `HashMap`, and struct fields typed
/// `HashMap<...>`.
fn hashmap_names(lines: &[Line]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        let code = &line.code;
        if !code.contains("HashMap") {
            continue;
        }
        if let Some(pos) = code.find("let ") {
            let rest = code[pos + 4..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            if let Some(name) = leading_ident(rest) {
                names.push(name);
                continue;
            }
        }
        // `field_name: HashMap<...>` — struct field or function parameter.
        if let Some(pos) = code.find(": HashMap<") {
            if let Some(name) = trailing_ident(&code[..pos]) {
                names.push(name);
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Does this line iterate `map`? Returns a short description of how.
fn iterates(code: &str, map: &str) -> Option<String> {
    for method in ITER_METHODS {
        let pat = format!("{map}{method}");
        if contains_token(code, &pat) {
            return Some(format!("{map}{method}"));
        }
    }
    // `for x in map`, `for x in &map`, `for x in &mut map`.
    if let Some(pos) = code.find(" in ") {
        let rest = code[pos + 4..].trim_start();
        let rest = rest.strip_prefix("&mut ").unwrap_or(rest);
        let rest = rest.strip_prefix('&').unwrap_or(rest);
        let rest = rest.strip_prefix("self.").unwrap_or(rest);
        if leading_ident(rest).as_deref() == Some(map)
            && !rest[map.len()..].starts_with('.')
            && code.trim_start().starts_with("for ")
        {
            return Some(format!("for _ in {map}"));
        }
    }
    None
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
    fn hashmap_iteration_is_flagged_but_keyed_access_is_not() {
        let src = "let mut m: HashMap<u64, u32> = HashMap::new();\n\
                   for (k, v) in &m {\n}\n\
                   let one = m.get(&3);\n\
                   let all: Vec<_> = m.values().collect();\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "hashmap-iter"));
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 5);
    }

    #[test]
    fn struct_field_hashmaps_are_tracked() {
        let src = "struct S {\n    per_id: HashMap<u64, u32>,\n}\n\
                   fn f(s: S) { for v in s.per_id.values() {} }\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("per_id.values()"));
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "let m: HashMap<u64, u32> = HashMap::new();\n\
                   // summed, order-free. analyze:allow(hashmap-iter)\n\
                   let n: u32 = m.values().sum();\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "let m: HashMap<u64, u32> = HashMap::new();\n\
                   // then m.iter() walks it\nlet s = \"m.values()\";\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn hashmap_rule_skips_test_code_with_shadowed_names() {
        let src = "fn lib() { let m: HashMap<u32, u32> = HashMap::new(); m.get(&1); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let m = vec![1]; for x in m.iter() {} }\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "let m: BTreeMap<u64, u32> = BTreeMap::new();\nfor v in m.values() {}\n";
        assert!(findings_in(src).is_empty());
    }
}
