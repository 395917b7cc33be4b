//! Pass 6 — float-reduction-order lint.
//!
//! Float addition is not associative: summing the same `f64` values in
//! two different orders can differ in the last bits, and those bits are
//! exactly what the byte-identity contract (DESIGN.md §9/§10) promises
//! never change. An accumulation whose *source order* is a `HashMap` /
//! `HashSet` walk is therefore order-nondeterministic twice over — per
//! process (`RandomState`) and per refactor. Rule `float-reduce-order`
//! flags:
//!
//! * a `.sum()` / `.fold(` / `.product(` chain over an unordered
//!   collection when the element type is floating-point;
//! * a `+=` float accumulation inside a `for` loop whose header
//!   iterates an unordered collection.
//!
//! Integer reductions over the same walks are commutative and already
//! covered (and allowed case-by-case) by the `hashmap-iter` rule; this
//! pass carries the float-specific signal so the fix ("sort the keys,
//! or reduce in job-index order") lands where the bits actually rot.
//! Test code is exempt, matching `hashmap-iter`.

use crate::lexer::Line;
use crate::tree::{contains_token, trailing_ident, TokenTree};
use crate::Finding;

/// Reduction chain methods whose result depends on operand order for
/// floats. Matched as `.sum(` or turbofish `.sum::<`.
const REDUCE_METHODS: &[&str] = &[".sum", ".fold", ".product"];

/// The first reduction method invoked (plain or turbofish) in `code`.
fn reduce_method(code: &str) -> Option<&'static str> {
    REDUCE_METHODS.iter().copied().find(|m| {
        code.match_indices(*m).any(|(i, _)| {
            let rest = &code[i + m.len()..];
            rest.starts_with('(') || rest.starts_with("::<")
        })
    })
}

/// Per-file findings *before* `analyze:allow` filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line], tree: &TokenTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    let unordered = unordered_names(lines, tree);
    if unordered.is_empty() {
        return findings;
    }

    for (li, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // Shape 1: reduction chain directly over the unordered walk.
        for (name, floaty) in &unordered {
            if !walks(&line.code, name) {
                continue;
            }
            if let Some(m) = reduce_method(&line.code) {
                if *floaty || float_hint(&line.code) {
                    findings.push(Finding::new(
                        file,
                        li + 1,
                        "float-reduce-order",
                        format!(
                            "float reduction `{}` over `{name}` accumulates in \
                             random RandomState order, so the low bits differ \
                             per process; walk sorted keys (or a BTreeMap) so \
                             the reduction order is fixed",
                            m.trim_start_matches('.')
                        ),
                    ));
                }
            }
        }
    }

    // Shape 2: `for` loop over the unordered walk with a float `+=` in
    // the body.
    for scope in &tree.scopes {
        let header = scope.header.trim_start();
        if !header.starts_with("for ") {
            continue;
        }
        let Some((name, _)) = unordered.iter().find(|(n, _)| walks(&scope.header, n)) else {
            continue;
        };
        for (li, line) in lines
            .iter()
            .enumerate()
            .take(scope.end + 1)
            .skip(scope.start)
        {
            if line.in_test || !line.code.contains("+=") {
                continue;
            }
            let acc_is_float = line
                .code
                .split("+=")
                .next()
                .and_then(trailing_ident)
                .map(|acc| {
                    tree.live_bindings(&acc, li)
                        .iter()
                        .any(|b| float_hint(&b.ty) || float_hint(&b.init))
                })
                .unwrap_or(false);
            if acc_is_float || float_hint(&line.code) {
                findings.push(Finding::new(
                    file,
                    li + 1,
                    "float-reduce-order",
                    format!(
                        "float `+=` accumulation inside a loop over `{name}` \
                         adds in random RandomState order, so the low bits \
                         differ per process; iterate sorted keys (or a \
                         BTreeMap) so the sum order is fixed"
                    ),
                ));
            }
        }
    }
    findings
}

/// Unordered collections visible in this file: `let` bindings, struct
/// fields and parameters typed (or initialized as) `HashMap`/`HashSet`.
/// The flag records whether the declaration itself shows a float
/// element type. Names are collected file-wide, so a name that is
/// *also* declared with an ordered type (`BTreeMap`/`BTreeSet`)
/// somewhere in the file is dropped — the pass cannot tell which
/// declaration a given walk refers to, and a deny rule must not guess.
fn unordered_names(lines: &[Line], tree: &TokenTree) -> Vec<(String, bool)> {
    let mut out: Vec<(String, bool)> = Vec::new();
    let mut ordered: Vec<String> = Vec::new();
    for b in &tree.bindings {
        if b.ty.contains("HashMap") || b.ty.contains("HashSet") {
            out.push((b.name.clone(), float_hint(&b.ty)));
        } else if b.init.contains("HashMap") || b.init.contains("HashSet") {
            out.push((b.name.clone(), float_hint(&b.init)));
        }
        if b.ty.contains("BTreeMap")
            || b.ty.contains("BTreeSet")
            || b.init.contains("BTreeMap")
            || b.init.contains("BTreeSet")
        {
            ordered.push(b.name.clone());
        }
    }
    // `name: HashMap<...>` / `name: &HashMap<...>` — fields and params.
    for line in lines {
        let code = &line.code;
        for (kind, is_ordered) in [
            ("HashMap<", false),
            ("HashSet<", false),
            ("BTreeMap<", true),
            ("BTreeSet<", true),
        ] {
            let mut start = 0;
            while let Some(p) = code[start..].find(kind) {
                let at = start + p;
                let head = code[..at].trim_end();
                let head = head.strip_suffix("&mut").unwrap_or(head).trim_end();
                let head = head.strip_suffix('&').unwrap_or(head).trim_end();
                if let Some(h) = head.strip_suffix(':') {
                    if let Some(name) = trailing_ident(h) {
                        if is_ordered {
                            ordered.push(name);
                        } else {
                            let floaty = float_hint(&code[at..]);
                            out.push((name, floaty));
                        }
                    }
                }
                start = at + kind.len();
            }
        }
    }
    out.retain(|(n, _)| !ordered.contains(n));
    out.sort();
    out.dedup();
    // A name declared floaty anywhere counts as floaty everywhere.
    let floaty: Vec<String> = out
        .iter()
        .filter(|(_, f)| *f)
        .map(|(n, _)| n.clone())
        .collect();
    out.dedup_by(|a, b| a.0 == b.0);
    for entry in &mut out {
        if floaty.contains(&entry.0) {
            entry.1 = true;
        }
    }
    out
}

/// Does `code` walk the elements of `name` (iterator method or `for`
/// header)?
fn walks(code: &str, name: &str) -> bool {
    for m in [
        ".iter()",
        ".keys()",
        ".values()",
        ".into_iter()",
        ".into_values()",
        ".drain(",
    ] {
        if code.contains(&format!("{name}{m}")) {
            return true;
        }
    }
    if let Some(pos) = code.find(" in ") {
        let rest = code[pos + 4..].trim_start();
        let rest = rest.strip_prefix("&mut ").unwrap_or(rest);
        let rest = rest.strip_prefix('&').unwrap_or(rest);
        let rest = rest.strip_prefix("self.").unwrap_or(rest);
        if rest == name
            || (rest.starts_with(name)
                && rest[name.len()..].starts_with(|c: char| " ({".contains(c)))
        {
            return true;
        }
    }
    false
}

/// Does this text show a floating-point element: an `f64`/`f32` token
/// or a float literal?
fn float_hint(s: &str) -> bool {
    if contains_token(s, "f64") || contains_token(s, "f32") {
        return true;
    }
    // A `1.0`-style literal.
    let b = s.as_bytes();
    for i in 1..b.len().saturating_sub(1) {
        if b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit() {
            return true;
        }
    }
    false
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
    fn sum_over_hashmap_values_is_flagged() {
        let src =
            "fn f(scores: &HashMap<u64, f64>) -> f64 {\n    scores.values().sum::<f64>()\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "float-reduce-order");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn float_accumulation_in_for_loop_is_flagged() {
        let src = "fn f(weights: &HashMap<u32, f32>) -> f32 {\n    let mut acc = 0.0f32;\n    for (_k, w) in weights {\n        acc += w;\n    }\n    acc\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn integer_reduction_is_fine() {
        let src =
            "fn f(counts: &HashMap<u64, u64>) -> u64 {\n    counts.values().sum::<u64>()\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn name_shared_with_an_ordered_declaration_is_not_flagged() {
        // `scores` is a HashMap in one function and a BTreeMap in
        // another; the file-global name table cannot tell which one a
        // walk uses, so it must stay silent on both.
        let src = "fn a(scores: &HashMap<u64, f64>) -> usize {\n    scores.len()\n}\nfn b(scores: &BTreeMap<u64, f64>) -> f64 {\n    scores.values().sum::<f64>()\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn btreemap_reduction_is_fine() {
        let src =
            "fn f(scores: &BTreeMap<u64, f64>) -> f64 {\n    scores.values().sum::<f64>()\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn sorted_key_walk_is_fine() {
        let src = "fn f(scores: &HashMap<u64, f64>) -> f64 {\n    let mut keys: Vec<u64> = scores.keys().copied().collect();\n    keys.sort_unstable();\n    keys.iter().map(|k| scores[k]).sum::<f64>()\n}\n";
        // Only the unsorted `.keys()` collect is a walk; it carries no
        // reduction, so nothing fires.
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f(scores: &HashMap<u64, f64>) -> f64 {\n    // merged deterministically downstream. analyze:allow(float-reduce-order)\n    scores.values().sum::<f64>()\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(m: &HashMap<u64, f64>) -> f64 { m.values().sum::<f64>() }\n}\n";
        assert!(findings_in(src).is_empty());
    }
}
