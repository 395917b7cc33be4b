//! Pass 5 — lock-across-handoff lint.
//!
//! The byte-identity contract (DESIGN.md §9/§10) keeps the sharded
//! engine and the training fan-out bit-identical at any worker count by
//! making every job self-contained. A `Mutex`/`RwLock` guard that is
//! still live when work is handed to another thread breaks that twice
//! over: it can deadlock (the receiver blocks on the lock the sender
//! still holds), and it serializes the hot path (every job queues on
//! one guard, so "parallel" becomes a convoy). Rule
//! `lock-across-handoff` flags two shapes:
//!
//! * **guard across handoff** — a binding initialized by `.lock()` /
//!   `.read()` / `.write()` that is still live (same scope, no `drop`)
//!   on a line performing a handoff: `.send(`, `.spawn(`,
//!   `thread::spawn`, or `par::run_indexed`;
//! * **lock inside a fan-out job** — a `.lock(` / `.read(` / `.write(`
//!   call (or a call to a closure that locks) *inside* the body of a
//!   spawned worker or `run_indexed` job, which is how the CFS merit
//!   cache serialized candidate scoring.
//!
//! `.read(`/`.write(` only count in files that mention `RwLock` at all
//! — `io::Read`/`Write` traits use the same method names. Test code is
//! exempt: tests synchronize however they like.

use crate::lexer::Line;
use crate::tree::{TokenTree, FANOUT_HEADERS, HANDOFF_TOKENS};
use crate::Finding;

/// Per-file findings *before* `analyze:allow` filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line], tree: &TokenTree) -> Vec<Finding> {
    let mut findings = Vec::new();
    let has_rwlock = lines.iter().any(|l| l.code.contains("RwLock"));

    // Shape 1: a guard binding live across a handoff line.
    for b in &tree.bindings {
        let Some(how) = guard_kind(&b.init, has_rwlock) else {
            continue;
        };
        for (li, line) in lines
            .iter()
            .enumerate()
            .take(b.live_to + 1)
            .skip(b.line + 1)
        {
            if line.in_test {
                continue;
            }
            if let Some(tok) = HANDOFF_TOKENS.iter().find(|t| line.code.contains(*t)) {
                findings.push(Finding::new(
                    file,
                    li + 1,
                    "lock-across-handoff",
                    format!(
                        "`{}` (a {how} guard taken on line {}) is still live \
                         across `{}`; the receiving thread can block on the \
                         held lock — copy what the handoff needs out of the \
                         guard and drop it first",
                        b.name,
                        b.line + 1,
                        tok.trim_start_matches('.').trim_end_matches('('),
                    ),
                ));
            }
        }
    }

    // Shape 2: locking inside a fan-out job body.
    let locking_closures: Vec<&str> = tree
        .bindings
        .iter()
        .filter(|b| b.init.contains('|') && b.init.contains(".lock("))
        .map(|b| b.name.as_str())
        .collect();
    for (li, line) in lines.iter().enumerate() {
        if line.in_test || !in_fanout_body(tree, li) {
            continue;
        }
        if let Some(how) = lock_call(&line.code, has_rwlock) {
            findings.push(Finding::new(
                file,
                li + 1,
                "lock-across-handoff",
                format!(
                    "`{how}` inside a parallel fan-out job serializes the \
                     workers on one lock; precompute shared values before \
                     the fan-out, or give each worker its own slot and merge \
                     after the join"
                ),
            ));
        } else {
            for name in &locking_closures {
                if contains_ident(&line.code, name) {
                    findings.push(Finding::new(
                        file,
                        li + 1,
                        "lock-across-handoff",
                        format!(
                            "`{name}` locks internally and is used inside a \
                             parallel fan-out job; precompute its values \
                             before the fan-out so jobs stay lock-free"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Is `init` a lock-guard initializer? Returns a description of the
/// guard kind. Trailing `.unwrap()`/`.expect(...)` (poisoned-mutex
/// handling) is peeled first.
fn guard_kind(init: &str, has_rwlock: bool) -> Option<&'static str> {
    let mut t = init.trim_end();
    if let Some(p) = t.rfind(".unwrap()") {
        if p + ".unwrap()".len() == t.len() {
            t = t[..p].trim_end();
        }
    }
    if let Some(p) = t.rfind(".expect(") {
        if t.ends_with(')') {
            t = t[..p].trim_end();
        }
    }
    if t.ends_with(".lock()") {
        return Some("Mutex");
    }
    if has_rwlock && (t.ends_with(".read()") || t.ends_with(".write()")) {
        return Some("RwLock");
    }
    None
}

/// The lock call on this line, if any.
fn lock_call(code: &str, has_rwlock: bool) -> Option<&'static str> {
    if code.contains(".lock(") {
        return Some(".lock()");
    }
    if has_rwlock && code.contains(".read(") {
        return Some(".read()");
    }
    if has_rwlock && code.contains(".write(") {
        return Some(".write()");
    }
    None
}

/// Is 0-based `line` inside the body of a fan-out scope (worker closure
/// or `run_indexed` job)? The header line itself counts: a single-line
/// job body sits there.
fn in_fanout_body(tree: &TokenTree, line: usize) -> bool {
    tree.scopes.iter().any(|s| {
        s.start <= line && line <= s.end && FANOUT_HEADERS.iter().any(|h| s.header.contains(h))
    })
}

/// Identifier match with boundaries on both sides, so a closure named
/// `corr` is found in `merit(&corr)` but not in `class_corr`.
fn contains_ident(code: &str, name: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = code.as_bytes()[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        };
        let end = at + name.len();
        let after_ok = end >= code.len() || {
            let b = code.as_bytes()[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + name.len();
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
    fn guard_live_across_send_is_flagged() {
        let src = "fn f() {\n    let guard = m.lock();\n    tx.send(*guard);\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-across-handoff");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`guard`"));
    }

    #[test]
    fn dropped_guard_is_fine() {
        let src =
            "fn f() {\n    let guard = m.lock();\n    let v = *guard;\n    drop(guard);\n    tx.send(v);\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn narrow_scope_guard_is_fine() {
        let src = "fn f() {\n    let v = { let guard = m.lock(); *guard };\n    tx.send(v);\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn rwlock_guard_across_spawn_is_flagged() {
        let src = "use std::sync::RwLock;\nfn f() {\n    let snap = state.read();\n    scope.spawn(|_| work(&snap));\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("RwLock"));
    }

    #[test]
    fn io_read_without_rwlock_in_file_is_fine() {
        let src = "fn f() {\n    let n = stream.read();\n    tx.send(n);\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn lock_inside_fanout_job_is_flagged() {
        let src = "fn f() {\n    run_indexed(4, cfg, |i| {\n        out.lock()[i] = Some(i);\n    });\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("fan-out"));
    }

    #[test]
    fn locking_closure_called_in_fanout_is_flagged() {
        let src = "fn f() {\n    let corr = |a: usize| -> f64 { cache.lock().get(a) };\n    run_indexed(4, cfg, |i| {\n        merit(corr(i))\n    });\n}\n";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("`corr`"));
    }

    #[test]
    fn lock_outside_fanout_is_fine() {
        let src = "fn f() {\n    let v = *m.lock();\n    use_it(v);\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f() {\n    let guard = m.lock();\n    // single consumer, bounded. analyze:allow(lock-across-handoff)\n    tx.send(*guard);\n}\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let g = m.lock();\n        tx.send(*g);\n    }\n}\n";
        assert!(findings_in(src).is_empty());
    }
}
