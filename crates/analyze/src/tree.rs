//! A brace/scope-aware token tree on top of the line lexer.
//!
//! The concurrency passes need more than "which tokens are on this
//! line": they ask *is this `MutexGuard` binding still live when the
//! channel send three lines down runs?* and *is this `+=` inside the
//! `for` loop that iterates the `HashMap`?*. Answering that takes two
//! structures the lexer does not provide:
//!
//! * **scopes** — every `{ ... }` region, with the line span it covers
//!   and the *header* text (the code before the opening brace, which is
//!   where `for`, `scope.spawn(`, and `run_indexed(` live);
//! * **bindings** — every `let` statement, with its name, declared
//!   type, full initializer text (collected across lines until the
//!   statement's `;`), and the line range over which the binding is
//!   live (to the end of its scope, or to an explicit `drop(name)`).
//!
//! The representation is deliberately token-level, not a parse tree:
//! the lexer has already blanked strings and comments, so plain brace
//! counting is exact, and the passes stay robust on half-broken code —
//! an unmatched `}` simply closes back to the file scope.

use crate::lexer::Line;

/// One `{ ... }` region (scope 0 is the whole file).
#[derive(Debug, Clone)]
pub struct Scope {
    /// Index of the enclosing scope in [`TokenTree::scopes`]; `None`
    /// only for the file scope.
    pub parent: Option<usize>,
    /// 0-based line of the opening brace (for scope 0: line 0).
    pub start: usize,
    /// 0-based line of the closing brace (inclusive; runs to the last
    /// line for unterminated scopes).
    pub end: usize,
    /// Code text on the opening line *before* the brace — `for s in
    /// sessions`, `scope.spawn(|_|`, `fn assess(&self)` and the like.
    pub header: String,
}

/// One `let` binding.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound identifier (the first pattern identifier after `let`).
    pub name: String,
    /// 0-based declaration line.
    pub line: usize,
    /// Scope the binding lives in (index into [`TokenTree::scopes`]).
    pub scope: usize,
    /// Declared type text (between `:` and `=`), empty when inferred.
    pub ty: String,
    /// Initializer text after `=`, joined across lines up to the
    /// statement's terminating `;` (so multi-line closures and builder
    /// chains are captured whole). Empty for `let x;`.
    pub init: String,
    /// Last 0-based line on which the binding is live: the end of its
    /// scope, or the line of an explicit `drop(name)` if one appears
    /// earlier.
    pub live_to: usize,
}

/// Scopes and bindings of one lexed file.
#[derive(Debug, Clone, Default)]
pub struct TokenTree {
    /// All scopes; index 0 is the file scope.
    pub scopes: Vec<Scope>,
    /// All `let` bindings, in declaration order.
    pub bindings: Vec<Binding>,
}

/// How many lines a multi-line `let` initializer may span before the
/// collector gives up (guards against an unterminated statement eating
/// the rest of the file).
const MAX_INIT_LINES: usize = 200;

/// Tokens that hand work (and anything still borrowed) to another
/// thread.
pub(crate) const HANDOFF_TOKENS: &[&str] = &[".send(", ".spawn(", "thread::spawn", "run_indexed("];

/// Scope headers that make the scope body a parallel job.
pub(crate) const FANOUT_HEADERS: &[&str] = &["run_indexed(", ".spawn(", "thread::spawn"];

impl TokenTree {
    /// Build the tree for a lexed file.
    pub fn build(lines: &[Line]) -> TokenTree {
        let last = lines.len().saturating_sub(1);
        let mut scopes = vec![Scope {
            parent: None,
            start: 0,
            end: last,
            header: String::new(),
        }];
        let mut stack = vec![0usize];
        for (li, line) in lines.iter().enumerate() {
            for (ci, c) in line.code.char_indices() {
                match c {
                    '{' => {
                        let parent = stack.last().copied().unwrap_or(0);
                        scopes.push(Scope {
                            parent: Some(parent),
                            start: li,
                            end: last,
                            header: line.code[..ci].trim().to_string(),
                        });
                        stack.push(scopes.len() - 1);
                    }
                    // Never pop the file scope; stray braces close
                    // back to it and stay there.
                    '}' if stack.len() > 1 => {
                        if let Some(idx) = stack.pop() {
                            scopes[idx].end = li;
                        }
                    }
                    _ => {}
                }
            }
        }
        let bindings = collect_bindings(lines, &scopes);
        TokenTree { scopes, bindings }
    }

    /// Bindings named `name` that are live on 0-based `line` (declared
    /// on or before it, not yet dropped).
    pub fn live_bindings<'a>(&'a self, name: &str, line: usize) -> Vec<&'a Binding> {
        self.bindings
            .iter()
            .filter(|b| b.name == name && b.line <= line && line <= b.live_to)
            .collect()
    }
}

fn collect_bindings(lines: &[Line], scopes: &[Scope]) -> Vec<Binding> {
    let mut out = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        for pos in find_lets(&line.code) {
            let code = &line.code;
            let after_let = code[pos + 4..].trim_start();
            let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let after_let = after_let.trim_start();
            // `let (a, b) = ...` patterns: take the first identifier
            // inside; good enough for liveness heuristics.
            let pat_start = after_let.trim_start_matches(|c: char| "(& ".contains(c));
            let Some(name) = leading_ident(pat_start) else {
                continue;
            };
            // `if let Some(x)` / `while let Ok(v)`: the leading token is
            // an enum variant, not a binding worth tracking.
            if name == "_" || name.starts_with(|c: char| c.is_uppercase()) {
                continue;
            }
            let (ty, init) = split_ty_init(lines, li, &code[pos..]);
            let scope = innermost_scope(scopes, li);
            let mut live_to = scopes[scope].end;
            for (di, dline) in lines.iter().enumerate().skip(li + 1) {
                if di > live_to {
                    break;
                }
                if dline.code.contains(&format!("drop({name})")) {
                    live_to = di;
                    break;
                }
            }
            out.push(Binding {
                name,
                line: li,
                scope,
                ty,
                init,
                live_to,
            });
        }
    }
    out
}

/// Positions of every `let ` keyword (identifier-bounded) in `code`.
fn find_lets(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = code[start..].find("let ") {
        let at = start + p;
        if at == 0 || !is_ident_char(code.as_bytes()[at - 1]) {
            out.push(at);
        }
        start = at + 4;
    }
    out
}

/// Split the text of a `let` statement (starting at the `let` keyword
/// on line `li`) into declared-type and initializer text, joining
/// continuation lines until the terminating `;` at brace depth 0.
fn split_ty_init(lines: &[Line], li: usize, stmt_start: &str) -> (String, String) {
    let mut stmt = String::from(stmt_start);
    let mut depth = 0i64;
    if !stmt_terminated(stmt_start, &mut depth) {
        for cont in lines.iter().skip(li + 1).take(MAX_INIT_LINES) {
            stmt.push(' ');
            stmt.push_str(&cont.code);
            if stmt_terminated(&cont.code, &mut depth) {
                break;
            }
        }
    }
    let eq = find_plain_eq(&stmt);
    match eq {
        Some(e) => {
            let head = &stmt[..e];
            let ty = head
                .find(':')
                .map(|c| head[c + 1..].trim().to_string())
                .unwrap_or_default();
            let init = stmt[e + 1..]
                .trim()
                .trim_end_matches(';')
                .trim()
                .to_string();
            (ty, init)
        }
        None => {
            let head = stmt.trim_end().trim_end_matches(';');
            let ty = head
                .find(':')
                .map(|c| head[c + 1..].trim().to_string())
                .unwrap_or_default();
            (ty, String::new())
        }
    }
}

/// Does this chunk end the statement? Walks the chunk updating the
/// running brace `depth`, so a `;` *inside* a closure body does not
/// terminate the outer statement; reports a `;` seen at depth <= 0.
fn stmt_terminated(code: &str, depth: &mut i64) -> bool {
    let mut d = *depth;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            ';' if d <= 0 => {
                *depth = d;
                return true;
            }
            _ => {}
        }
    }
    *depth = d;
    false
}

/// The first `=` that is neither `==`, `!=`, `<=`, `>=` nor `=>`.
fn find_plain_eq(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'=' {
            continue;
        }
        let prev = if i > 0 { b[i - 1] } else { 0 };
        let next = b.get(i + 1).copied().unwrap_or(0);
        if next == b'=' || prev == b'=' || prev == b'!' || prev == b'<' || prev == b'>' {
            continue;
        }
        if next == b'>' {
            continue;
        }
        return Some(i);
    }
    None
}

fn innermost_scope(scopes: &[Scope], line: usize) -> usize {
    let mut best = 0usize;
    for (i, s) in scopes.iter().enumerate() {
        if s.start <= line && line <= s.end && s.start >= scopes[best].start {
            best = i;
        }
    }
    best
}

/// The identifier `s` starts with, if any.
pub(crate) fn leading_ident(s: &str) -> Option<String> {
    let end = s
        .char_indices()
        .find(|(_, c)| !c.is_alphanumeric() && *c != '_')
        .map_or(s.len(), |(i, _)| i);
    if end == 0 {
        None
    } else {
        Some(s[..end].to_string())
    }
}

/// The identifier `s` ends with (trailing whitespace ignored), if any.
pub(crate) fn trailing_ident(s: &str) -> Option<String> {
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
/// `m.iter()` does not fire on `hm.iter()`.
pub(crate) fn contains_token(code: &str, pat: &str) -> bool {
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

    fn tree_of(src: &str) -> TokenTree {
        TokenTree::build(&lex_file(src))
    }

    #[test]
    fn scopes_nest_and_carry_headers() {
        let src = "fn f() {\n    for s in sessions {\n        g();\n    }\n}\n";
        let t = tree_of(src);
        // File scope + fn body + for body.
        assert_eq!(t.scopes.len(), 3);
        assert!(t.scopes[1].header.contains("fn f"));
        assert_eq!(t.scopes[1].start, 0);
        assert_eq!(t.scopes[1].end, 4);
        assert!(t.scopes[2].header.contains("for s in sessions"));
        assert_eq!((t.scopes[2].start, t.scopes[2].end), (1, 3));
        assert_eq!(t.scopes[2].parent, Some(1));
    }

    #[test]
    fn let_bindings_capture_type_and_init() {
        let src = "fn f() {\n    let guard: MutexGuard<u64> = m.lock();\n    let x = 1;\n}\n";
        let t = tree_of(src);
        assert_eq!(t.bindings.len(), 2);
        assert_eq!(t.bindings[0].name, "guard");
        assert!(t.bindings[0].ty.contains("MutexGuard"));
        assert!(t.bindings[0].init.contains("m.lock()"));
        assert_eq!(t.bindings[0].live_to, 3);
    }

    #[test]
    fn multiline_initializers_are_joined() {
        let src = "fn f() {\n    let h = run(\n        a,\n        |i| { i + 1 },\n    );\n    use_it(h);\n}\n";
        let t = tree_of(src);
        let h = &t.bindings[0];
        assert_eq!(h.name, "h");
        assert!(h.init.contains("run("));
        assert!(h.init.contains("|i| { i + 1 }"));
    }

    #[test]
    fn drop_ends_liveness_early() {
        let src = "fn f() {\n    let guard = m.lock();\n    use_it(&guard);\n    drop(guard);\n    send(x);\n}\n";
        let t = tree_of(src);
        assert_eq!(t.bindings[0].live_to, 3);
        assert!(t.live_bindings("guard", 2).len() == 1);
        assert!(t.live_bindings("guard", 4).is_empty());
    }

    #[test]
    fn single_line_scopes_do_not_leak_liveness() {
        let src = "fn f() {\n    let v = { let guard = m.lock(); *guard };\n    send(v);\n}\n";
        let t = tree_of(src);
        let guard = t
            .bindings
            .iter()
            .find(|b| b.name == "guard")
            .map(|b| b.live_to);
        // The inner scope opens and closes on line 1, so the guard is
        // dead by the send on line 2.
        assert_eq!(guard, Some(1));
    }

    #[test]
    fn stray_close_braces_do_not_underflow() {
        let t = tree_of("}\n}\nfn f() {}\n");
        assert_eq!(t.scopes[0].start, 0);
        assert!(t.scopes.len() >= 2);
    }
}
