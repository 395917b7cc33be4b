//! A line-level Rust lexer: just enough token awareness to lint.
//!
//! Full parsing is neither needed nor wanted here (the analyzer must
//! stay dependency-free and robust to half-broken code). What the lint
//! passes actually require is:
//!
//! * **code vs. comment vs. string** — a rule must not fire on the word
//!   `BTreeMap` inside a doc comment or a string literal;
//! * **test regions** — most passes exempt `#[cfg(test)]` items;
//! * **escape hatches** — `// analyze:allow(<rule>)` on a line (or the
//!   line above) suppresses that rule there.
//!
//! [`lex_file`] delivers exactly that: per physical line, the code text
//! with comments and string *contents* blanked out (string delimiters
//! are kept so the shape of the line survives), the comment text, the
//! set of allowed rules, and whether the line sits in a test region.

/// One physical source line, classified.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments removed and string contents blanked.
    pub code: String,
    /// Concatenated comment text of the line.
    pub comment: String,
    /// Rules suppressed on this line via `analyze:allow(...)` markers
    /// (on this line or the previous one).
    pub allows: Vec<String>,
    /// True when the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Lex `source` into classified lines. Never fails: unterminated
/// constructs simply run to end of file, which is the forgiving
/// behaviour a linter wants on work-in-progress code.
pub fn lex_file(source: &str) -> Vec<Line> {
    let mut lines = lex_lines(source);
    mark_test_regions(&mut lines);
    attach_allows(&mut lines);
    lines
}

fn lex_lines(source: &str) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Normal;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            out.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                allows: Vec::new(),
                in_test: false,
            });
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if is_raw_string_start(&chars, i) {
                    // r"..."  r#"..."#  br##"..."## — skip the prefix,
                    // remember the hash count.
                    let mut j = i;
                    while chars[j] != '#' && chars[j] != '"' {
                        code.push(chars[j]);
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    code.push('"');
                    state = State::RawStr(hashes);
                    i = j + 1;
                } else if c == '\'' && is_char_literal(&chars, i) {
                    // Skip the whole character literal; keep quotes.
                    code.push('\'');
                    i += 1;
                    if chars.get(i) == Some(&'\\') {
                        i += 2; // escape plus escaped char
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                    if chars.get(i) == Some(&'\'') {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && next == Some('\n') {
                    // String continuation: a `\` immediately before the
                    // line break. Consume only the backslash so the
                    // top-of-loop newline handling still emits the
                    // physical line — otherwise every later line number
                    // in the file would drift by one.
                    i += 1;
                } else if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    code.push('"');
                    state = State::Normal;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        out.push(Line {
            code,
            comment,
            allows: Vec::new(),
            in_test: false,
        });
    }
    out
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // r" r#" br" b" is NOT raw; only r/br prefixes introduce raw strings.
    let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    if prev_is_ident {
        return false;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

fn is_char_literal(chars: &[char], i: usize) -> bool {
    // 'a' or '\n' — but not the lifetime in `&'a str` or `<'a>`.
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Mark every line inside a `#[cfg(test)]` item as test code by brace
/// matching from the attribute forward.
fn mark_test_regions(lines: &mut [Line]) {
    let mut li = 0usize;
    while li < lines.len() {
        if let Some(attr_col) = lines[li].code.find("#[cfg(test)]") {
            let start_line = li;
            let mut depth = 0i64;
            let mut seen_brace = false;
            let mut col = attr_col;
            'outer: while li < lines.len() {
                let code: Vec<char> = lines[li].code.chars().collect();
                while col < code.len() {
                    match code[col] {
                        '{' => {
                            depth += 1;
                            seen_brace = true;
                        }
                        '}' => {
                            depth -= 1;
                            if seen_brace && depth == 0 {
                                break 'outer;
                            }
                        }
                        ';' if !seen_brace => break 'outer, // e.g. `#[cfg(test)] use ...;`
                        _ => {}
                    }
                    col += 1;
                }
                li += 1;
                col = 0;
            }
            let end_line = li.min(lines.len() - 1);
            for line in &mut lines[start_line..=end_line] {
                line.in_test = true;
            }
        }
        li += 1;
    }
}

/// Collect `analyze:allow(rule)` markers; a marker covers its own line
/// and the line directly below (so it can sit above the flagged code).
fn attach_allows(lines: &mut [Line]) {
    let markers: Vec<Vec<String>> = lines.iter().map(|l| parse_allows(&l.comment)).collect();
    for (i, line) in lines.iter_mut().enumerate() {
        let mut allows = markers[i].clone();
        if i > 0 {
            allows.extend(markers[i - 1].iter().cloned());
        }
        line.allows = allows;
    }
}

fn parse_allows(comment: &str) -> Vec<String> {
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

    #[test]
    fn comments_and_strings_are_stripped_from_code() {
        let src = "let x = \"unwrap()\"; // calls unwrap()\nlet y = 1; /* unwrap() */ let z = 2;\n";
        let lines = lex_file(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("unwrap"));
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[1].code.contains("let z"));
    }

    #[test]
    fn raw_strings_and_char_literals_are_opaque() {
        let src =
            "let p = r#\"a \"quoted\" unwrap()\"#;\nlet c = '\\'';\nlet l: &'static str = \"x\";\n";
        let lines = lex_file(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[1].code.contains("let c"));
        assert!(lines[2].code.contains("'static"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines = lex_file(src);
        let flags: Vec<bool> = lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn allow_markers_cover_self_and_next_line() {
        let src = "// analyze:allow(wall-clock)\nlet t = now();\nlet u = now();\n";
        let lines = lex_file(src);
        assert!(lines[0].allows.iter().any(|a| a == "wall-clock"));
        assert!(lines[1].allows.iter().any(|a| a == "wall-clock"));
        assert!(lines[2].allows.is_empty());
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let lines = lex_file(src);
        assert!(lines[0].code.contains("let x"));
        assert!(!lines[0].code.contains("outer"));
    }
}
