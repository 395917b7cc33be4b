//! Pass 1 — paper-constant consistency.
//!
//! The headline numbers of the paper appear in many places: the feature
//! builders, the labelling rules, the change detector, crate docs,
//! `DESIGN.md`. They drifted apart once during development ("70
//! features" in the doc, an 8-element stats array in the code), so this
//! pass re-derives each constant from every site that states it and
//! fails when any two disagree:
//!
//! * 70 stall features = `STALL_STATS` × `STALL_METRICS` (§4.1);
//! * 210 representation features = `REP_STATS` × `REP_METRICS` (§4.2);
//! * severe-stall Rebuffering-Ratio threshold 0.1 (§4.1);
//! * CUSUM change-detection threshold 500 (§7);
//! * the class-name lists (stall severity, LD/SD/HD).
//!
//! Rules: `const-missing` (a site's anchor text disappeared — the check
//! itself went stale) and `const-mismatch` (two sites disagree).

use std::fs;
use std::path::Path;

use crate::Finding;

/// How to pull a value out of one file.
enum Extract {
    /// Product of the lengths of two `[&str; N]` const arrays.
    ArrayProduct(&'static str, &'static str),
    /// Number directly after this anchor text.
    NumberAfter(&'static str),
    /// Number directly before this anchor text.
    NumberBefore(&'static str),
    /// Number of string literals in `impl <Enum> { fn names() }`.
    NamesLen(&'static str),
    /// Those literals joined with `" / "`.
    NamesJoined(&'static str),
    /// Slash-separated list between anchor and terminator, re-joined
    /// with `" / "`; `Count` variant reports only its length.
    SlashListAfter(&'static str, &'static str),
    /// Length of the slash-separated list between anchor and terminator.
    SlashCountAfter(&'static str, &'static str),
}

/// One place a constant is stated.
struct Site {
    file: &'static str,
    extract: Extract,
}

/// One constant with all the places that state it.
struct Group {
    what: &'static str,
    sites: &'static [Site],
}

const GROUPS: &[Group] = &[
    Group {
        what: "stall feature count (§4.1, 70)",
        sites: &[
            Site {
                file: "crates/features/src/stall.rs",
                extract: Extract::ArrayProduct("STALL_STATS", "STALL_METRICS"),
            },
            Site {
                file: "crates/features/src/stall.rs",
                extract: Extract::NumberAfter("statistics = "),
            },
            Site {
                file: "crates/features/src/lib.rs",
                extract: Extract::NumberAfter("Table-1 metrics = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberBefore("-feature stall"),
            },
            Site {
                file: "crates/core/src/encrypted.rs",
                extract: Extract::NumberBefore("-dim labelled stall"),
            },
        ],
    },
    Group {
        what: "representation feature count (§4.2, 210)",
        sites: &[
            Site {
                file: "crates/features/src/representation.rs",
                extract: Extract::ArrayProduct("REP_STATS", "REP_METRICS"),
            },
            Site {
                file: "crates/features/src/representation.rs",
                extract: Extract::NumberAfter("statistics = "),
            },
            Site {
                file: "crates/features/src/lib.rs",
                extract: Extract::NumberAfter("throughput*) = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberBefore("-feature representation"),
            },
            Site {
                file: "crates/core/src/encrypted.rs",
                extract: Extract::NumberBefore("-dim labelled representation"),
            },
        ],
    },
    Group {
        what: "severe-stall RR threshold (§4.1, 0.1)",
        sites: &[
            Site {
                file: "crates/features/src/labels.rs",
                extract: Extract::NumberAfter("SEVERE_RR_THRESHOLD: f64 = "),
            },
            Site {
                file: "crates/features/src/labels.rs",
                extract: Extract::NumberAfter("RR is over "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("threshold RR = "),
            },
        ],
    },
    Group {
        what: "CUSUM change threshold (§7, 500)",
        sites: &[
            Site {
                file: "crates/changedet/src/detector.rs",
                extract: Extract::NumberAfter("the paper's \""),
            },
            Site {
                file: "crates/changedet/src/lib.rs",
                extract: Extract::NumberBefore(" in its units"),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("paper threshold: "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("the paper's \""),
            },
        ],
    },
    Group {
        what: "stall class count (no/mild/severe, 3)",
        sites: &[
            Site {
                file: "crates/features/src/labels.rs",
                extract: Extract::NamesLen("StallClass"),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::SlashCountAfter("classes: *", "*"),
            },
        ],
    },
    Group {
        what: "representation class names (LD/SD/HD)",
        sites: &[
            Site {
                file: "crates/features/src/labels.rs",
                extract: Extract::NamesJoined("RqClass"),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::SlashListAfter("representation detection** (3 classes: ", " by"),
            },
        ],
    },
    Group {
        what: "binary weblog format version (§13, 2)",
        sites: &[
            Site {
                file: "crates/telemetry/src/binlog.rs",
                extract: Extract::NumberAfter("BINLOG_VERSION: u16 = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("binlog format version: "),
            },
        ],
    },
    Group {
        what: "tracked per-record overhead (§13, 192 bytes)",
        sites: &[
            Site {
                file: "crates/telemetry/src/weblog.rs",
                extract: Extract::NumberAfter("RECORD_OVERHEAD_BYTES: u64 = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("RECORD_OVERHEAD_BYTES ("),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("bookkeeping constant of\n  "),
            },
        ],
    },
    Group {
        what: "chrome trace-event format version (§14, 1)",
        sites: &[
            Site {
                file: "crates/obs/src/trace.rs",
                extract: Extract::NumberAfter("TRACE_FORMAT_VERSION: u32 = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("trace-event format version: "),
            },
        ],
    },
    Group {
        what: "histogram exemplars kept per bucket (§14, 1)",
        sites: &[
            Site {
                file: "crates/obs/src/registry.rs",
                extract: Extract::NumberAfter("EXEMPLARS_PER_BUCKET: usize = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("exemplar-per-bucket cap: "),
            },
        ],
    },
    Group {
        what: "streaming quantile-sketch compactor capacity (§15, 64)",
        sites: &[
            Site {
                file: "crates/stats/src/sketch.rs",
                extract: Extract::NumberAfter("SKETCH_CAPACITY: usize = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("sketch compactor capacity: "),
            },
        ],
    },
    Group {
        what: "per-session exact-entry cap before spilling (§15, 4096)",
        sites: &[
            Site {
                file: "crates/telemetry/src/reassembly.rs",
                extract: Extract::NumberAfter("EXACT_ENTRY_CAP: usize = "),
            },
            Site {
                file: "DESIGN.md",
                extract: Extract::NumberAfter("exact-entry cap: "),
            },
        ],
    },
];

/// Run the constant-consistency pass over the workspace at `root`.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for group in GROUPS {
        check_group(root, group, &mut findings);
    }
    findings
}

fn check_group(root: &Path, group: &Group, findings: &mut Vec<Finding>) {
    // (file, line, value) per site that resolved.
    let mut resolved: Vec<(&'static str, usize, String)> = Vec::new();
    for site in group.sites {
        let Ok(text) = fs::read_to_string(root.join(site.file)) else {
            findings.push(Finding::new(
                site.file,
                1,
                "const-missing",
                format!("cannot read file while checking {}", group.what),
            ));
            continue;
        };
        match extract(&text, &site.extract) {
            Some((value, offset)) => {
                resolved.push((site.file, line_of(&text, offset), value));
            }
            None => findings.push(Finding::new(
                site.file,
                1,
                "const-missing",
                format!(
                    "anchor for {} not found ({}); the consistency check went stale",
                    group.what,
                    describe(&site.extract)
                ),
            )),
        }
    }
    let Some((ref_file, ref_line, ref_value)) = resolved.first().cloned() else {
        return;
    };
    for (file, line, value) in &resolved[1..] {
        if *value != ref_value {
            findings.push(Finding::new(
                file,
                *line,
                "const-mismatch",
                format!(
                    "{}: this site says {value}, but {ref_file}:{ref_line} says {ref_value}",
                    group.what
                ),
            ));
        }
    }
}

/// Apply one extraction; returns the value plus a byte offset for the
/// diagnostic's line number.
fn extract(text: &str, how: &Extract) -> Option<(String, usize)> {
    match how {
        Extract::ArrayProduct(a, b) => {
            let (la, off) = array_len(text, a)?;
            let (lb, _) = array_len(text, b)?;
            Some(((la * lb).to_string(), off))
        }
        Extract::NumberAfter(anchor) => {
            let pos = text.find(anchor)?;
            let start = pos + anchor.len();
            let value = leading_number(&text[start..])?;
            Some((value, pos))
        }
        Extract::NumberBefore(anchor) => {
            let pos = text.find(anchor)?;
            let value = trailing_number(&text[..pos])?;
            Some((value, pos))
        }
        Extract::NamesLen(enum_name) => {
            let (names, off) = names_literals(text, enum_name)?;
            Some((names.len().to_string(), off))
        }
        Extract::NamesJoined(enum_name) => {
            let (names, off) = names_literals(text, enum_name)?;
            Some((names.join(" / "), off))
        }
        Extract::SlashListAfter(anchor, term) => {
            let (list, off) = slash_list(text, anchor, term)?;
            Some((list.join(" / "), off))
        }
        Extract::SlashCountAfter(anchor, term) => {
            let (list, off) = slash_list(text, anchor, term)?;
            Some((list.len().to_string(), off))
        }
    }
}

fn describe(how: &Extract) -> String {
    match how {
        Extract::ArrayProduct(a, b) => format!("len({a}) × len({b})"),
        Extract::NumberAfter(anchor) => format!("number after {anchor:?}"),
        Extract::NumberBefore(anchor) => format!("number before {anchor:?}"),
        Extract::NamesLen(e) | Extract::NamesJoined(e) => format!("{e}::names() literals"),
        Extract::SlashListAfter(anchor, _) | Extract::SlashCountAfter(anchor, _) => {
            format!("slash-list after {anchor:?}")
        }
    }
}

/// Length of a `NAME: [&str; N]` const array, plus its byte offset.
fn array_len(text: &str, name: &str) -> Option<(u64, usize)> {
    let anchor = format!("{name}: [&str; ");
    let pos = text.find(&anchor)?;
    let n = leading_number(&text[pos + anchor.len()..])?;
    n.parse().ok().map(|n| (n, pos))
}

/// The string literals inside `impl <Enum> { ... fn names() ... }`.
fn names_literals(text: &str, enum_name: &str) -> Option<(Vec<String>, usize)> {
    let impl_pos = text.find(&format!("impl {enum_name} "))?;
    let fn_off = text[impl_pos..].find("fn names(")?;
    let body_start = impl_pos + fn_off;
    // The function closes at the first brace-only line at one indent level.
    let body_end = text[body_start..]
        .find("\n    }")
        .map_or(text.len(), |e| body_start + e);
    let mut names = Vec::new();
    let body = &text[body_start..body_end];
    let mut rest = body;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        names.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    Some((names, body_start))
}

/// The ` / `-separated items between `anchor` and `term`.
fn slash_list(text: &str, anchor: &str, term: &str) -> Option<(Vec<String>, usize)> {
    let pos = text.find(anchor)?;
    let start = pos + anchor.len();
    let end = text[start..].find(term)?;
    let items: Vec<String> = text[start..start + end]
        .split('/')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        None
    } else {
        Some((items, pos))
    }
}

/// A number (`70`, `0.1`) at the start of `s`; a trailing sentence
/// period is not part of the value.
fn leading_number(s: &str) -> Option<String> {
    let end = s
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit() && *c != '.')
        .map_or(s.len(), |(i, _)| i);
    let value = s[..end].trim_end_matches('.');
    if value.is_empty() || !value.bytes().any(|b| b.is_ascii_digit()) {
        None
    } else {
        Some(value.to_string())
    }
}

/// A number at the end of `s`.
fn trailing_number(s: &str) -> Option<String> {
    let start = s
        .char_indices()
        .rev()
        .find(|(_, c)| !c.is_ascii_digit() && *c != '.')
        .map_or(0, |(i, c)| i + c.len_utf8());
    let value = s[start..].trim_start_matches('.');
    if value.is_empty() || !value.bytes().any(|b| b.is_ascii_digit()) {
        None
    } else {
        Some(value.to_string())
    }
}

/// 1-based line of a byte offset.
fn line_of(text: &str, offset: usize) -> usize {
    text[..offset.min(text.len())]
        .bytes()
        .filter(|b| *b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_extraction_handles_sentence_periods() {
        assert_eq!(leading_number("210. The rest"), Some("210".to_string()));
        assert_eq!(leading_number("0.1, the"), Some("0.1".to_string()));
        assert_eq!(leading_number("no digits"), None);
        assert_eq!(trailing_number("equal to 70"), Some("70".to_string()));
    }

    #[test]
    fn array_len_reads_the_declared_size() {
        let src = "pub const STALL_STATS: [&str; 7] = [\n";
        assert_eq!(array_len(src, "STALL_STATS").map(|x| x.0), Some(7));
    }

    #[test]
    fn names_literals_reads_the_vec() {
        let src = "impl RqClass {\n    pub fn names() -> Vec<String> {\n        vec![\"LD\".to_string(), \"SD\".to_string(), \"HD\".to_string()]\n    }\n}\n";
        let (names, _) = names_literals(src, "RqClass").expect("parses");
        assert_eq!(names, vec!["LD", "SD", "HD"]);
    }

    #[test]
    fn slash_lists_are_split_and_trimmed() {
        let (items, _) =
            slash_list("x (3 classes: LD / SD / HD by mean y", "classes: ", " by").expect("parses");
        assert_eq!(items, vec!["LD", "SD", "HD"]);
    }

    #[test]
    fn trace_format_anchors_resolve_on_fixture_text() {
        let src = "pub const TRACE_FORMAT_VERSION: u32 = 1;\n";
        let doc = "(Perfetto; trace-event format version: 1, stamped in otherData)";
        let from_src = extract(src, &Extract::NumberAfter("TRACE_FORMAT_VERSION: u32 = "));
        let from_doc = extract(doc, &Extract::NumberAfter("trace-event format version: "));
        assert_eq!(from_src.map(|x| x.0), Some("1".to_string()));
        assert_eq!(from_doc.map(|x| x.0), Some("1".to_string()));
    }

    #[test]
    fn exemplar_cap_anchors_resolve_on_fixture_text() {
        let src = "pub const EXEMPLARS_PER_BUCKET: usize = 1;\n";
        let doc = "it produced (exemplar-per-bucket cap: 1,\n`EXEMPLARS_PER_BUCKET`).";
        let from_src = extract(src, &Extract::NumberAfter("EXEMPLARS_PER_BUCKET: usize = "));
        let from_doc = extract(doc, &Extract::NumberAfter("exemplar-per-bucket cap: "));
        assert_eq!(from_src.map(|x| x.0), Some("1".to_string()));
        assert_eq!(from_doc.map(|x| x.0), Some("1".to_string()));
    }

    #[test]
    fn live_workspace_constants_are_consistent() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check(&root);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
