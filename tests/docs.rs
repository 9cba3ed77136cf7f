//! The prose cannot drift from the code: every Rust-looking identifier in
//! an inline code span of `ARCHITECTURE.md` and `README.md` — each segment
//! of an `a::b` path, a `snake_case` name with an underscore, a
//! `CamelCase` name — must name something in the non-comment source
//! under `crates/`, `src/`, `examples/` or `benchmark/src/`, or be the
//! stem of a `.rs` file there. Rename or delete an item and the docs that
//! still describe it fail here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["ARCHITECTURE.md", "README.md"];
const SOURCE_DIRS: [&str; 4] = ["crates", "src", "examples", "benchmark/src"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, build outputs excluded.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `line` without a trailing `//` comment (one outside a string literal).
fn code_part(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            // A `'"'` char literal does not open a string.
            b'\'' if bytes.get(i + 1) == Some(&b'"') && bytes.get(i + 2) == Some(&b'\'') => i += 2,
            b'"' => in_string = !in_string,
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every identifier-shaped word of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The words of the non-comment source, and the `.rs` file stems.
fn source_names() -> (BTreeSet<String>, BTreeSet<String>) {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let (mut names, mut stems) = (BTreeSet::new(), BTreeSet::new());
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        for line in text.lines() {
            names.extend(words(code_part(line)).map(str::to_string));
        }
        stems.insert(file.file_stem().unwrap().to_string_lossy().into_owned());
    }
    (names, stems)
}

/// `snake_case` with at least one underscore.
fn is_snake(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_lowercase())
        && word.contains('_')
        && !word.ends_with('_')
        && word
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// `CamelCase`: a capital, then letters and digits with a lower-case one
/// among them.
fn is_camel(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.chars().all(|c| c.is_ascii_alphanumeric())
        && word.chars().any(|c| c.is_ascii_lowercase())
}

/// The Rust-looking identifiers of one inline code span.
fn span_identifiers(span: &str, out: &mut BTreeSet<String>) {
    for run in span.split(|c: char| !is_ident_char(c) && c != ':') {
        if run.contains("::") {
            let segments = run.split("::").filter(|s| !s.is_empty());
            for segment in segments {
                let keyword = ["crate", "self", "super", "Self"].contains(&segment);
                if !keyword && segment.starts_with(|c: char| c.is_ascii_alphabetic()) {
                    out.insert(segment.to_string());
                }
            }
        } else {
            let word = run.trim_matches(':');
            if is_snake(word) || is_camel(word) {
                out.insert(word.to_string());
            }
        }
    }
}

/// The identifiers of every inline code span of the Markdown `text`
/// (fenced blocks skipped).
fn doc_identifiers(text: &str) -> BTreeSet<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let mut out = BTreeSet::new();
    for span in prose.split('`').skip(1).step_by(2) {
        span_identifiers(span, &mut out);
    }
    out
}

#[test]
fn every_identifier_the_docs_name_is_in_the_source() {
    let (names, stems) = source_names();
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap();
        for ident in doc_identifiers(&text) {
            checked += 1;
            if !names.contains(&ident) && !stems.contains(&ident) {
                stale.push(format!("{doc}: `{ident}`"));
            }
        }
    }
    assert!(
        checked > 200,
        "only {checked} identifiers found in the docs"
    );
    assert!(
        stale.is_empty(),
        "named in the docs but not in the source:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_identifier_rules_pick_paths_snake_and_camel_case() {
    let mut found = BTreeSet::new();
    span_identifiers("Fuser::run(&batch, gold)", &mut found);
    span_identifiers("fuse.graph_reuses", &mut found);
    span_identifiers("GroupedArtifact", &mut found);
    span_identifiers("--no-diagnose report.json KF_SPILL_THRESHOLD", &mut found);
    let found: Vec<_> = found.iter().map(String::as_str).collect();
    assert_eq!(found, ["Fuser", "GroupedArtifact", "graph_reuses", "run"]);
    assert_eq!(
        code_part(r#"let s = "a // b"; // note"#),
        r#"let s = "a // b"; "#
    );
}
