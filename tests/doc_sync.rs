//! Doc-sync for environment variables: every `CPGAN_*` variable the
//! program reads is documented in README.md or DESIGN.md, and every
//! `CPGAN_*` name those docs or the verify skill mention is one the
//! program reads. Adding, renaming or deleting a variable fails here until
//! the docs follow.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Entries of `dir`, sorted so failures list names in a stable order.
fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The non-test part of a source file. Test modules sit at the end of
/// their file, so everything from the first `#[cfg(test)]` line on is
/// test code.
fn non_test(text: &str) -> &str {
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.trim() == "#[cfg(test)]" {
            return &text[..offset];
        }
        offset += line.len();
    }
    text
}

/// `CPGAN_*` names in `text` that directly follow `prefix`: the longest
/// run of upper-case letters, digits and underscores, trailing
/// underscores dropped (so `CPGAN_*` itself is not a name).
fn names_after(text: &str, prefix: &str) -> BTreeSet<String> {
    let pattern = format!("{prefix}CPGAN_");
    text.match_indices(&pattern)
        .filter_map(|(i, _)| {
            let rest = &text[i + prefix.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            let name = rest[..end].trim_end_matches('_');
            (name.len() > "CPGAN".len()).then(|| name.to_string())
        })
        .collect()
}

/// `"CPGAN_*"` string literals in the non-test sources under
/// `crates/*/src`, `src/` and `examples/`.
fn variables_in_code() -> BTreeSet<String> {
    let root = root();
    let mut dirs: Vec<PathBuf> = sorted_entries(&root.join("crates"))
        .into_iter()
        .map(|krate| krate.join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.push(root.join("src"));
    dirs.push(root.join("examples"));
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        names.extend(names_after(non_test(&text), "\""));
    }
    names
}

/// `CPGAN_*` names mentioned in a doc at `rel` (relative to the repo root).
/// A doc that is absent names nothing.
fn variables_in_doc(rel: &str) -> BTreeSet<String> {
    std::fs::read_to_string(root().join(rel))
        .map(|text| names_after(&text, ""))
        .unwrap_or_default()
}

#[test]
fn the_scanner_finds_variables_and_skips_tests() {
    let src =
        "let a = env(\"CPGAN_ONE\");\n// CPGAN_TWO\n#[cfg(test)]\nmod t { \"CPGAN_THREE\" }\n";
    let found = names_after(non_test(src), "\"");
    assert_eq!(found, BTreeSet::from(["CPGAN_ONE".to_string()]));
    assert_eq!(
        names_after("`CPGAN_*` and `CPGAN_X1`.", ""),
        BTreeSet::from(["CPGAN_X1".to_string()])
    );
}

#[test]
fn every_variable_the_code_reads_is_documented() {
    let code = variables_in_code();
    assert!(!code.is_empty(), "the scan must find the CPGAN_* variables");
    let mut documented = variables_in_doc("README.md");
    documented.extend(variables_in_doc("DESIGN.md"));
    let missing: Vec<&String> = code.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "read by the code but named in neither README.md nor DESIGN.md: {missing:?}"
    );
}

#[test]
fn every_documented_variable_is_read_by_the_code() {
    let code = variables_in_code();
    for doc in ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        let stale: Vec<String> = variables_in_doc(doc).difference(&code).cloned().collect();
        assert!(
            stale.is_empty(),
            "{doc} names variables no non-test source reads: {stale:?}"
        );
    }
}
