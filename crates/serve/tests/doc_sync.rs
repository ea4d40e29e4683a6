//! Doc-sync: DESIGN.md §11 documents the serving architecture. If the
//! connection layer, cache, or bench gate changes, the section must move
//! with it — these tests fail on drift, mirroring the §12/§13/§14 suites.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

/// DESIGN.md §11 body (from the section header to the next `## `).
fn section_11() -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md must be readable");
    let start = text
        .find("## 11.")
        .expect("DESIGN.md must have a §11 (serving architecture)");
    let body = &text[start..];
    let end = body[6..].find("\n## ").map(|i| i + 6).unwrap_or(body.len());
    body[..end].to_string()
}

#[test]
fn design_section_documents_the_event_loop() {
    let s = section_11();
    for item in [
        "poll(2)",
        "Reading",
        "Dispatched",
        "Writing",
        "keep-alive",
        "Poller::notify",
        "--max-conns",
        "--idle-ms",
        "slowloris",
    ] {
        assert!(s.contains(item), "DESIGN.md §11 must mention `{item}`");
    }
}

#[test]
fn design_section_documents_the_cache_and_streaming() {
    let s = section_11();
    for item in [
        "GenCache",
        "CacheKey",
        "--cache-mb",
        "LRU",
        "Arc<Vec<u8>>",
        "serve.cache.hit",
        "serve.cache.miss",
        "transfer-encoding: chunked",
        "content-length",
    ] {
        assert!(s.contains(item), "DESIGN.md §11 must mention `{item}`");
    }
}

#[test]
fn design_section_states_the_taxonomy_and_gate() {
    let s = section_11();
    for code in [
        "bad_request",
        "deadline_exceeded",
        "payload_too_large",
        "queue_full",
        "over_capacity",
        "shutting_down",
    ] {
        assert!(s.contains(code), "§11 must keep wire code `{code}`");
    }
    assert!(
        s.contains("BENCH_serve.json"),
        "§11 must name the bench artifact"
    );
    for flag in [
        "--assert-min-rps",
        "--assert-max-p99-ms",
        "--assert-min-cached-over-cold",
    ] {
        assert!(s.contains(flag), "§11 must name the CI gate flag `{flag}`");
    }
}

/// Every `.rs` file under `dir`, concatenated.
fn sources(dir: &std::path::Path) -> String {
    let mut text = String::new();
    for entry in std::fs::read_dir(dir).expect("source dir must be readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            text.push_str(&sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            text.push_str(&std::fs::read_to_string(&path).expect("source must be readable"));
        }
    }
    text
}

#[test]
fn every_serve_name_in_the_section_is_emitted() {
    let s = section_11();
    let src = sources(&std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src"));
    let names: Vec<&str> = s
        .match_indices("`serve.")
        .filter_map(|(i, _)| s[i + 1..].split('`').next())
        .collect();
    assert!(!names.is_empty(), "§11 must name the serve metrics");
    for name in names {
        // `serve.err.*` documents a family: any literal with that prefix.
        let literal = match name.strip_suffix('*') {
            Some(prefix) => format!("\"{prefix}"),
            None => format!("\"{name}\""),
        };
        assert!(
            src.contains(&literal),
            "DESIGN.md §11 names `{name}`, but no string literal under crates/serve/src emits it"
        );
    }
}
