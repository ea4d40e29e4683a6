//! Doc-sync: DESIGN.md §16 documents what `CpGan::generate` records in
//! obs, its work counters and its stage spans. Every backticked
//! `core.generate.*` name in the section must be registered by a
//! `generate` run with obs on, and every `core.generate.*` counter or span
//! such a run registers must be named there.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan::{CpGan, CpGanConfig};
use cpgan_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::BTreeSet;

const PREFIX: &str = "core.generate.";

/// DESIGN.md §16 body (from the section header to the next `## `).
fn section_16() -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md must be readable");
    let start = text
        .find("## 16.")
        .expect("DESIGN.md must have a §16 (generation)");
    let body = &text[start..];
    let end = body[6..].find("\n## ").map_or(body.len(), |i| i + 6);
    body[..end].to_string()
}

/// The backticked `core.generate.*` names in §16.
fn documented() -> BTreeSet<String> {
    let s = section_16();
    s.match_indices(&format!("`{PREFIX}"))
        .filter_map(|(i, _)| s[i + 1..].split('`').next())
        .map(str::to_string)
        .collect()
}

/// Two planted communities of 30 nodes, dense inside, one bridge.
fn planted() -> Graph {
    let mut edges = Vec::new();
    for base in [0u32, 30] {
        for a in 0..30 {
            for b in (a + 1)..30 {
                if (a * 7 + b * 3) % 4 == 0 || b == a + 1 {
                    edges.push((base + a, base + b));
                }
            }
        }
    }
    edges.push((0, 31));
    Graph::from_edges(60, edges).unwrap()
}

/// The `core.generate.*` counter names and span path components that one
/// posterior and one prior generation register.
fn registered() -> BTreeSet<String> {
    let g = planted();
    let mut model = CpGan::new(CpGanConfig {
        sample_size: 12,
        epochs: 2,
        seed: 3,
        ..CpGanConfig::default()
    });
    model.fit(&g);
    cpgan_obs::reset();
    cpgan_obs::set_enabled(true);
    model.generate(g.n(), g.m(), &mut StdRng::seed_from_u64(1));
    model.generate(40, 80, &mut StdRng::seed_from_u64(2));
    let jsonl = cpgan_obs::snapshot().to_jsonl();
    cpgan_obs::set_enabled(false);
    let mut names = BTreeSet::new();
    for line in jsonl.lines() {
        let v = serde_json::parse_value(line).unwrap();
        let found: Vec<&str> = match (v.get("t"), v.get("name"), v.get("path")) {
            (Some(Value::Str(t)), Some(Value::Str(name)), _) if t == "counter" => vec![name],
            (Some(Value::Str(t)), _, Some(Value::Str(path))) if t == "span" => {
                path.split('/').collect()
            }
            _ => Vec::new(),
        };
        names.extend(
            found
                .into_iter()
                .filter(|n| n.starts_with(PREFIX))
                .map(str::to_string),
        );
    }
    names
}

#[test]
fn section_16_names_exactly_what_generate_registers() {
    let (documented, registered) = (documented(), registered());
    assert!(
        registered.len() >= 8,
        "4 work counters and 4 stage spans expected: {registered:?}"
    );
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "generate registers {undocumented:?}, which DESIGN.md §16 does not name"
    );
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "DESIGN.md §16 names {unregistered:?}, which no generate run registers"
    );
}
