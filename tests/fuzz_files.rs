//! Deterministic fuzz loops over the file-facing parsers: dataset
//! ingestion (`formats::ingest_files` on SNAP edge lists, linqs `.cites`
//! and `.content` files) and snapshot loading (`CpGan::load`). Random and
//! mutated valid files must give `Ok` or a typed error, never a panic or
//! an abort. The loops run on the proptest shim, so a failing case
//! reproduces from its index; inputs that once crashed a loader are
//! pinned as fixed cases at the end.

#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan::persist::PersistError;
use cpgan::{CpGan, CpGanConfig};
use cpgan_datasets::{ingest_files, Format};
use cpgan_graph::Graph;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Bytes that steer the line and JSON parsers into their branches more
/// often than uniform bytes would.
const INTERESTING: &[u8] = b"\r\n\t #%0123456789-+.eE{}[],:\"abcnul";

/// A byte: uniform half the time, else one of [`INTERESTING`].
fn byte() -> impl Strategy<Value = u8> {
    (0u16..512).prop_map(|x| match u8::try_from(x) {
        Ok(b) => b,
        Err(_) => INTERESTING[usize::from(x) % INTERESTING.len()],
    })
}

/// Up to eight edits: `(position, kind, byte)`, kind 0 overwrites, 1
/// inserts, 2 deletes, 3 truncates.
fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    vec((0usize..1 << 20, 0u8..4, byte()), 0..8)
}

fn mutate(base: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut out = base.to_vec();
    for &(pos, kind, b) in edits {
        let at = pos % (out.len() + 1);
        match kind {
            0 if at < out.len() => out[at] = b,
            1 => out.insert(at, b),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            _ => {}
        }
    }
    out
}

/// Writes `bytes` to `name` in a per-thread scratch directory.
fn scratch(name: &str, bytes: &[u8]) -> PathBuf {
    let id = format!(
        "cpgan-fuzz-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    );
    let dir = std::env::temp_dir().join(id);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), bytes).unwrap();
    dir.join(name)
}

const SNAP: &str = "# FromNodeId\tToNodeId\n0\t1\n1\t2\n2\t0\n3\t3\n2\t1\n4\t5\n";
const CITES: &str = "paperA paperB\npaperB paperC\npaperC paperA\npaperD paperD\npaperB paperA\n";
const CONTENT: &str = "paperA 0 1 0 Agents\npaperC 1 0 1 ML\npaperE 0 0 0 DB\n";

/// Ingests `files`; an `Ok` result must be a consistent graph.
fn ingest(files: &[(&[u8], Format)]) {
    let paths: Vec<(PathBuf, Format)> = (files.iter().enumerate())
        .map(|(i, &(bytes, f))| (scratch(&format!("{i}.{}", f.name()), bytes), f))
        .collect();
    if let Ok(ing) = ingest_files(&paths) {
        let s = &ing.stats;
        assert_eq!((ing.graph.n(), ing.interner.len()), (s.nodes, s.nodes));
        assert_eq!(
            s.raw_edges,
            ing.graph.m() + s.self_loops_dropped + s.duplicates_merged
        );
        assert!(ing.labels.is_none_or(|l| l.len() == s.nodes));
    }
}

/// A trained tiny model's snapshot text.
fn snapshot() -> &'static [u8] {
    static TEXT: OnceLock<Vec<u8>> = OnceLock::new();
    TEXT.get_or_init(|| {
        let edges = (0..24u32).flat_map(|v| [(v, (v + 1) % 24), (v, (v + 5) % 24)]);
        let cfg = CpGanConfig {
            hidden_dim: 8,
            latent_dim: 4,
            sample_size: 16,
            epochs: 2,
            ..CpGanConfig::tiny()
        };
        let mut model = CpGan::new(cfg);
        model.fit(&Graph::from_edges(24, edges).unwrap());
        let path = scratch("trained.json", b"");
        model.save(&path).unwrap();
        std::fs::read(&path).unwrap()
    })
}

fn load(text: &[u8]) -> Result<CpGan, PersistError> {
    CpGan::load(scratch("snapshot.json", text))
}

/// The valid snapshot with the number after `"field":` replaced by `value`.
fn with_field(field: &str, value: &str) -> Vec<u8> {
    let text = std::str::from_utf8(snapshot()).unwrap();
    let start = text.find(&format!("\"{field}\":")).unwrap() + field.len() + 3;
    let len = text[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}{value}{}", &text[..start], &text[start + len..]).into_bytes()
}

/// Config fields whose values size what the loader builds.
const SIZES: &str =
    "spectral_dim hidden_dim latent_dim levels convs_per_level max_pool_size sample_size";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ingest_survives_random_and_mutated_files(
        noise in vec(byte(), 0..400),
        snap in edits(),
        cites in edits(),
        content in edits(),
    ) {
        for format in [Format::SnapEdges, Format::LinqsCites, Format::LinqsContent] {
            ingest(&[(&noise, format)]);
        }
        ingest(&[(&mutate(SNAP.as_bytes(), &snap), Format::SnapEdges)]);
        let cites = mutate(CITES.as_bytes(), &cites);
        let content = mutate(CONTENT.as_bytes(), &content);
        ingest(&[(&cites, Format::LinqsCites), (&content, Format::LinqsContent)]);
        ingest(&[(&content, Format::LinqsContent), (&cites, Format::LinqsCites)]);
    }

    #[test]
    fn load_survives_random_and_mutated_snapshots(
        noise in vec(byte(), 0..400),
        edits in edits(),
        field in 0usize..7,
        digits in vec(0u8..10, 1..21),
    ) {
        let _ = load(&noise);
        let _ = load(&mutate(snapshot(), &edits));
        let value: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
        let _ = load(&with_field(SIZES.split(' ').nth(field).unwrap(), &value));
    }
}

#[test]
fn valid_files_load() {
    ingest(&[(SNAP.as_bytes(), Format::SnapEdges)]);
    ingest(&[
        (CITES.as_bytes(), Format::LinqsCites),
        (CONTENT.as_bytes(), Format::LinqsContent),
    ]);
    assert!(load(snapshot()).is_ok());
    // Untrained snapshots of every variant and size pass the size check.
    for variant in cpgan_eval::pipelines::ablation::variants() {
        for base in [CpGanConfig::default(), CpGanConfig::tiny()] {
            let snap = CpGan::new(CpGanConfig { variant, ..base }).snapshot();
            assert!(CpGan::from_snapshot(snap).is_ok(), "{variant:?}");
        }
    }
}

#[test]
fn pinned_snapshot_finds_are_typed_errors() {
    // A size field far beyond what the snapshot stores aborted while
    // allocating the model's layers.
    for (field, value) in [
        ("hidden_dim", "100000000"),
        ("spectral_dim", "1000000000000"),
        ("latent_dim", "1000000000000"),
        ("levels", "1000000000000"),
        ("convs_per_level", "1000000000000"),
    ] {
        let err = load(&with_field(field, value)).err().unwrap().to_string();
        assert!(err.contains("config needs at least"), "{field}: {err}");
    }
    // A zero size panicked in `CpGan::new` instead of failing validation.
    let err = load(&with_field("hidden_dim", "0"))
        .err()
        .unwrap()
        .to_string();
    assert!(err.contains("hidden_dim"), "{err}");
    // A matrix whose `rows * cols` overflows `usize` panicked in the
    // deserializer's size check (debug builds).
    let text = std::str::from_utf8(snapshot()).unwrap();
    let start = text.find("\"rows\":").unwrap();
    let end = start + text[start..].find("\"data\":[").unwrap();
    let huge = format!(
        "{}\"rows\":4294967296,\"cols\":4294967297,{}",
        &text[..start],
        &text[end..]
    );
    let err = load(huge.as_bytes()).err().unwrap().to_string();
    assert!(err.contains("does not match"), "{err}");
}
