//! Malformed-input corpus for the streaming parsers: every broken shape a
//! real download can exhibit must surface as a typed [`DatasetError`] —
//! never a panic — and every tolerated shape (blank lines, CRLF,
//! comments) must ingest cleanly.

// Integration-test helpers sit outside `#[test]` fns, so the
// allow-panic-in-tests carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_datasets::{ingest_files, DatasetError, Format};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cpgan-datasets-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str, content: &str) -> PathBuf {
        let path = self.0.join(name);
        fs::write(&path, content).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn default_ingest(path: PathBuf, format: Format) -> Result<cpgan_datasets::Ingested, DatasetError> {
    ingest_files(&[(path, format)])
}

#[test]
fn tolerates_blank_lines_crlf_and_comments() {
    let tmp = Scratch::new("tolerant");
    let path = tmp.file(
        "edges.txt",
        "# SNAP header\r\n\r\n0 1\r\n\n% matrix-market comment\n1\t2\n   \n2 0\r\n",
    );
    let ing = default_ingest(path, Format::SnapEdges).unwrap();
    assert_eq!(ing.graph.n(), 3);
    assert_eq!(ing.graph.m(), 3);
    assert_eq!(ing.stats.raw_edges, 3);
    assert_eq!(ing.stats.self_loops_dropped, 0);
    assert_eq!(ing.stats.duplicates_merged, 0);
}

#[test]
fn merges_duplicates_and_reverse_duplicates() {
    let tmp = Scratch::new("dups");
    // (0,1) three times: forward, repeated, and reversed — one edge.
    let path = tmp.file("edges.txt", "0 1\n0 1\n1 0\n1 2\n");
    let ing = default_ingest(path, Format::SnapEdges).unwrap();
    assert_eq!(ing.graph.m(), 2);
    assert_eq!(ing.stats.raw_edges, 4);
    assert_eq!(ing.stats.duplicates_merged, 2);
}

#[test]
fn drops_and_counts_self_loops() {
    let tmp = Scratch::new("loops");
    let path = tmp.file("edges.txt", "0 0\n0 1\n1 1\n");
    let ing = default_ingest(path, Format::SnapEdges).unwrap();
    assert_eq!(ing.graph.m(), 1);
    assert_eq!(ing.stats.self_loops_dropped, 2);
    // Dropped loops must not be double-counted as merges.
    assert_eq!(ing.stats.duplicates_merged, 0);
    // Self-loop-only ids still intern as (isolated) nodes.
    assert_eq!(ing.graph.n(), 2);
}

#[test]
fn counters_separate_dropped_loops_from_merged_duplicates() {
    let tmp = Scratch::new("loops-and-dups");
    // 5 records: one loop (dropped), (0,1) twice + reversed once (two
    // merges), one distinct edge.
    let path = tmp.file("edges.txt", "0 0\n0 1\n0 1\n1 0\n1 2\n");
    let ing = default_ingest(path, Format::SnapEdges).unwrap();
    assert_eq!(ing.graph.m(), 2);
    assert_eq!(ing.stats.raw_edges, 5);
    assert_eq!(ing.stats.self_loops_dropped, 1);
    assert_eq!(ing.stats.duplicates_merged, 2);
}

#[test]
fn non_numeric_snap_id_reports_file_and_line() {
    let tmp = Scratch::new("non-numeric");
    let path = tmp.file("edges.txt", "0 1\npaper7 3\n");
    let err = default_ingest(path, Format::SnapEdges).unwrap_err();
    match err {
        DatasetError::Parse {
            file,
            line,
            message,
        } => {
            assert!(file.ends_with("edges.txt"), "{file}");
            assert_eq!(line, 2);
            assert!(message.contains("paper7"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn truncated_record_is_a_parse_error() {
    let tmp = Scratch::new("truncated");
    for (format, content) in [
        (Format::SnapEdges, "0 1\n2\n"),
        (Format::LinqsCites, "a b\nlonely\n"),
    ] {
        let path = tmp.file("in.txt", content);
        let err = default_ingest(path, format).unwrap_err();
        assert!(
            matches!(err, DatasetError::Parse { line: 2, .. }),
            "{format:?}: {err:?}"
        );
    }
}

#[test]
fn extra_columns_are_a_parse_error() {
    let tmp = Scratch::new("extra-cols");
    let path = tmp.file("edges.txt", "0 1 7\n");
    let err = default_ingest(path, Format::SnapEdges).unwrap_err();
    assert!(
        matches!(err, DatasetError::Parse { line: 1, .. }),
        "{err:?}"
    );
}

#[test]
fn missing_file_is_a_typed_io_error() {
    let tmp = Scratch::new("missing");
    let path = tmp.0.join("does-not-exist.txt");
    let err = default_ingest(path, Format::SnapEdges).unwrap_err();
    assert!(matches!(err, DatasetError::Io { .. }), "{err:?}");
}

#[test]
fn cites_plus_content_interns_labels_onto_dense_ids() {
    let tmp = Scratch::new("linqs");
    let cites = tmp.file("toy.cites", "paperA paperB\npaperB paperC\n");
    let content = tmp.file(
        "toy.content",
        "paperA 0 1 0 Agents\npaperC 1 0 1 ML\npaperD 0 0 0 DB\n",
    );
    let ing =
        ingest_files(&[(cites, Format::LinqsCites), (content, Format::LinqsContent)]).unwrap();
    // First-appearance interning: A=0, B=1, C=2, then D from .content.
    assert_eq!(ing.graph.n(), 4);
    assert_eq!(ing.graph.m(), 2);
    let labels = ing.labels.as_ref().expect("content file present");
    assert_eq!(labels.len(), 4);
    assert_eq!(labels[0], "Agents");
    assert_eq!(labels[1], ""); // cited but never described
    assert_eq!(labels[2], "ML");
    assert_eq!(labels[3], "DB");
    assert_eq!(ing.interner.get("paperD"), Some(3));
}

#[test]
fn ingestion_is_bit_identical_across_thread_counts() {
    let tmp = Scratch::new("threads");
    let mut content = String::new();
    for i in 0u32..200 {
        content.push_str(&format!("{} {}\n", i, (i * 7 + 1) % 200));
    }
    let path = tmp.file("edges.txt", &content);
    let run = |threads: usize| {
        cpgan_parallel::with_thread_count(threads, || {
            let ing = default_ingest(path.clone(), Format::SnapEdges).unwrap();
            let degs = ing.graph.degrees();
            (
                ing.graph.n(),
                ing.graph.m(),
                degs,
                cpgan_graph::stats::gini::gini_coefficient(&ing.graph.degrees()).to_bits(),
                cpgan_graph::stats::path::characteristic_path_length(&ing.graph, 64).to_bits(),
            )
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), base, "diverged at {threads} threads");
    }
}
