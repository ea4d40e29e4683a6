//! Registry + cache integration: fetch/checksum behaviour on
//! temp-dir caches, the uniform load path across provenance classes, and
//! the headline acceptance check — `verify` passes on the vendored
//! surrogate fixtures within the recorded-reference tolerances,
//! bit-identically at any thread count.

// Integration-test helpers sit outside `#[test]` fns, so the
// allow-panic-in-tests carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_datasets::{fetch, load, resolve, verify, Cache, DatasetError, FetchAction, LoadOptions};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch cache root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cpgan-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn cache(&self) -> Cache {
        Cache::resolve(Some(&self.0))
    }

    fn opts(&self) -> LoadOptions {
        LoadOptions {
            data_dir: Some(self.0.clone()),
            ..LoadOptions::default()
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn fetch_copies_fixture_then_reports_cached() {
    let tmp = Scratch::new("fetch");
    let entry = resolve("citeseer-fixture").unwrap();
    let cache = tmp.cache();

    let first = fetch(entry, &cache).unwrap();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].action, FetchAction::CopiedFixture);
    assert!(cache
        .file_path("citeseer-fixture", "citeseer.cites")
        .is_file());
    assert_eq!(cache.scan().unwrap(), vec!["citeseer-fixture".to_string()]);

    let second = fetch(entry, &cache).unwrap();
    assert_eq!(second[0].action, FetchAction::AlreadyCached);
}

#[test]
fn corrupted_cache_file_fails_checksum() {
    let tmp = Scratch::new("corrupt");
    let entry = resolve("citeseer-fixture").unwrap();
    let cache = tmp.cache();
    let dest = cache.file_path("citeseer-fixture", "citeseer.cites");
    fs::create_dir_all(dest.parent().unwrap()).unwrap();
    fs::write(&dest, "0 1\n").unwrap();

    let err = fetch(entry, &cache).unwrap_err();
    match err {
        DatasetError::ChecksumMismatch {
            expected, actual, ..
        } => {
            assert_eq!(expected, cpgan_datasets::registry::CITESEER_FIXTURE_SHA256);
            assert_ne!(expected, actual);
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
}

#[test]
fn missing_remote_files_name_their_cache_path() {
    let tmp = Scratch::new("remote");
    let cache = tmp.cache();

    // Every upstream entry is remote in this build — including citeseer,
    // whose vendored surrogate lives under `citeseer-fixture` instead.
    for name in ["google", "citeseer"] {
        let entry = resolve(name).unwrap();
        let err = fetch(entry, &cache).unwrap_err();
        let DatasetError::ManualDownload { dest, .. } = &err else {
            panic!("{name}: expected a manual-download error, got {err:?}");
        };
        assert!(
            dest.starts_with(&tmp.0.join(name).display().to_string()),
            "{dest}"
        );
        assert!(err.to_string().contains(dest.as_str()), "{err}");
    }
}

#[test]
fn unknown_dataset_is_typed() {
    let err = resolve("not-a-dataset").unwrap_err();
    assert!(
        matches!(err, DatasetError::UnknownDataset { .. }),
        "{err:?}"
    );
}

#[test]
fn load_resolves_file_backed_and_synthetic_uniformly() {
    let tmp = Scratch::new("uniform");
    let opts = tmp.opts();

    let fixture = load(resolve("citeseer-fixture").unwrap(), &opts).unwrap();
    assert_eq!(fixture.graph.n(), 3327);
    assert_eq!(fixture.graph.m(), 4732);
    assert!(fixture.ingest.is_some());
    assert!(fixture.communities.is_none());

    let synth = load(resolve("citeseer-synthetic").unwrap(), &opts).unwrap();
    assert_eq!(synth.graph.n(), 3327);
    assert!(synth.ingest.is_none());
    let labels = synth.communities.expect("stand-ins carry ground truth");
    assert_eq!(labels.len(), synth.graph.n());
}

#[test]
fn vendored_fixtures_verify_within_recorded_tolerances() {
    let tmp = Scratch::new("verify");
    let opts = tmp.opts();
    for name in ["citeseer-fixture", "cora-fixture"] {
        let entry = resolve(name).unwrap();
        let ds = load(entry, &opts).unwrap();
        let report = verify(entry, &ds.graph, cpgan_datasets::DEFAULT_CPL_SOURCES);
        assert!(report.passed(), "{name} failed:\n{}", report.render());
    }
}

#[test]
fn verify_report_is_bit_identical_across_thread_counts() {
    let tmp = Scratch::new("verify-threads");
    let opts = tmp.opts();
    let entry = resolve("citeseer-fixture").unwrap();
    let run = |threads: usize| {
        cpgan_parallel::with_thread_count(threads, || {
            let ds = load(entry, &opts).unwrap();
            verify(entry, &ds.graph, cpgan_datasets::DEFAULT_CPL_SOURCES)
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), base, "diverged at {threads} threads");
    }
}
