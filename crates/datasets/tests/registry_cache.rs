//! Registry + load-path integration: every entry loads from where its
//! files live and writes nothing, a missing upstream file names where to
//! place it, the load path is uniform across kinds of source, and the
//! headline acceptance check — `verify` passes on the vendored surrogate
//! fixtures within the recorded-reference tolerances, bit-identically at
//! any thread count. (An altered fixture is tested in
//! `fixture_checksum.rs`, which sets the process-wide `CPGAN_FIXTURES`.)

// Integration-test helpers sit outside `#[test]` fns, so the
// allow-panic-in-tests carve-out does not reach them.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_datasets::{load, resolve, verify, DatasetError, LoadOptions};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch data directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cpgan-data-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
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
fn loading_leaves_the_data_dir_empty() {
    let tmp = Scratch::new("no-write");
    for name in ["citeseer-fixture", "cora-fixture", "citeseer-synthetic"] {
        load(resolve(name).unwrap(), &tmp.opts()).unwrap();
    }
    let left: Vec<_> = fs::read_dir(&tmp.0).unwrap().collect();
    assert!(left.is_empty(), "loading wrote {left:?}");
}

#[test]
fn missing_remote_files_name_their_cache_path() {
    let tmp = Scratch::new("remote");

    // Every upstream entry is placed by hand — including citeseer, whose
    // vendored surrogate lives under `citeseer-fixture` instead.
    for (name, file) in [("google", "web-Google.txt"), ("citeseer", "citeseer.cites")] {
        let entry = resolve(name).unwrap();
        let err = load(entry, &tmp.opts()).unwrap_err();
        let DatasetError::ManualDownload { dest, .. } = &err else {
            panic!("{name}: expected a manual-download error, got {err:?}");
        };
        assert_eq!(*dest, tmp.0.join(name).join(file).display().to_string());
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
    let opts = LoadOptions::default();

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
    let opts = LoadOptions::default();
    for name in ["citeseer-fixture", "cora-fixture"] {
        let entry = resolve(name).unwrap();
        let ds = load(entry, &opts).unwrap();
        let report = verify(entry, &ds.graph, cpgan_datasets::DEFAULT_CPL_SOURCES);
        assert!(report.passed, "{name} failed:\n{}", report.render());
    }
}

#[test]
fn verify_report_is_bit_identical_across_thread_counts() {
    let opts = LoadOptions::default();
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
