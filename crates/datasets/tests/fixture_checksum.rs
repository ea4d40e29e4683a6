//! A vendored fixture whose bytes differ from its pin fails with a typed
//! checksum error, and a missing one names its path. `CPGAN_FIXTURES` is
//! process-wide, so these checks live in a test binary of their own.

// Test-support code sits outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_datasets::registry::CITESEER_FIXTURE_SHA256;
use cpgan_datasets::{load, resolve, DatasetError, LoadOptions};
use std::fs;
use std::path::Path;

#[test]
fn altered_fixture_fails_checksum() {
    // A scratch fixtures directory holding citeseer.cites with one byte
    // changed, and no cora-edges.txt.
    let dir = std::env::temp_dir().join(format!("cpgan-fixtures-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let vendored = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/citeseer.cites");
    let mut bytes = fs::read(vendored).unwrap();
    bytes[0] ^= 1;
    let altered = dir.join("citeseer.cites");
    fs::write(&altered, &bytes).unwrap();
    std::env::set_var("CPGAN_FIXTURES", &dir);

    let opts = LoadOptions::default();
    let err = load(resolve("citeseer-fixture").unwrap(), &opts).unwrap_err();
    match &err {
        DatasetError::ChecksumMismatch {
            file,
            expected,
            actual,
        } => {
            assert_eq!(*file, altered.display().to_string());
            assert_eq!(expected, CITESEER_FIXTURE_SHA256);
            assert_ne!(expected, actual);
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    assert!(err.to_string().contains("gen_fixtures"), "{err}");

    let err = load(resolve("cora-fixture").unwrap(), &opts).unwrap_err();
    let DatasetError::MissingFixture { path } = &err else {
        panic!("expected a missing fixture, got {err:?}");
    };
    assert_eq!(*path, dir.join("cora-edges.txt").display().to_string());
    fs::remove_dir_all(&dir).unwrap();
}
