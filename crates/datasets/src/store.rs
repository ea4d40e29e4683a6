//! The uniform load path: [`load`] turns any registry entry — real or
//! synthetic — into a graph, reading each file where it lives. Loading
//! writes nothing to disk.
//!
//! Upstream files are read from `<data-dir>/<name>/`, where the data
//! directory is `--data-dir`, else `$CPGAN_DATA_DIR`, else
//! `./data-cache`. This build has no network stack, so a missing one is
//! a typed [`DatasetError::ManualDownload`] naming its URL and the path
//! to place it at. The vendored `citeseer-fixture`/`cora-fixture`
//! surrogates (synthetic graphs generated in-repo — not linqs data) are
//! read and checksummed in place, which makes tests and CI fully
//! self-contained.

use crate::registry::{DatasetEntry, Source};
use crate::{formats, sha256, DatasetError, Format, IngestStats};
use cpgan_data::datasets;
use cpgan_graph::Graph;
use std::path::{Path, PathBuf};

/// Directory holding the vendored fixtures. Overridable via
/// `$CPGAN_FIXTURES` for relocated checkouts; defaults to this crate's
/// `fixtures/` directory.
fn fixtures_dir() -> PathBuf {
    std::env::var_os("CPGAN_FIXTURES")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
}

/// Where `entry`'s files are read from, in ingestion order:
/// `<data-dir>/<name>/<file>` for upstream entries, the fixtures
/// directory for fixtures, and nothing for synthetic entries.
/// `data_dir` overrides `$CPGAN_DATA_DIR` / `./data-cache`.
pub fn file_paths(entry: &DatasetEntry, data_dir: Option<&Path>) -> Vec<PathBuf> {
    match entry.source {
        Source::Upstream { files, .. } => {
            let dir = data_dir
                .map(Path::to_path_buf)
                .or_else(|| std::env::var_os("CPGAN_DATA_DIR").map(PathBuf::from))
                .unwrap_or_else(|| PathBuf::from("data-cache"))
                .join(&entry.name);
            files.iter().map(|f| dir.join(f.name)).collect()
        }
        Source::Fixture { files } => {
            let dir = fixtures_dir();
            files.iter().map(|f| dir.join(f.file.name)).collect()
        }
        Source::Synthetic { .. } => Vec::new(),
    }
}

fn verify_checksum(path: &Path, expected: &str) -> Result<(), DatasetError> {
    let actual = sha256::hex_digest_file(path)?;
    if actual != expected {
        return Err(DatasetError::ChecksumMismatch {
            file: path.display().to_string(),
            expected: expected.to_string(),
            actual,
        });
    }
    Ok(())
}

/// Options for [`load`].
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Directory holding upstream files (else `$CPGAN_DATA_DIR` /
    /// `./data-cache`).
    pub data_dir: Option<PathBuf>,
    /// Synthetic entries only: size divisor (1 = full scale).
    pub scale: usize,
    /// Synthetic entries only: synthesizer seed.
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            data_dir: None,
            scale: 1,
            seed: 1,
        }
    }
}

/// A loaded dataset, whatever its source.
#[derive(Debug, Clone)]
pub struct LoadedDataset {
    /// Registry name.
    pub name: String,
    /// Paper display name.
    pub title: String,
    /// The graph.
    pub graph: Graph,
    /// Ground-truth community labels (stand-in entries only).
    pub communities: Option<Vec<usize>>,
    /// Class label per node from a `.content` file (file-backed entries only).
    pub node_labels: Option<Vec<String>>,
    /// Ingestion counters (file-backed entries only).
    pub ingest: Option<IngestStats>,
}

/// Loads `entry` into a graph: streaming ingest of its files where they
/// live (fixtures checksummed first), or deterministic synthesis for
/// stand-ins.
pub fn load(entry: &DatasetEntry, opts: &LoadOptions) -> Result<LoadedDataset, DatasetError> {
    let paths = file_paths(entry, opts.data_dir.as_deref());
    let inputs: Vec<(PathBuf, Format)> = match entry.source {
        Source::Upstream { url, files } => {
            if let Some(missing) = paths.iter().find(|p| !p.is_file()) {
                return Err(DatasetError::ManualDownload {
                    url: url.to_string(),
                    dest: missing.display().to_string(),
                });
            }
            paths
                .into_iter()
                .zip(files.iter().map(|f| f.format))
                .collect()
        }
        Source::Fixture { files } => {
            for (path, pinned) in paths.iter().zip(files) {
                if !path.is_file() {
                    return Err(DatasetError::MissingFixture {
                        path: path.display().to_string(),
                    });
                }
                verify_checksum(path, pinned.sha256)?;
            }
            paths
                .into_iter()
                .zip(files.iter().map(|f| f.file.format))
                .collect()
        }
        Source::Synthetic { spec } => {
            let ds = datasets::synthesize(spec, opts.scale.max(1), opts.seed);
            return Ok(LoadedDataset {
                name: entry.name.clone(),
                title: entry.title.clone(),
                graph: ds.graph,
                communities: Some(ds.labels),
                node_labels: None,
                ingest: None,
            });
        }
    };
    let ingested = formats::ingest_files(&inputs)?;
    Ok(LoadedDataset {
        name: entry.name.clone(),
        title: entry.title.clone(),
        graph: ingested.graph,
        communities: None,
        node_labels: ingested.labels,
        ingest: Some(ingested.stats),
    })
}
