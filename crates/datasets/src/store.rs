//! Local dataset cache, fetching, and the uniform load path.
//!
//! The cache directory is `$CPGAN_DATA_DIR` (falling back to
//! `./data-cache`), one subdirectory per dataset. `fetch` places files
//! there and verifies checksums; `load` is the single entry point that
//! turns any registry entry — real or synthetic — into a graph.
//!
//! This build has no network stack, so remote files are never downloaded:
//! a missing one is a typed [`DatasetError::ManualDownload`] naming its
//! source and where in the cache to put it. The vendored
//! `citeseer-fixture`/`cora-fixture` surrogates (synthetic graphs
//! generated in-repo — not linqs data) make tests and CI fully
//! self-contained; the real upstream entries require manually downloaded
//! files.

use crate::registry::{DatasetEntry, Provenance, Source};
use crate::{formats, sha256, DatasetError, IngestStats};
use cpgan_data::datasets;
use cpgan_graph::Graph;
use std::path::{Path, PathBuf};

/// The on-disk dataset cache.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
}

impl Cache {
    /// Resolves the cache root: `explicit` > `$CPGAN_DATA_DIR` >
    /// `./data-cache`.
    pub fn resolve(explicit: Option<&Path>) -> Cache {
        let root = explicit.map(Path::to_path_buf).unwrap_or_else(|| {
            std::env::var_os("CPGAN_DATA_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("data-cache"))
        });
        Cache { root }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where `file` of `dataset` lives inside the cache.
    pub fn file_path(&self, dataset: &str, file: &str) -> PathBuf {
        self.root.join(dataset).join(file)
    }

    /// Dataset subdirectories currently present, sorted (scanning a
    /// directory without sorting is exactly what the `unsorted-dir-walk`
    /// lint forbids).
    pub fn scan(&self) -> Result<Vec<String>, DatasetError> {
        if !self.root.is_dir() {
            return Ok(Vec::new());
        }
        let rd = std::fs::read_dir(&self.root).map_err(|e| DatasetError::io(&self.root, e))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| DatasetError::io(&self.root, e))?;
            let path = entry.path();
            if path.is_dir() {
                if let Some(name) = path.file_name().and_then(|s| s.to_str()) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// What `fetch` did for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchAction {
    /// Present in the cache with a matching checksum.
    AlreadyCached,
    /// Copied from the vendored fixture set and checksum-verified.
    CopiedFixture,
}

/// Per-file fetch report.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// File name inside the dataset cache dir.
    pub file: String,
    /// What happened.
    pub action: FetchAction,
}

/// Directory holding the vendored fixtures. Overridable via
/// `$CPGAN_FIXTURES` for relocated checkouts; defaults to this crate's
/// `fixtures/` directory.
fn fixtures_dir() -> PathBuf {
    std::env::var_os("CPGAN_FIXTURES")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
}

/// Ensures every file of `entry` is present in `cache` with a verified
/// checksum. Synthetic entries need no files and return an empty list.
pub fn fetch(entry: &DatasetEntry, cache: &Cache) -> Result<Vec<FetchOutcome>, DatasetError> {
    let Source::Files { files } = &entry.source else {
        return Ok(Vec::new());
    };
    let mut outcomes = Vec::with_capacity(files.len());
    for file in files {
        let dest = cache.file_path(&entry.name, file.name);
        let action = if dest.is_file() {
            verify_checksum(&dest, file.sha256)?;
            FetchAction::AlreadyCached
        } else {
            match file.provenance {
                Provenance::Vendored(fixture) => {
                    let src = fixtures_dir().join(fixture);
                    if !src.is_file() {
                        return Err(DatasetError::MissingFixture {
                            path: src.display().to_string(),
                        });
                    }
                    if let Some(parent) = dest.parent() {
                        std::fs::create_dir_all(parent).map_err(|e| DatasetError::io(parent, e))?;
                    }
                    std::fs::copy(&src, &dest).map_err(|e| DatasetError::io(&dest, e))?;
                    verify_checksum(&dest, file.sha256)?;
                    FetchAction::CopiedFixture
                }
                Provenance::Remote(url) => {
                    return Err(DatasetError::ManualDownload {
                        url: url.to_string(),
                        dest: dest.display().to_string(),
                    });
                }
            }
        };
        outcomes.push(FetchOutcome {
            file: file.name.to_string(),
            action,
        });
    }
    Ok(outcomes)
}

fn verify_checksum(path: &Path, expected: Option<&str>) -> Result<(), DatasetError> {
    let Some(expected) = expected else {
        return Ok(()); // remote file with unknown digest: stats still gate it
    };
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
    /// Cache root override (else `$CPGAN_DATA_DIR` / `./data-cache`).
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

/// Loads `entry` into a graph: fetch + checksum + streaming ingest for
/// file-backed datasets (upstream or surrogate), deterministic synthesis
/// for stand-ins.
pub fn load(entry: &DatasetEntry, opts: &LoadOptions) -> Result<LoadedDataset, DatasetError> {
    match &entry.source {
        Source::Files { files } => {
            let cache = Cache::resolve(opts.data_dir.as_deref());
            fetch(entry, &cache)?;
            let paths: Vec<(PathBuf, crate::Format)> = files
                .iter()
                .map(|f| (cache.file_path(&entry.name, f.name), f.format))
                .collect();
            let ingested = formats::ingest_files(&paths)?;
            Ok(LoadedDataset {
                name: entry.name.clone(),
                title: entry.title.clone(),
                graph: ingested.graph,
                communities: None,
                node_labels: ingested.labels,
                ingest: Some(ingested.stats),
            })
        }
        Source::Synthetic { spec } => {
            let ds = datasets::synthesize(spec, opts.scale.max(1), opts.seed);
            Ok(LoadedDataset {
                name: entry.name.clone(),
                title: entry.title.clone(),
                graph: ds.graph,
                communities: Some(ds.labels),
                node_labels: None,
                ingest: None,
            })
        }
    }
}
