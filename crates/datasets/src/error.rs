//! Typed errors for the dataset registry and the ingestion pipeline.

use cpgan_graph::GraphError;
use std::fmt;

/// Everything that can go wrong between a dataset name and a verified graph.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetError {
    /// Filesystem failure, annotated with the path involved.
    Io {
        /// The path the operation touched.
        path: String,
        /// The underlying `io::Error` rendered to text (keeps `Clone`/`PartialEq`).
        message: String,
    },
    /// A line of an input file does not follow its declared format.
    Parse {
        /// The file's path.
        file: String,
        /// 1-based line number.
        line: usize,
        /// What was expected.
        message: String,
    },
    /// The graph builder rejected the edge stream (endpoint out of range,
    /// non-replayable stream).
    Graph(GraphError),
    /// The name matches no registry entry.
    UnknownDataset {
        /// The name as given.
        name: String,
    },
    /// A vendored fixture does not hash to its pinned SHA-256.
    ChecksumMismatch {
        /// Path of the offending file.
        file: String,
        /// Manifest checksum (lowercase hex).
        expected: String,
        /// Computed checksum (lowercase hex).
        actual: String,
    },
    /// An upstream file is missing; this build has no network stack, so
    /// it must be placed by hand.
    ManualDownload {
        /// Canonical source URL.
        url: String,
        /// Where to place the file: `<data-dir>/<name>/<file>`.
        dest: String,
    },
    /// A vendored fixture named by the manifest is missing from the
    /// repository checkout.
    MissingFixture {
        /// The fixture path that was probed.
        path: String,
    },
    /// More than `u32::MAX` distinct node ids in one input set — the
    /// dense id space is exhausted.
    IdSpaceExhausted,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io { path, message } => write!(f, "{path}: {message}"),
            DatasetError::Parse {
                file,
                line,
                message,
            } => write!(f, "{file}:{line}: {message}"),
            DatasetError::Graph(e) => write!(f, "graph construction failed: {e}"),
            DatasetError::UnknownDataset { name } => {
                write!(f, "unknown dataset '{name}' (see `cpgan data list`)")
            }
            DatasetError::ChecksumMismatch {
                file,
                expected,
                actual,
            } => write!(
                f,
                "{file}: SHA-256 mismatch (expected {expected}, got {actual}); \
                 restore the fixture from git or regenerate it with gen_fixtures"
            ),
            DatasetError::ManualDownload { url, dest } => write!(
                f,
                "{dest} is missing and this build has no network stack: \
                 download {url} and place the extracted file there"
            ),
            DatasetError::MissingFixture { path } => {
                write!(f, "vendored fixture missing from checkout: {path}")
            }
            DatasetError::IdSpaceExhausted => write!(
                f,
                "dense node-id space exhausted (more than {} distinct ids)",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<GraphError> for DatasetError {
    fn from(e: GraphError) -> Self {
        DatasetError::Graph(e)
    }
}

impl DatasetError {
    /// Wraps an `io::Error` with the path it occurred on.
    pub fn io(path: impl AsRef<std::path::Path>, e: std::io::Error) -> Self {
        DatasetError::Io {
            path: path.as_ref().display().to_string(),
            message: e.to_string(),
        }
    }
}
