//! Dataset subsystem: registry, streaming ingestion, and reference-stat
//! verification.
//!
//! One manifest interface covers three kinds of source — real upstream
//! datasets (files placed by hand in this network-less build), vendored
//! *synthetic surrogate* fixtures generated in-repo, and the six synthetic
//! Table II stand-ins — and every entry's [`registry::Source`] says which,
//! so nothing downstream can present generated data as real:
//!
//! * [`registry`](mod@registry) — one manifest entry per dataset name
//!   with its [`registry::Source`] (SHA-256 pins for the vendored files)
//!   and reference stats (published values for upstream entries, recorded
//!   fixture measurements for surrogates), so `citeseer`,
//!   `citeseer-fixture` and `citeseer-synthetic` resolve uniformly;
//! * [`formats`] — streaming parsers for SNAP edge lists and linqs
//!   `.cites`/`.content` files, layered on the two-pass
//!   `Graph::from_edge_stream` builder so ingestion never materializes an
//!   in-memory edge `Vec`;
//! * [`store`] — the uniform [`store::load`] entry point, which reads
//!   each file where it lives (upstream files under `$CPGAN_DATA_DIR`,
//!   fixtures checksummed in place) and writes nothing to disk;
//! * [`verify`] — recomputes n/m/mean-degree/Gini/PWE/CPL and diffs them
//!   against the entry's reference values under per-stat tolerances
//!   (`cpgan data verify`): a real-graph fidelity check for upstream
//!   entries, an ingestion-fidelity gate for the surrogates.
//!
//! See DESIGN.md §15 for formats, the checksum model, and the tolerance
//! table.

pub mod error;
pub mod formats;
pub mod interner;
pub mod registry;
pub mod sha256;
pub mod store;
pub mod verify;

pub use error::DatasetError;
pub use formats::{ingest_files, Format, IngestStats, Ingested};
pub use interner::Interner;
pub use registry::{registry, resolve, DatasetEntry, ReferenceStats, Source, Tolerances};
pub use store::{file_paths, load, LoadOptions, LoadedDataset};
pub use verify::{verify, StatCheck, VerifyReport, DEFAULT_CPL_SOURCES};
