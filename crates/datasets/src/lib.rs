//! Dataset subsystem: registry, streaming ingestion, and reference-stat
//! verification.
//!
//! One manifest interface covers three provenance classes — real
//! upstream datasets (files supplied by hand in this network-less
//! build), vendored *synthetic surrogate* fixtures generated in-repo,
//! and the six synthetic Table II stand-ins — with the class recorded on
//! every entry so nothing downstream can present generated data as real:
//!
//! * [`registry`] — one manifest entry per dataset name with an explicit
//!   [`registry::DataProvenance`], SHA-256 checksums for vendored files,
//!   and reference stats (published values for upstream entries,
//!   recorded fixture measurements for surrogates), so `citeseer`,
//!   `citeseer-fixture` and `citeseer-synthetic` resolve uniformly;
//! * [`formats`] — streaming parsers for SNAP edge lists and linqs
//!   `.cites`/`.content` files, layered on the two-pass
//!   `Graph::from_edge_stream` builder so ingestion never materializes an
//!   in-memory edge `Vec`;
//! * [`store`] — the local cache (`$CPGAN_DATA_DIR`), checksum-verified
//!   fetching (vendored surrogate fixtures are copied in; remote files
//!   must be placed by hand), and the uniform [`store::load`] entry point;
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
pub use registry::{
    registry, resolve, DataProvenance, DatasetEntry, ReferenceStats, Source, Tolerances,
};
pub use store::{fetch, load, Cache, FetchAction, FetchOutcome, LoadOptions, LoadedDataset};
pub use verify::{verify, StatCheck, VerifyReport, DEFAULT_CPL_SOURCES};
