#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cpgan-serve` — a keep-alive, cached, backpressured graph-generation
//! server.
//!
//! A dependency-free (std + workspace crates + the `polling` shim) HTTP/1.1
//! server that turns trained CPGAN snapshots into a long-lived generation
//! service (DESIGN.md §11):
//!
//! * `POST /v1/generate` — body `{"model","nodes","edges","seed"}` (all
//!   optional), answers the generated graph as a plain-text edge list
//!   **byte-identical** to what `cpgan generate` writes for the same
//!   model/seed/size — cached or not,
//! * `GET /v1/models` — the loaded [`ModelRegistry`] with parameter
//!   counts and trained shapes,
//! * `GET /healthz` — liveness plus queue/cache state,
//! * `GET /metrics` — the merged `cpgan-obs` report as JSON.
//!
//! Architecture: a single `poll(2)`-based event-loop thread owns every
//! socket — non-blocking accept, incremental parsing, HTTP/1.1
//! keep-alive with pipelined request draining, idle/slow-header
//! deadlines, and `content-length`-framed writes straight from each
//! shared body. Because generation is a pure function of
//! `(model, snapshot-rev, params, seed)`, a seed-keyed LRU
//! [`cache`](crate) answers repeat requests inline with zero body
//! copies; only cache misses reach the bounded queue
//! ([`queue::Bounded`]), from which each worker of a fixed pool pops one
//! job at a time. Robustness semantics are explicit and typed
//! ([`ServeError`]): malformed requests and shapes over the request
//! bounds ([`MAX_NODES`], [`MAX_EDGES`]) are `400`s, oversized bodies
//! `413`s, a full queue rejects instantly with
//! `429` + `Retry-After`, requests that outlive the per-request deadline
//! are `408`s, the connection limit turns sockets away with `503`, and
//! shutdown stops accepting but answers everything already admitted.
//! Every stage is instrumented with `cpgan-obs` counters/histograms
//! (`serve.cache.hit/miss/evict`, `serve.queue_wait_ns`,
//! `serve.request_latency_ns`, ...).
//!
//! ```no_run
//! use cpgan_serve::{ModelRegistry, ServeConfig, Server};
//!
//! let mut registry = ModelRegistry::new();
//! registry.load_file("model.json").unwrap();
//! let server = Server::start(
//!     ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
//!     registry,
//! )
//! .unwrap();
//! println!("listening on {}", server.addr());
//! server.wait();
//! ```

mod cache;
mod conn;
mod error;
mod event;
pub mod http;
mod protocol;
pub mod queue;
mod registry;
mod server;

pub use cache::{CacheKey, GenCache};
pub use error::ServeError;
pub use protocol::{GenerateRequest, DEFAULT_SEED, MAX_EDGES, MAX_NODES};
pub use registry::ModelRegistry;
pub use server::{error_response, ServeConfig, Server};
