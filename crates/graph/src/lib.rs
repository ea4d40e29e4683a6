#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Graph substrate for the CPGAN reproduction.
//!
//! Provides the undirected [`Graph`] type used throughout the workspace
//! (compressed sparse row adjacency), graph statistics matching the paper's
//! evaluation metrics (degree distribution, clustering coefficients,
//! characteristic path length, Gini index, power-law exponent), Maximum Mean
//! Discrepancy between statistic distributions, spectral node embeddings, and
//! edge-list I/O.
//!
//! # Example
//!
//! ```
//! use cpgan_graph::{Graph, stats};
//!
//! // A triangle plus a pendant vertex.
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
//! assert_eq!(g.n(), 4);
//! assert_eq!(g.m(), 4);
//! assert_eq!(g.degree(2), 3);
//! let cc = stats::clustering::local_clustering(&g);
//! assert!((cc[0] - 1.0).abs() < 1e-12);
//! ```

mod builder;
mod error;
mod graph;
pub mod io;
pub mod mmd;
pub mod sampling;
pub mod spectral;
pub mod stats;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;

/// Node index type used across the workspace. `u32` keeps adjacency compact
/// (the paper's largest graph has 875k nodes, far below `u32::MAX`).
pub type NodeId = u32;
