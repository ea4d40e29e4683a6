#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Community substrate for the CPGAN reproduction.
//!
//! Implements the Louvain community detection algorithm (used by the paper
//! both to obtain ground-truth hierarchical community labels, §III-F2, and to
//! evaluate community preservation, §IV-A), modularity `Q` (paper Eq. 20),
//! and the partition-similarity metrics Rand Index (Eq. 1), Adjusted Rand
//! Index (Eq. 2), Mutual Information (Eq. 3) and NMI.
//!
//! # Example
//!
//! ```
//! use cpgan_graph::Graph;
//! use cpgan_community::{louvain, metrics};
//!
//! // Two triangles joined by a single bridge: Louvain finds 2 communities.
//! let g = Graph::from_edges(6, [(0,1),(1,2),(2,0),(3,4),(4,5),(5,3),(2,3)]).unwrap();
//! let part = louvain::louvain(&g, 42);
//! assert_eq!(part.community_count(), 2);
//! let nmi = metrics::nmi(part.labels(), &[0, 0, 0, 1, 1, 1]);
//! assert!((nmi - 1.0).abs() < 1e-9);
//! ```

pub mod contingency;
pub mod louvain;
pub mod metrics;
pub mod modularity;
pub mod partition;

pub use partition::Partition;
