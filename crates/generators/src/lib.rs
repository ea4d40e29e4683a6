#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Traditional graph generators (paper §II-B1, Tables III/IV/VII baselines).
//!
//! Every model follows the same two-phase API: `fit` learns parameters from
//! an observed graph, `generate` draws a new graph from the fitted model.
//! The [`GraphGenerator`] trait gives the evaluation harness a uniform view.
//!
//! # Example
//!
//! ```
//! use cpgan_graph::Graph;
//! use cpgan_generators::{er::ErdosRenyi, GraphGenerator};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let observed = Graph::from_edges(50, (0..49u32).map(|i| (i, i + 1))).unwrap();
//! let model = ErdosRenyi::fit(&observed);
//! let mut rng = StdRng::seed_from_u64(7);
//! let generated = model.generate(&mut rng);
//! assert_eq!(generated.n(), 50);
//! ```

pub mod ba;
pub mod bter;
pub mod chung_lu;
pub mod dcsbm;
pub mod er;
pub mod kronecker;
pub mod mmsb;
pub mod sbm;
mod traits;

pub use traits::GraphGenerator;
