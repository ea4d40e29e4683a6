#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deep-learning substrate for the CPGAN reproduction.
//!
//! The paper's models are built on PyTorch + CUDA; this crate replaces that
//! stack with a self-contained CPU implementation:
//!
//! * [`Matrix`] — dense row-major `f32` tensors with allocation accounting
//!   ([`memory`]),
//! * [`kernels`] — cache-blocked, register-tiled dense matmul microkernels,
//! * [`sparse::Csr`] — sparse graph operators for `O(m + n)` convolutions,
//! * [`tape::Tape`] / [`tape::Var`] — reverse-mode automatic differentiation,
//! * [`layers`] — `Linear`, `Mlp`, `GcnConv` (Eq. 6), `GruCell` (Eq. 13),
//!   `PairNorm` (§III-C2),
//! * [`optim`] — Adam with the paper's step-decay schedule,
//! * [`loss`] — GAN and VAE losses (Eq. 16–19),
//! * [`memory`] — peak tensor-memory tracking standing in for the paper's
//!   "peak GPU memory" measurements (Table IX).
//!
//! # Example: fitting a tiny network
//!
//! ```
//! use cpgan_nn::{layers::{Mlp, Activation}, optim::{Adam, Optimizer}, ParamStore, Tape, Matrix};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&mut store, &mut rng, &[2, 8, 1], Activation::Tanh);
//! let x = Matrix::from_vec(4, 2, vec![0.,0., 0.,1., 1.,0., 1.,1.]);
//! let y = Arc::new(Matrix::from_vec(4, 1, vec![0., 1., 1., 0.])); // XOR
//! let mut opt = Adam::with_lr(0.05);
//! let mut loss_val = f32::INFINITY;
//! for _ in 0..800 {
//!     let tape = Tape::new();
//!     let input = tape.constant(x.clone());
//!     let pred = mlp.forward(&tape, &input).sigmoid();
//!     let loss = pred.mse_mean(&y);
//!     loss_val = loss.item();
//!     loss.backward();
//!     opt.step(&store);
//! }
//! assert!(loss_val < 0.05, "XOR not learned: {loss_val}");
//! ```

pub mod error;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
mod matrix;
pub mod memory;
pub mod optim;
mod params;
pub mod sparse;
pub mod tape;

pub use error::{NnError, ShapeError};
pub use kernels::FusedAct;
pub use matrix::Matrix;
pub use params::{Param, ParamData, ParamStore};
pub use sparse::{BlockDiagCsr, Csr};
pub use tape::{Tape, Var};
