#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Evaluation harness reproducing every table and figure of the paper's
//! experimental section (§IV).
//!
//! * [`registry`] — a uniform interface over all 15 generators (8
//!   traditional, 6 learning-based, CPGAN + its ablation variants),
//! * [`budget`] — the 24 GB GPU memory model that reproduces the paper's
//!   "OOM" rows at full dataset scale,
//! * [`pipelines`] — one module per experiment (Tables III–IX, Figures 5–6)
//!   and the one measurement path they share: a [`pipelines::Cell`] per
//!   (model, graph), one admission rule, one pooled per-seed runner,
//! * [`report`] — paper-vs-measured table rendering.

pub mod budget;
pub mod paper;
pub mod pipelines;
pub mod registry;
pub mod report;

/// Scaling and effort knobs shared by the experiment pipelines.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Divisor applied to the paper's dataset sizes (1 = full scale).
    pub scale: usize,
    /// Random repetitions for mean ± std columns.
    pub seeds: usize,
    /// Training epochs for the deep baselines.
    pub deep_epochs: usize,
    /// Training epochs for CPGAN.
    pub cpgan_epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Hard cap on nodes for models that materialize dense `n x n` state
    /// locally (they are skipped above it even when the paper-scale budget
    /// says they fit — CPU time guard, not a memory guard).
    pub dense_node_cap: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            scale: 16,
            seeds: 2,
            deep_epochs: 200,
            cpgan_epochs: 300,
            seed: 20220501,
            dense_node_cap: 1400,
        }
    }
}

impl EvalConfig {
    /// A fast smoke configuration for tests and `--fast` runs.
    pub fn fast() -> Self {
        EvalConfig {
            scale: 48,
            seeds: 1,
            deep_epochs: 60,
            cpgan_epochs: 60,
            dense_node_cap: 600,
            ..Default::default()
        }
    }
}
