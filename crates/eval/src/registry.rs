//! A uniform registry over every generator in the paper's experiments.

use crate::EvalConfig;
use cpgan::{CpGan, CpGanConfig, Variant};
use cpgan_deep::{
    condgen::CondGenR, graphite::Graphite, graphrnn::GraphRnnS, netgan::NetGan, sbmgnn::SbmGnn,
    vgae::Vgae, DeepConfig,
};
use cpgan_generators::{
    ba::BarabasiAlbert, bter::Bter, chung_lu::ChungLu, dcsbm::Dcsbm, er::ErdosRenyi,
    kronecker::Kronecker, mmsb::Mmsb, sbm::Sbm, GraphGenerator,
};
use cpgan_graph::Graph;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Every model evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Erdős–Rényi.
    Er,
    /// Barabási–Albert.
    Ba,
    /// Chung–Lu.
    ChungLu,
    /// Stochastic block model.
    Sbm,
    /// Degree-corrected SBM.
    Dcsbm,
    /// Block two-level E-R.
    Bter,
    /// Stochastic Kronecker / R-MAT.
    Kronecker,
    /// Mixed-membership SBM.
    Mmsb,
    /// Variational graph autoencoder.
    Vgae,
    /// Graphite.
    Graphite,
    /// SBMGNN.
    Sbmgnn,
    /// GraphRNN-S.
    GraphRnnS,
    /// NetGAN.
    NetGan,
    /// CondGen-R.
    CondGenR,
    /// CPGAN or one of its ablation variants.
    CpGan(Variant),
}

impl ModelKind {
    /// Row label matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Er => "E-R",
            ModelKind::Ba => "B-A",
            ModelKind::ChungLu => "Chung-Lu",
            ModelKind::Sbm => "SBM",
            ModelKind::Dcsbm => "DCSBM",
            ModelKind::Bter => "BTER",
            ModelKind::Kronecker => "Kronecker",
            ModelKind::Mmsb => "MMSB",
            ModelKind::Vgae => "VGAE",
            ModelKind::Graphite => "Graphite",
            ModelKind::Sbmgnn => "SBMGNN",
            ModelKind::GraphRnnS => "GraphRNN-S",
            ModelKind::NetGan => "NetGAN",
            ModelKind::CondGenR => "CondGen-R",
            ModelKind::CpGan(v) => v.label(),
        }
    }

    /// Whether the model needs gradient-based training.
    pub fn is_learning_based(&self) -> bool {
        matches!(
            self,
            ModelKind::Vgae
                | ModelKind::Graphite
                | ModelKind::Sbmgnn
                | ModelKind::GraphRnnS
                | ModelKind::NetGan
                | ModelKind::CondGenR
                | ModelKind::CpGan(_)
        )
    }

    /// Whether the model materializes dense `n x n` state locally (used for
    /// the CPU-time node cap, distinct from the paper-scale memory budget).
    pub fn is_dense(&self) -> bool {
        matches!(
            self,
            ModelKind::Mmsb
                | ModelKind::Vgae
                | ModelKind::Graphite
                | ModelKind::Sbmgnn
                | ModelKind::NetGan
                | ModelKind::CondGenR
        )
    }

    /// The Table III model list (community preservation).
    pub fn table3() -> Vec<ModelKind> {
        vec![
            ModelKind::Sbm,
            ModelKind::Dcsbm,
            ModelKind::Bter,
            ModelKind::Mmsb,
            ModelKind::Vgae,
            ModelKind::Graphite,
            ModelKind::Sbmgnn,
            ModelKind::NetGan,
            ModelKind::CpGan(Variant::Full),
        ]
    }

    /// The Table IV model list (generation quality).
    pub fn table4() -> Vec<ModelKind> {
        vec![
            ModelKind::Er,
            ModelKind::Ba,
            ModelKind::ChungLu,
            ModelKind::Sbm,
            ModelKind::Dcsbm,
            ModelKind::Bter,
            ModelKind::Kronecker,
            ModelKind::Mmsb,
            ModelKind::Vgae,
            ModelKind::GraphRnnS,
            ModelKind::CondGenR,
            ModelKind::NetGan,
            ModelKind::CpGan(Variant::Full),
        ]
    }

    /// The efficiency-sweep model list (Tables VII–IX).
    pub fn sweep() -> Vec<ModelKind> {
        vec![
            ModelKind::Er,
            ModelKind::Ba,
            ModelKind::ChungLu,
            ModelKind::Sbm,
            ModelKind::Dcsbm,
            ModelKind::Bter,
            ModelKind::Mmsb,
            ModelKind::Kronecker,
            ModelKind::GraphRnnS,
            ModelKind::Vgae,
            ModelKind::Graphite,
            ModelKind::Sbmgnn,
            ModelKind::NetGan,
            ModelKind::CondGenR,
            ModelKind::CpGan(Variant::Full),
        ]
    }
}

/// Block count available to the SBM-family baselines — the default capacity
/// of the reference implementations the paper evaluates (its premise is
/// precisely that these models have "only a few parameters", §I).
pub const BLOCK_MODEL_CAPACITY: usize = 10;

/// A fitted model ready to sample graphs.
pub enum FittedModel {
    /// Any model implementing the shared generator trait.
    Generator(Box<dyn GraphGenerator>),
    /// CPGAN keeps its own generation signature (target n and m).
    CpGan(Box<CpGan>, usize, usize),
}

impl FittedModel {
    /// Samples one graph.
    pub fn generate(&self, rng: &mut StdRng) -> Graph {
        match self {
            FittedModel::Generator(g) => g.generate(rng as &mut dyn RngCore),
            FittedModel::CpGan(model, n, m) => model.generate(*n, *m, rng),
        }
    }
}

/// CPGAN's harness configuration: `cfg`'s epoch budget, subgraphs of at
/// most 200 nodes, and `seed`. [`fit_model`] sets the variant.
pub fn cpgan_config(g: &Graph, cfg: &EvalConfig, seed: u64) -> CpGanConfig {
    CpGanConfig {
        epochs: cfg.cpgan_epochs,
        sample_size: 200.min(g.n().max(8)),
        seed,
        ..CpGanConfig::default()
    }
}

/// The deep baselines' harness configuration: `cfg`'s epoch budget and
/// `seed`.
pub fn deep_config(cfg: &EvalConfig, seed: u64) -> DeepConfig {
    DeepConfig {
        epochs: cfg.deep_epochs,
        seed,
        ..DeepConfig::default()
    }
}

/// Fits `kind` on the observed graph; every model the harness measures is
/// built here. CPGAN variants train with `cpgan` (its `variant` taken from
/// `kind`), the deep baselines with `deep`, and the block models draw their
/// fitting randomness from `deep.seed`. This is the timed "training" step
/// of Table VIII.
pub fn fit_model(
    kind: ModelKind,
    g: &Graph,
    cpgan: &CpGanConfig,
    deep: &DeepConfig,
) -> FittedModel {
    let seed = deep.seed;
    let generator: Box<dyn GraphGenerator> = match kind {
        ModelKind::Er => Box::new(ErdosRenyi::fit(g)),
        ModelKind::Ba => Box::new(BarabasiAlbert::fit(g)),
        ModelKind::ChungLu => Box::new(ChungLu::fit(g)),
        // Block models use the limited block budget of the reference
        // implementations the paper compares against (its §I premise:
        // "there are only a few parameters in their models").
        ModelKind::Sbm => Box::new(Sbm::fit_capped(g, seed, BLOCK_MODEL_CAPACITY)),
        ModelKind::Dcsbm => Box::new(Dcsbm::fit_capped(g, seed, BLOCK_MODEL_CAPACITY)),
        ModelKind::Bter => Box::new(Bter::fit(g)),
        ModelKind::Kronecker => Box::new(Kronecker::fit(g)),
        ModelKind::Mmsb => Box::new(Mmsb::fit_capped(g, seed, 0.1, BLOCK_MODEL_CAPACITY)),
        ModelKind::Vgae => Box::new(Vgae::fit(g, deep)),
        ModelKind::Graphite => Box::new(Graphite::fit(g, deep)),
        ModelKind::Sbmgnn => Box::new(SbmGnn::fit(g, deep, 0)),
        ModelKind::GraphRnnS => Box::new(GraphRnnS::fit(g, deep)),
        ModelKind::NetGan => Box::new(NetGan::fit(g, deep)),
        ModelKind::CondGenR => Box::new(CondGenR::fit(g, deep)),
        ModelKind::CpGan(variant) => {
            let mut model = CpGan::new(CpGanConfig {
                variant,
                ..cpgan.clone()
            });
            model.fit(g);
            return FittedModel::CpGan(Box::new(model), g.n(), g.m());
        }
    };
    FittedModel::Generator(generator)
}

/// Convenience: fit with the harness configurations and sample one graph
/// with a derived RNG.
pub fn fit_and_generate(kind: ModelKind, g: &Graph, cfg: &EvalConfig, seed: u64) -> Graph {
    let model = fit_model(
        kind,
        g,
        &cpgan_config(g, cfg, seed),
        &deep_config(cfg, seed),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    model.generate(&mut rng)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Three 10-node communities joined in a ring.
    pub(crate) fn small_graph() -> Graph {
        let mut edges = Vec::new();
        for c in 0..3u32 {
            let base = c * 10;
            for a in 0..10u32 {
                for b in (a + 1)..10 {
                    if (a + b) % 2 == 0 {
                        edges.push((base + a, base + b));
                    }
                }
            }
            edges.push((base, (base + 10) % 30));
        }
        Graph::from_edges(30, edges).unwrap()
    }

    #[test]
    fn every_kind_fits_and_generates() {
        let g = small_graph();
        let cfg = EvalConfig {
            deep_epochs: 10,
            cpgan_epochs: 5,
            ..EvalConfig::fast()
        };
        for kind in ModelKind::sweep() {
            let out = fit_and_generate(kind, &g, &cfg, 3);
            assert_eq!(out.n(), g.n(), "{} changed node count", kind.name());
        }
    }

    #[test]
    fn names_unique() {
        let names: Vec<&str> = ModelKind::sweep().iter().map(|k| k.name()).collect();
        let set: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
