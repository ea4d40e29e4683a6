//! SBMGNN (Mehta, Carin & Rai 2019), paper baseline "SBMGNN".
//!
//! A graph neural network that infers the parameters of an *overlapping*
//! stochastic blockmodel: a GCN produces nonnegative node-community
//! memberships `pi` and a trainable symmetric block matrix `B` defines the
//! edge likelihood `sigma(pi_i B pi_j^T)`. As the paper notes (§II-B2), the
//! deep machinery serves parameter inference, not community preservation
//! itself.

use crate::common::{self, DeepConfig};
use cpgan_generators::GraphGenerator;
use cpgan_graph::Graph;
use cpgan_nn::layers::GcnConv;
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{Csr, Matrix, Param, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// A trained SBMGNN.
pub struct SbmGnn {
    m: usize,
    communities: usize,
    /// Inferred memberships (`n x K`, row-stochastic).
    trained_pi: Matrix,
    /// Inferred block matrix (`K x K`).
    trained_b: Matrix,
}

impl SbmGnn {
    /// Builds and trains on the observed graph with `k_comm` latent
    /// communities (0 = heuristic `sqrt(n)` capped at 16).
    pub fn fit(g: &Graph, cfg: &DeepConfig, k_comm: usize) -> Self {
        let k = if k_comm == 0 {
            ((g.n() as f64).sqrt() as usize).clamp(2, 16)
        } else {
            k_comm
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let conv1 = GcnConv::new(&mut store, &mut rng, cfg.feature_dim, cfg.hidden_dim);
        let conv_pi = GcnConv::new(&mut store, &mut rng, cfg.hidden_dim, k);
        // Block matrix parameter, initialized assortative (diagonal-heavy).
        let b_init = Matrix::from_fn(k, k, |r, c| if r == c { 1.0 } else { -1.0 });
        let b_param: Param = store.register(b_init);

        let adj = Arc::new(Csr::normalized_adjacency(g));
        let feats = common::features(g, cfg.feature_dim, cfg.seed);
        let (target, weights) = common::adjacency_target(g);
        let mut opt = Adam::with_lr(cfg.learning_rate);

        for _ in 0..cfg.epochs {
            let tape = Tape::new();
            let x = tape.constant(feats.clone());
            let h = conv1.forward_sparse(&tape, &adj, &x).relu();
            let pi = conv_pi.forward_sparse(&tape, &adj, &h).softmax_rows();
            let b = tape.param(&b_param);
            // Symmetrize B so the logits stay symmetric.
            let b_sym = b.add(&b.transpose()).scale(0.5);
            let logits = pi.matmul(&b_sym).matmul(&pi.transpose());
            let recon = logits.bce_with_logits_mean(&target, Some(&weights));
            // Entropy-ish regularizer keeping memberships crisp: minimize
            // -sum pi log pi is *maximized* for crispness, so we minimize
            // +entropy with small weight.
            let entropy = pi.mul(&pi.ln()).sum_all().scale(-1.0 / g.n() as f32);
            let total = recon.add(&entropy.scale(0.01));
            store.zero_grad();
            total.backward();
            opt.step(&store);
        }

        // Cache the inferred SBM parameters.
        let tape = Tape::inference();
        let x = tape.constant(feats);
        let h = conv1.forward_sparse(&tape, &adj, &x).relu();
        let pi = conv_pi.forward_sparse(&tape, &adj, &h).softmax_rows();
        let b = tape.param(&b_param);
        let b_sym = b.add(&b.transpose()).scale(0.5);
        SbmGnn {
            m: g.m(),
            communities: k,
            trained_pi: pi.into_value(),
            trained_b: b_sym.into_value(),
        }
    }

    /// Number of latent communities.
    pub fn community_count(&self) -> usize {
        self.communities
    }

    /// Edge probabilities from the inferred overlapping SBM.
    pub fn probabilities(&self) -> Matrix {
        let tape = Tape::inference();
        let pi = tape.constant(self.trained_pi.clone());
        let b = tape.constant(self.trained_b.clone());
        pi.matmul(&b).matmul(&pi.transpose()).sigmoid().into_value()
    }
}

impl GraphGenerator for SbmGnn {
    fn name(&self) -> &'static str {
        "SBMGNN"
    }

    fn generate(&self, rng: &mut dyn RngCore) -> Graph {
        // Sample community draws per node from pi, then Bernoulli edges from
        // the block matrix — the generative process of the overlapping SBM —
        // but rescaled to hit the observed edge count via assembly.
        let probs = self.probabilities();
        // Inject membership sampling noise so repeated generations differ.
        let mut noisy = probs.clone();
        for v in noisy.as_mut_slice() {
            let jitter: f32 = rng.gen_range(0.95..1.05);
            *v = (*v * jitter).clamp(0.0, 1.0);
        }
        common::assemble_from_probs(&noisy, self.m, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::two_block_fixture as two_blocks;
    use cpgan_community::{louvain, metrics};

    #[test]
    fn fit_and_generate() {
        let (g, _) = two_blocks(10);
        let model = SbmGnn::fit(&g, &DeepConfig::tiny(), 4);
        assert_eq!(model.community_count(), 4);
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.generate(&mut rng);
        assert_eq!(out.n(), g.n());
        assert_eq!(out.m(), g.m());
    }

    #[test]
    fn memberships_row_stochastic() {
        let (g, _) = two_blocks(8);
        let model = SbmGnn::fit(&g, &DeepConfig::tiny(), 3);
        for r in 0..model.trained_pi.rows() {
            let s: f32 = model.trained_pi.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn block_structure_recovered_roughly() {
        let (g, labels) = two_blocks(14);
        let model = SbmGnn::fit(
            &g,
            &DeepConfig {
                epochs: 150,
                ..DeepConfig::tiny()
            },
            2,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let out = model.generate(&mut rng);
        let det = louvain::louvain(&out, 0);
        let nmi = metrics::nmi(det.labels(), &labels);
        assert!(nmi > 0.15, "nmi {nmi}");
    }
}
