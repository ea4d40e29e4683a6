//! Variational Graph Autoencoder (Kipf & Welling 2016), paper baseline
//! "VGAE".
//!
//! Two-layer GCN encoder producing per-node Gaussian posteriors, inner
//! product decoder, trained on the class-balanced adjacency BCE plus the KL
//! prior. Like the original, VGAE assumes a fixed node set and materializes
//! the full `n x n` probability matrix — the source of its OOM rows in the
//! paper's large-graph experiments.

use crate::common::{self, DeepConfig};
use cpgan_generators::GraphGenerator;
use cpgan_graph::Graph;
use cpgan_nn::layers::GcnConv;
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{init, loss, Csr, FusedAct, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// A trained VGAE.
pub struct Vgae {
    cfg: DeepConfig,
    store: ParamStore,
    conv1: GcnConv,
    conv_mu: GcnConv,
    conv_logvar: GcnConv,
    n: usize,
    m: usize,
    /// Posterior means of the training graph (used at generation time).
    trained_mu: Matrix,
    /// Posterior log-variances.
    trained_logvar: Matrix,
}

impl Vgae {
    /// Builds and trains on the observed graph.
    pub fn fit(g: &Graph, cfg: &DeepConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let conv1 = GcnConv::new(&mut store, &mut rng, cfg.feature_dim, cfg.hidden_dim);
        let conv_mu = GcnConv::new(&mut store, &mut rng, cfg.hidden_dim, cfg.latent_dim);
        let conv_logvar = GcnConv::new(&mut store, &mut rng, cfg.hidden_dim, cfg.latent_dim);

        let adj = Arc::new(Csr::normalized_adjacency(g));
        let feats = common::features(g, cfg.feature_dim, cfg.seed);
        let (target, weights) = common::adjacency_target(g);
        let mut opt = Adam::with_lr(cfg.learning_rate);

        let mut model = Vgae {
            cfg: cfg.clone(),
            store: store.clone(),
            conv1,
            conv_mu,
            conv_logvar,
            n: g.n(),
            m: g.m(),
            trained_mu: Matrix::zeros(g.n(), cfg.latent_dim),
            trained_logvar: Matrix::zeros(g.n(), cfg.latent_dim),
        };

        for _ in 0..cfg.epochs {
            let tape = Tape::new();
            let x = tape.constant(feats.clone());
            let (mu, logvar) = model.encode(&tape, &adj, &x);
            let eps = tape.constant(init::standard_normal(&mut rng, g.n(), cfg.latent_dim));
            let z = mu.add(&logvar.scale(0.5).exp().mul(&eps));
            let logits = z.matmul(&z.transpose());
            let recon = logits.bce_with_logits_mean(&target, Some(&weights));
            let kl = loss::gaussian_kl(&mu, &logvar);
            let total = recon.add(&kl.scale(0.05));
            store.zero_grad();
            total.backward();
            opt.step(&store);
        }

        // Cache the final posterior for generation.
        let tape = Tape::inference();
        let x = tape.constant(feats);
        let (mu, logvar) = model.encode(&tape, &adj, &x);
        model.trained_mu = mu.into_value();
        model.trained_logvar = logvar.into_value();
        model
    }

    fn encode(&self, tape: &Tape, adj: &Arc<Csr>, x: &Var) -> (Var, Var) {
        let h = self
            .conv1
            .forward_sparse_fused(tape, adj, x, FusedAct::Relu);
        let mu = self.conv_mu.forward_sparse(tape, adj, &h);
        let logvar = self.conv_logvar.forward_sparse(tape, adj, &h);
        (mu, logvar)
    }

    /// Link probabilities decoded from the cached posterior with fresh
    /// posterior noise.
    pub fn decode_probabilities(&self, rng: &mut dyn RngCore) -> Matrix {
        let tape = Tape::inference();
        let mut noise_rng = StdRng::seed_from_u64(rng.next_u64());
        let eps = init::standard_normal(&mut noise_rng, self.n, self.cfg.latent_dim);
        let mut z = self.trained_mu.clone();
        for i in 0..z.len() {
            let sigma = (0.5 * self.trained_logvar.as_slice()[i]).exp();
            z.as_mut_slice()[i] += sigma * eps.as_slice()[i];
        }
        let zv = tape.constant(z);
        zv.matmul(&zv.transpose()).sigmoid().into_value()
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.store.param_count()
    }
}

impl GraphGenerator for Vgae {
    fn name(&self) -> &'static str {
        "VGAE"
    }

    fn generate(&self, rng: &mut dyn RngCore) -> Graph {
        let probs = self.decode_probabilities(rng);
        common::assemble_from_probs(&probs, self.m, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::two_block_fixture as two_blocks;
    use cpgan_community::{louvain, metrics};

    #[test]
    fn fit_and_generate_counts() {
        let (g, _) = two_blocks(12);
        let model = Vgae::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.generate(&mut rng);
        assert_eq!(out.n(), g.n());
        assert_eq!(out.m(), g.m());
        assert!(model.param_count() > 0);
    }

    #[test]
    fn edges_more_likely_than_non_edges() {
        let (g, _) = two_blocks(12);
        let model = Vgae::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        let probs = model.decode_probabilities(&mut rng);
        let mut p_edge = 0.0f64;
        for &(u, v) in g.edges() {
            p_edge += probs.get(u as usize, v as usize) as f64;
        }
        p_edge /= g.m() as f64;
        let mut p_non = 0.0f64;
        let mut count = 0;
        for u in 0..g.n() as u32 {
            for v in (u + 1)..g.n() as u32 {
                if !g.has_edge(u, v) {
                    p_non += probs.get(u as usize, v as usize) as f64;
                    count += 1;
                }
            }
        }
        p_non /= count as f64;
        assert!(p_edge > p_non, "edge prob {p_edge} <= non-edge {p_non}");
    }

    #[test]
    fn preserves_planted_communities_reasonably() {
        let (g, labels) = two_blocks(14);
        let model = Vgae::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(2);
        let out = model.generate(&mut rng);
        let det = louvain::louvain(&out, 0);
        let nmi = metrics::nmi(det.labels(), &labels);
        assert!(nmi > 0.2, "nmi {nmi}");
    }
}
