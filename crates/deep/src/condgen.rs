//! CondGen-R (Yang et al. 2019), paper baseline "CondGen-R".
//!
//! The reduced variant of the conditional structure generation network the
//! paper compares against: a GCN variational encoder, an inner-product
//! decoder, and an adversarial discriminator applied to graph-level
//! embeddings of real vs generated adjacencies, with CycleGAN-style mapping
//! consistency. Structurally this is CPGAN without the ladder hierarchy and
//! without the community losses.

use crate::common::{self, DeepConfig};
use cpgan_generators::GraphGenerator;
use cpgan_graph::Graph;
use cpgan_nn::layers::{Activation, GcnConv, Mlp};
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{init, loss, Csr, FusedAct, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// A trained CondGen-R.
pub struct CondGenR {
    cfg: DeepConfig,
    conv1: GcnConv,
    conv_mu: GcnConv,
    conv_logvar: GcnConv,
    n: usize,
    m: usize,
    trained_mu: Matrix,
    trained_logvar: Matrix,
}

impl CondGenR {
    /// Builds and trains on the observed graph.
    pub fn fit(g: &Graph, cfg: &DeepConfig) -> Self {
        let n = g.n();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut g_store = ParamStore::new();
        let conv1 = GcnConv::new(&mut g_store, &mut rng, cfg.feature_dim, cfg.hidden_dim);
        let conv_mu = GcnConv::new(&mut g_store, &mut rng, cfg.hidden_dim, cfg.latent_dim);
        let conv_logvar = GcnConv::new(&mut g_store, &mut rng, cfg.hidden_dim, cfg.latent_dim);

        // Discriminator: its own GCN feature extractor + MLP over the mean
        // readout.
        let mut d_store = ParamStore::new();
        let d_conv = GcnConv::new(&mut d_store, &mut rng, cfg.feature_dim, cfg.hidden_dim);
        let d_head = Mlp::new(
            &mut d_store,
            &mut rng,
            &[cfg.hidden_dim, cfg.hidden_dim, 1],
            Activation::Relu,
        );

        let adj = Arc::new(Csr::normalized_adjacency(g));
        let feats = common::features(g, cfg.feature_dim, cfg.seed);
        let (target, weights) = common::adjacency_target(g);
        let mut opt_g = Adam::with_lr(cfg.learning_rate);
        let mut opt_d = Adam::with_lr(cfg.learning_rate);
        let one = Arc::new(Matrix::full(1, 1, 1.0));
        let zero = Arc::new(Matrix::zeros(1, 1));

        let mut model = CondGenR {
            cfg: cfg.clone(),
            conv1,
            conv_mu,
            conv_logvar,
            n,
            m: g.m(),
            trained_mu: Matrix::zeros(n, cfg.latent_dim),
            trained_logvar: Matrix::zeros(n, cfg.latent_dim),
        };

        let readout_real = |tape: &Tape, x: &Var| -> Var {
            d_conv
                .forward_sparse_fused(tape, &adj, x, FusedAct::Relu)
                .mean_rows()
        };
        let readout_dense = |tape: &Tape, a: &Var, x: &Var| -> Var {
            d_conv.forward_dense(tape, a, x).relu().mean_rows()
        };

        for _ in 0..cfg.epochs {
            // ---- Discriminator step ----
            {
                let tape = Tape::new();
                let x = tape.constant(feats.clone());
                let (mu, logvar) = model.encode(&tape, &adj, &x);
                let eps = tape.constant(init::standard_normal(&mut rng, n, cfg.latent_dim));
                let z = mu.add(&logvar.scale(0.5).exp().mul(&eps));
                let scale = 1.0 / (cfg.latent_dim as f32).sqrt();
                // Detached fake adjacency.
                let fake_probs =
                    tape.constant(z.matmul(&z.transpose()).scale(scale).sigmoid().value());
                let real_logit = d_head.forward(&tape, &readout_real(&tape, &x));
                let fake_logit = d_head.forward(&tape, &readout_dense(&tape, &fake_probs, &x));
                let d_loss = real_logit
                    .bce_with_logits_mean(&one, None)
                    .add(&fake_logit.bce_with_logits_mean(&zero, None));
                g_store.zero_grad();
                d_store.zero_grad();
                d_loss.backward();
                opt_d.step(&d_store);
            }
            // ---- Generator step ----
            {
                let tape = Tape::new();
                let x = tape.constant(feats.clone());
                let (mu, logvar) = model.encode(&tape, &adj, &x);
                let eps = tape.constant(init::standard_normal(&mut rng, n, cfg.latent_dim));
                let z = mu.add(&logvar.scale(0.5).exp().mul(&eps));
                let scale = 1.0 / (cfg.latent_dim as f32).sqrt();
                let logits = z.matmul(&z.transpose()).scale(scale);
                let fake_probs = logits.sigmoid();
                let fake_logit = d_head.forward(&tape, &readout_dense(&tape, &fake_probs, &x));
                let recon = logits.bce_with_logits_mean(&target, Some(&weights));
                let kl = loss::gaussian_kl(&mu, &logvar);
                // Mapping consistency over the discriminator's readout.
                let l_rec = readout_real(&tape, &x)
                    .sub(&readout_dense(&tape, &fake_probs, &x))
                    .square()
                    .mean_all();
                let g_loss = fake_logit
                    .bce_with_logits_mean(&one, None)
                    .scale(0.1)
                    .add(&recon.scale(2.0))
                    .add(&kl.scale(0.05))
                    .add(&l_rec);
                g_store.zero_grad();
                d_store.zero_grad();
                g_loss.backward();
                opt_g.step(&g_store);
            }
        }

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
        (
            self.conv_mu.forward_sparse(tape, adj, &h),
            self.conv_logvar.forward_sparse(tape, adj, &h),
        )
    }

    /// Decoded link probabilities with fresh posterior noise.
    pub fn decode_probabilities(&self, rng: &mut dyn RngCore) -> Matrix {
        let tape = Tape::inference();
        let mut noise_rng = StdRng::seed_from_u64(rng.next_u64());
        let eps = init::standard_normal(&mut noise_rng, self.n, self.cfg.latent_dim);
        let mut z = self.trained_mu.clone();
        for i in 0..z.len() {
            let sigma = (0.5 * self.trained_logvar.as_slice()[i]).exp();
            z.as_mut_slice()[i] += sigma * eps.as_slice()[i];
        }
        let scale = 1.0 / (self.cfg.latent_dim as f32).sqrt();
        let zv = tape.constant(z);
        zv.matmul(&zv.transpose())
            .scale(scale)
            .sigmoid()
            .into_value()
    }
}

impl GraphGenerator for CondGenR {
    fn name(&self) -> &'static str {
        "CondGen-R"
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

    #[test]
    fn fit_and_generate() {
        let (g, _) = two_blocks(10);
        let model = CondGenR::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.generate(&mut rng);
        assert_eq!(out.n(), g.n());
        assert_eq!(out.m(), g.m());
    }

    #[test]
    fn edges_scored_above_average() {
        let (g, _) = two_blocks(10);
        let model = CondGenR::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        let probs = model.decode_probabilities(&mut rng);
        let mut p_edge = 0.0f64;
        for &(u, v) in g.edges() {
            p_edge += probs.get(u as usize, v as usize) as f64;
        }
        p_edge /= g.m() as f64;
        let p_all: f64 =
            probs.as_slice().iter().map(|&v| v as f64).sum::<f64>() / probs.len() as f64;
        assert!(p_edge > p_all, "edges {p_edge} vs overall {p_all}");
    }
}
