//! Graphite (Grover, Zweig & Ermon 2019), paper baseline "Graphite".
//!
//! A VGAE whose decoder iteratively refines the latent codes by message
//! passing over the *soft* generated adjacency before the final inner
//! product — the "iterative generative modeling" idea, reproduced here with
//! one refinement round.

use crate::common::{self, DeepConfig};
use cpgan_generators::GraphGenerator;
use cpgan_graph::Graph;
use cpgan_nn::layers::{GcnConv, Linear};
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{init, loss, Csr, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// A trained Graphite model.
pub struct Graphite {
    cfg: DeepConfig,
    conv1: GcnConv,
    conv_mu: GcnConv,
    conv_logvar: GcnConv,
    refine: Linear,
    n: usize,
    m: usize,
    trained_mu: Matrix,
    trained_logvar: Matrix,
}

impl Graphite {
    /// Builds and trains on the observed graph.
    pub fn fit(g: &Graph, cfg: &DeepConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let conv1 = GcnConv::new(&mut store, &mut rng, cfg.feature_dim, cfg.hidden_dim);
        let conv_mu = GcnConv::new(&mut store, &mut rng, cfg.hidden_dim, cfg.latent_dim);
        let conv_logvar = GcnConv::new(&mut store, &mut rng, cfg.hidden_dim, cfg.latent_dim);
        let refine = Linear::new(&mut store, &mut rng, cfg.latent_dim, cfg.latent_dim, true);

        let adj = Arc::new(Csr::normalized_adjacency(g));
        let feats = common::features(g, cfg.feature_dim, cfg.seed);
        let (target, weights) = common::adjacency_target(g);
        let mut opt = Adam::with_lr(cfg.learning_rate);

        let mut model = Graphite {
            cfg: cfg.clone(),
            conv1,
            conv_mu,
            conv_logvar,
            refine,
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
            let logits = model.decode(&tape, &z);
            let recon = logits.bce_with_logits_mean(&target, Some(&weights));
            let kl = loss::gaussian_kl(&mu, &logvar);
            let total = recon.add(&kl.scale(0.05));
            store.zero_grad();
            total.backward();
            opt.step(&store);
        }

        let tape = Tape::inference();
        let x = tape.constant(feats);
        let (mu, logvar) = model.encode(&tape, &adj, &x);
        model.trained_mu = mu.into_value();
        model.trained_logvar = logvar.into_value();
        model
    }

    fn encode(&self, tape: &Tape, adj: &Arc<Csr>, x: &Var) -> (Var, Var) {
        let h = self.conv1.forward_sparse(tape, adj, x).relu();
        (
            self.conv_mu.forward_sparse(tape, adj, &h),
            self.conv_logvar.forward_sparse(tape, adj, &h),
        )
    }

    /// Graphite decoding: intermediate soft adjacency -> one message-passing
    /// refinement of `z` -> final inner-product logits.
    fn decode(&self, tape: &Tape, z: &Var) -> Var {
        let scale = 1.0 / (self.cfg.latent_dim as f32).sqrt();
        let soft = z.matmul(&z.transpose()).scale(scale).sigmoid();
        // Refine: z' = relu(W(soft z)) + z (residual keeps training stable).
        let msg = soft.matmul(z).scale(1.0 / self.n.max(1) as f32);
        let z_ref = self.refine.forward(tape, &msg).relu().add(z);
        z_ref.matmul(&z_ref.transpose()).scale(scale)
    }

    /// Decoded probabilities with fresh posterior noise.
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
        self.decode(&tape, &zv).sigmoid().into_value()
    }
}

impl GraphGenerator for Graphite {
    fn name(&self) -> &'static str {
        "Graphite"
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
        let model = Graphite::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.generate(&mut rng);
        assert_eq!(out.n(), g.n());
        assert_eq!(out.m(), g.m());
    }

    #[test]
    fn reconstruction_signal_present() {
        let (g, _) = two_blocks(10);
        let model = Graphite::fit(&g, &DeepConfig::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        let probs = model.decode_probabilities(&mut rng);
        let mut p_edge = 0.0f64;
        for &(u, v) in g.edges() {
            p_edge += probs.get(u as usize, v as usize) as f64;
        }
        p_edge /= g.m() as f64;
        let mut p_all = 0.0f64;
        for i in 0..g.n() {
            for j in 0..g.n() {
                if i != j {
                    p_all += probs.get(i, j) as f64;
                }
            }
        }
        p_all /= (g.n() * (g.n() - 1)) as f64;
        assert!(p_edge > p_all, "edges {p_edge} vs overall {p_all}");
    }
}
