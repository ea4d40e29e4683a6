//! NetGAN (Bojchevski et al. 2018), paper baseline "NetGAN".
//!
//! Learns the distribution of random walks over the observed graph with a
//! GAN: a GRU generator emits walks node-by-node through a Gumbel-softmax
//! relaxation, a GRU discriminator classifies walks, and the output graph is
//! assembled from generated-walk edge counts (Figure 3's three-step
//! pipeline). Walk-space learning makes community preservation indirect —
//! the weakness the paper highlights.

use crate::common::DeepConfig;
use cpgan_generators::GraphGenerator;
use cpgan_graph::{Graph, GraphBuilder, NodeId};
use cpgan_nn::layers::{Activation, GruCell, Linear, Mlp};
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{init, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// Walk length (the NetGAN paper's default is 16; we use 8 for CPU scale).
const WALK_LEN: usize = 8;
/// Gumbel-softmax temperature.
const TAU: f32 = 1.0;

/// A trained NetGAN.
pub struct NetGan {
    n: usize,
    m: usize,
    hidden: usize,
    latent: usize,
    g_init: Linear,
    g_gru: GruCell,
    g_out: Linear,
    g_embed: Linear,
    seed: u64,
}

/// Samples a length-`WALK_LEN` random walk as node ids.
fn sample_walk(g: &Graph, rng: &mut StdRng) -> Option<Vec<NodeId>> {
    let n = g.n();
    if n == 0 {
        return None;
    }
    let mut v = rng.gen_range(0..n) as NodeId;
    let mut guard = 0;
    while g.degree(v) == 0 {
        v = rng.gen_range(0..n) as NodeId;
        guard += 1;
        if guard > 50 {
            return None;
        }
    }
    let mut walk = Vec::with_capacity(WALK_LEN);
    walk.push(v);
    for _ in 1..WALK_LEN {
        let nb = g.neighbors(v);
        v = nb[rng.gen_range(0..nb.len())];
        walk.push(v);
    }
    Some(walk)
}

impl NetGan {
    /// Builds and trains on the observed graph.
    pub fn fit(g: &Graph, cfg: &DeepConfig) -> Self {
        let n = g.n();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut g_store = ParamStore::new();
        let g_init = Linear::new(&mut g_store, &mut rng, cfg.latent_dim, cfg.hidden_dim, true);
        let g_gru = GruCell::new(&mut g_store, &mut rng, cfg.hidden_dim, cfg.hidden_dim);
        let g_out = Linear::new(&mut g_store, &mut rng, cfg.hidden_dim, n, true);
        let g_embed = Linear::new(&mut g_store, &mut rng, n, cfg.hidden_dim, false);

        let mut d_store = ParamStore::new();
        let d_embed = Linear::new(&mut d_store, &mut rng, n, cfg.hidden_dim, false);
        let d_gru = GruCell::new(&mut d_store, &mut rng, cfg.hidden_dim, cfg.hidden_dim);
        let d_head = Mlp::new(
            &mut d_store,
            &mut rng,
            &[cfg.hidden_dim, cfg.hidden_dim, 1],
            Activation::Relu,
        );

        let model = NetGan {
            n,
            m: g.m(),
            hidden: cfg.hidden_dim,
            latent: cfg.latent_dim,
            g_init,
            g_gru,
            g_out,
            g_embed,
            seed: cfg.seed,
        };

        let batch = 6usize;
        let mut opt_g = Adam::with_lr(cfg.learning_rate);
        let mut opt_d = Adam::with_lr(cfg.learning_rate);
        let ones = Arc::new(Matrix::full(batch, 1, 1.0));
        let zeros = Arc::new(Matrix::zeros(batch, 1));

        let discriminate = |tape: &Tape, steps: &[Var]| -> Var {
            let mut h = tape.constant(Matrix::zeros(steps[0].shape().0, cfg.hidden_dim));
            for s in steps {
                let e = d_embed.forward(tape, s).tanh();
                h = d_gru.forward(tape, &e, &h);
            }
            d_head.forward(tape, &h)
        };

        let iters = cfg.epochs;
        for _ in 0..iters {
            // ---- Discriminator ----
            {
                let tape = Tape::new();
                // Real walks as one-hot step batches.
                let mut real_steps = Vec::with_capacity(WALK_LEN);
                let mut walks = Vec::with_capacity(batch);
                for _ in 0..batch {
                    if let Some(w) = sample_walk(g, &mut rng) {
                        walks.push(w);
                    }
                }
                if walks.len() < batch {
                    continue;
                }
                for t in 0..WALK_LEN {
                    let mut step = Matrix::zeros(batch, n);
                    for (b, w) in walks.iter().enumerate() {
                        step.set(b, w[t] as usize, 1.0);
                    }
                    real_steps.push(tape.constant(step));
                }
                let real_logit = discriminate(&tape, &real_steps);

                let fake_steps = model.generate_soft_walks(&tape, batch, &mut rng);
                // Detach for the D step.
                let fake_const: Vec<Var> = fake_steps
                    .iter()
                    .map(|s| tape.constant(s.value()))
                    .collect();
                let fake_logit = discriminate(&tape, &fake_const);

                let d_loss = real_logit
                    .bce_with_logits_mean(&ones, None)
                    .add(&fake_logit.bce_with_logits_mean(&zeros, None));
                g_store.zero_grad();
                d_store.zero_grad();
                d_loss.backward();
                opt_d.step(&d_store);
            }
            // ---- Generator ----
            {
                let tape = Tape::new();
                let fake_steps = model.generate_soft_walks(&tape, batch, &mut rng);
                let fake_logit = discriminate(&tape, &fake_steps);
                let g_loss = fake_logit.bce_with_logits_mean(&ones, None);
                g_store.zero_grad();
                d_store.zero_grad();
                g_loss.backward();
                opt_g.step(&g_store);
            }
        }
        model
    }

    /// Generates `batch` soft walks (one Gumbel-softmax distribution per
    /// step) on `tape`.
    fn generate_soft_walks(&self, tape: &Tape, batch: usize, rng: &mut StdRng) -> Vec<Var> {
        let z = tape.constant(init::standard_normal(rng, batch, self.latent));
        let mut h = self.g_init.forward(tape, &z).tanh();
        let mut x = tape.constant(Matrix::zeros(batch, self.hidden));
        let mut steps = Vec::with_capacity(WALK_LEN);
        for _ in 0..WALK_LEN {
            h = self.g_gru.forward(tape, &x, &h);
            let logits = self.g_out.forward(tape, &h);
            // Gumbel-softmax: softmax((logits + G) / tau).
            let gumbel = Matrix::from_fn(batch, self.n, |_, _| {
                let u: f32 = rng.gen::<f32>().max(1e-9);
                -(-u.ln()).ln()
            });
            let soft = logits
                .add(&tape.constant(gumbel))
                .scale(1.0 / TAU)
                .softmax_rows();
            x = self.g_embed.forward(tape, &soft).tanh();
            steps.push(soft);
        }
        steps
    }

    /// Hard walks sampled from the generator (argmax of each soft step).
    pub fn sample_walks(&self, count: usize, rng: &mut StdRng) -> Vec<Vec<NodeId>> {
        let mut walks = Vec::with_capacity(count);
        let batch = 8usize;
        while walks.len() < count {
            let tape = Tape::inference();
            let steps: Vec<Matrix> = self
                .generate_soft_walks(&tape, batch, rng)
                .into_iter()
                .map(Var::into_value)
                .collect();
            for b in 0..batch {
                if walks.len() >= count {
                    break;
                }
                let mut walk = Vec::with_capacity(WALK_LEN);
                for s in &steps {
                    let row = s.row(b);
                    let arg = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    walk.push(arg as NodeId);
                }
                walks.push(walk);
            }
        }
        walks
    }
}

impl GraphGenerator for NetGan {
    fn name(&self) -> &'static str {
        "NetGAN"
    }

    fn generate(&self, rng: &mut dyn RngCore) -> Graph {
        // Step 3 of Figure 3: count edges over generated walks, keep the
        // top-m scoring pairs.
        let mut walk_rng = StdRng::seed_from_u64(rng.next_u64() ^ self.seed);
        let walk_count = (4 * self.m / WALK_LEN.max(1)).max(32);
        let walks = self.sample_walks(walk_count, &mut walk_rng);
        let mut counts: std::collections::HashMap<(NodeId, NodeId), u32> =
            std::collections::HashMap::new();
        for w in &walks {
            for pair in w.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if a == b {
                    continue;
                }
                let key = if a < b { (a, b) } else { (b, a) };
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        let mut scored: Vec<((NodeId, NodeId), u32)> = counts.into_iter().collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut builder = GraphBuilder::with_capacity(self.n, self.m);
        for ((u, v), _) in scored.into_iter().take(self.m) {
            builder.push_edge(u, v);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::two_block_fixture as two_blocks;

    fn tiny_cfg() -> DeepConfig {
        DeepConfig {
            hidden_dim: 12,
            latent_dim: 6,
            epochs: 30,
            ..DeepConfig::tiny()
        }
    }

    #[test]
    fn random_walks_stay_on_edges() {
        let (g, _) = two_blocks(8);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let w = sample_walk(&g, &mut rng).unwrap();
            assert_eq!(w.len(), WALK_LEN);
            for pair in w.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn fit_and_generate_counts() {
        let (g, _) = two_blocks(8);
        let model = NetGan::fit(&g, &tiny_cfg());
        let mut rng = StdRng::seed_from_u64(1);
        let out = model.generate(&mut rng);
        assert_eq!(out.n(), g.n());
        assert!(out.m() <= g.m());
        assert!(out.m() > 0);
    }

    #[test]
    fn generated_walks_have_right_length() {
        let (g, _) = two_blocks(6);
        let model = NetGan::fit(&g, &tiny_cfg());
        let mut rng = StdRng::seed_from_u64(2);
        let walks = model.sample_walks(5, &mut rng);
        assert_eq!(walks.len(), 5);
        for w in walks {
            assert_eq!(w.len(), WALK_LEN);
            for &v in &w {
                assert!((v as usize) < g.n());
            }
        }
    }
}
