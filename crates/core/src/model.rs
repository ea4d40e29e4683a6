//! The CPGAN model: construction, training, generation, reconstruction.

use crate::assembly::GraphAssembler;
use crate::config::{CpGanConfig, Variant};
use crate::decoder::GraphDecoder;
use crate::discriminator::Discriminator;
use crate::encoder::{AdjInput, EncoderOutput, LadderEncoder};
use crate::error::{model_panic, ModelError};
use crate::sampling::NodeDraw;
use crate::vi::{VariationalInference, ViOutput};
use cpgan_community::louvain;
use cpgan_graph::sampling::SubgraphSampler;
use cpgan_graph::{spectral, Graph, NodeId};
use cpgan_nn::optim::{Adam, Optimizer, StepDecay};
use cpgan_nn::{Csr, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Discriminator loss (Eq. 17 objective value).
    pub d_loss: f32,
    /// Generator loss (Eq. 18 objective value).
    pub g_loss: f32,
    /// Clustering-consistency loss `L_clus`.
    pub clus_loss: f32,
    /// KL prior loss.
    pub kl_loss: f32,
    /// Adjacency reconstruction loss (the hierarchical VAE's likelihood
    /// term, Eq. 14).
    pub recon_loss: f32,
}

/// Full training history.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainStats {
    /// The final epoch's stats, if training ran.
    pub fn last(&self) -> Option<&EpochStats> {
        self.epochs.last()
    }
}

/// The Community-Preserving GAN (paper §III).
pub struct CpGan {
    cfg: CpGanConfig,
    encoder: LadderEncoder,
    vi: VariationalInference,
    decoder: GraphDecoder,
    discriminator: Discriminator,
    enc_params: ParamStore,
    gen_params: ParamStore,
    disc_params: ParamStore,
    all_params: ParamStore,
    rng: StdRng,
    sim_state: Option<SimState>,
}

/// Whole-graph posterior statistics cached after training for the
/// simulation procedure (paper §III-H: "CPGAN assumes the whole graph can
/// be accommodated in the GPU memory in the graph simulation procedure").
struct SimState {
    /// Per-node posterior means (`n x (k * latent)`).
    mu: Matrix,
    /// Shared posterior standard deviation (`1 x (k * latent)`).
    sigma: Matrix,
    /// Observed degrees, for the degree-proportional node sampling of
    /// §III-E/G during assembly.
    degrees: Vec<f64>,
}

/// Decode work of one [`CpGan::generate`] call, recorded as obs counters
/// once per call (DESIGN.md §9, §16).
#[derive(Default)]
struct DecodeWork {
    /// Rows decoded, pad rows and fallback decodes included.
    rows_decoded: usize,
    /// Rounds whose merge could read nothing, so nothing was decoded.
    rounds_skipped: usize,
    /// Rounds whose step-1 fallback decoded every row a second time.
    rounds_fallback: usize,
}

impl DecodeWork {
    fn record(&self, rows_sampled: usize) {
        cpgan_obs::counter_add("core.generate.rows_sampled", rows_sampled as u64);
        cpgan_obs::counter_add("core.generate.rows_decoded", self.rows_decoded as u64);
        cpgan_obs::counter_add("core.generate.rounds_skipped", self.rounds_skipped as u64);
        cpgan_obs::counter_add("core.generate.rounds_fallback", self.rounds_fallback as u64);
    }
}

impl CpGan {
    /// Builds an untrained model.
    pub fn new(cfg: CpGanConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| model_panic(e))
    }

    /// Fallible [`CpGan::new`]: validates the configuration before any
    /// parameter allocation, so deserialized configs fail with a typed
    /// [`ModelError`] instead of a panic inside layer construction.
    pub fn try_new(cfg: CpGanConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut enc_params = ParamStore::new();
        let encoder = LadderEncoder::try_new(&mut enc_params, &mut rng, &cfg)?;
        let mut gen_params = ParamStore::new();
        let vi = VariationalInference::try_new(&mut gen_params, &mut rng, &cfg)?;
        let decoder = GraphDecoder::try_new(&mut gen_params, &mut rng, &cfg)?;
        let mut disc_params = ParamStore::new();
        let discriminator = Discriminator::try_new(&mut disc_params, &mut rng, &cfg)?;
        let mut all_params = ParamStore::new();
        all_params.extend(&enc_params);
        all_params.extend(&gen_params);
        all_params.extend(&disc_params);
        Ok(CpGan {
            cfg,
            encoder,
            vi,
            decoder,
            discriminator,
            enc_params,
            gen_params,
            disc_params,
            all_params,
            rng,
            sim_state: None,
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &CpGanConfig {
        &self.cfg
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.all_params.param_count()
    }

    /// The full parameter registry (persistence and optimizer plumbing).
    pub fn params(&self) -> &ParamStore {
        &self.all_params
    }

    /// `(n, m)` of the graph this model was trained on, if trained.
    pub fn trained_shape(&self) -> Option<(usize, usize)> {
        self.sim_state.as_ref().map(|s| {
            let m = (s.degrees.iter().sum::<f64>() / 2.0).round() as usize;
            (s.mu.rows(), m)
        })
    }

    /// Raw simulation-state triple `(mu, sigma, degrees)` for persistence.
    pub(crate) fn sim_state_raw(&self) -> Option<(Matrix, Matrix, Vec<f64>)> {
        self.sim_state
            .as_ref()
            .map(|s| (s.mu.clone(), s.sigma.clone(), s.degrees.clone()))
    }

    /// Restores the simulation state from a persistence snapshot.
    pub(crate) fn set_sim_state_raw(&mut self, raw: Option<(Matrix, Matrix, Vec<f64>)>) {
        self.sim_state = raw.map(|(mu, sigma, degrees)| SimState { mu, sigma, degrees });
    }

    /// Node features: spectral embedding plus a normalized log-degree
    /// column, so the decoder can reproduce the degree distribution (the
    /// paper's X = X(A) leaves the feature map unspecified beyond "derived
    /// from the adjacency matrix").
    fn features(&self, g: &Graph, seed: u64) -> Matrix {
        let d = self.cfg.spectral_dim;
        let d_eff = d.min(g.n());
        let spec = spectral::spectral_embedding(g, d_eff, seed);
        let max_deg = (0..g.n()).map(|v| g.degree(v as NodeId)).max().unwrap_or(1);
        let norm = ((max_deg + 1) as f32).ln();
        Matrix::from_fn(g.n(), d + 1, |r, c| {
            if c < d_eff {
                spec[r * d_eff + c]
            } else if c < d {
                // Zero padding when the graph is smaller than the embedding
                // width (layer shapes stay fixed).
                0.0
            } else {
                ((g.degree(r as NodeId) + 1) as f32).ln() / norm
            }
        })
    }

    /// Decodes latent rows into link logits (`n x n`).
    fn decode_logits(&self, tape: &Tape, z: &Var) -> Var {
        let levels = self.encoder.levels();
        let blocks = self.vi.split_levels(tape, z, levels);
        let h = self.decoder.decode_nodes(tape, &blocks);
        self.decoder.link_logits(tape, &h)
    }

    /// Link probabilities of the latent rows `z` (`n x n`), taken off
    /// `z`'s tape. Every caller passes an inference tape, so each decode
    /// intermediate is released as soon as the decode is past it.
    fn decode_probabilities(&self, tape: &Tape, z: &Var) -> Matrix {
        self.decode_logits(tape, z).sigmoid().into_value()
    }

    /// Encodes `g` from its node features on `tape` and returns `Z_rec`,
    /// the levels stacked column-wise: the VI module's input. The other
    /// encoder outputs are dropped on return, so an inference tape releases
    /// them before the VI forward runs.
    fn encode_rec(&self, tape: &Tape, g: &Graph, feats: Matrix) -> Var {
        let x = tape.constant(feats);
        let adj = Arc::new(Csr::normalized_adjacency(g));
        let enc = self.encoder.encode(tape, &AdjInput::Sparse(adj), &x);
        Var::concat_cols(&enc.z_rec)
    }

    /// Clustering-consistency loss `L_clus` (paper §III-F2): cross-entropy
    /// between composed assignment matrices and Louvain hierarchy labels.
    fn clus_loss(&self, tape: &Tape, enc: &EncoderOutput, truth: &[Vec<usize>]) -> Var {
        if enc.assignments_composed.is_empty() || truth.is_empty() {
            return tape.scalar(0.0);
        }
        let mut total = tape.scalar(0.0);
        for (l, composed) in enc.assignments_composed.iter().enumerate() {
            let labels = &truth[l.min(truth.len() - 1)];
            let (n, c) = composed.shape();
            let mut mask = Matrix::zeros(n, c);
            for (i, &y) in labels.iter().enumerate() {
                mask.set(i, y % c, 1.0);
            }
            let mask = tape.constant(mask);
            let ce = composed.ln().mul(&mask).sum_all().scale(-1.0 / n as f32);
            total = total.add(&ce);
        }
        total
    }

    /// One optimizer pass over a sampled subgraph. Returns epoch stats.
    fn train_step(
        &mut self,
        sub: &Graph,
        feats: Matrix,
        truth: &[Vec<usize>],
        opt_d: &mut Adam,
        opt_g: &mut Adam,
        epoch: usize,
    ) -> EpochStats {
        let ns = sub.n();
        let adj = Arc::new(Csr::normalized_adjacency(sub));
        let a_target = Arc::new(Matrix::from_vec(ns, ns, sub.dense_adjacency()));
        // Class-balance weights for the dense adjacency BCE.
        let m = sub.m() as f32;
        let possible = (ns * ns) as f32;
        let pos_weight = ((possible - 2.0 * m) / (2.0 * m + 1.0)).clamp(1.0, 50.0);
        let bce_weights = Arc::new(a_target.map(|t| if t > 0.5 { pos_weight } else { 1.0 }));

        let scalar_one = |v: &Var| {
            let ones = Arc::new(Matrix::full(1, 1, 1.0));
            v.bce_with_logits_mean(&ones, None)
        };
        let scalar_zero = |v: &Var| {
            let zeros = Arc::new(Matrix::zeros(1, 1));
            v.bce_with_logits_mean(&zeros, None)
        };

        // ---- Discriminator step (Eq. 17) ----
        let (d_loss_v, clus_v) = {
            let _span = cpgan_obs::span("core.d_step");
            let tape = Tape::new();
            let x = tape.constant(feats.clone());
            let enc_real = self
                .encoder
                .encode(&tape, &AdjInput::Sparse(Arc::clone(&adj)), &x);
            let real_logit = self.discriminator.logit(&tape, &enc_real.readout_flat);

            // Reconstruction path.
            let z_rec_cat = Var::concat_cols(&enc_real.z_rec);
            let z_vae = match self.cfg.variant {
                Variant::NoVariational => {
                    // Project hidden -> latent deterministically via the VI
                    // mean head (no sampling, no KL).
                    self.vi.forward(&tape, &z_rec_cat, &mut self.rng).mu
                }
                _ => self.vi.forward(&tape, &z_rec_cat, &mut self.rng).z,
            };
            // Detach the generated probabilities: the discriminator update
            // must not flow back into the generator (Eq. 17 differentiates
            // w.r.t. phi_D only). So they are decoded on an inference tape
            // and enter this one as a constant.
            let fake_probs = {
                let detached = Tape::inference();
                let z = detached.constant(z_vae.value());
                tape.constant(self.decode_probabilities(&detached, &z))
            };
            let enc_fake = self.encoder.encode(&tape, &AdjInput::Dense(fake_probs), &x);
            let fake_logit = self.discriminator.logit(&tape, &enc_fake.readout_flat);

            // Prior path (also detached).
            let prior_probs = {
                let detached = Tape::inference();
                let z_prior = self.vi.sample_prior(&detached, ns, &mut self.rng);
                tape.constant(self.decode_probabilities(&detached, &z_prior))
            };
            let enc_prior = self
                .encoder
                .encode(&tape, &AdjInput::Dense(prior_probs), &x);
            let prior_logit = self.discriminator.logit(&tape, &enc_prior.readout_flat);

            let clus = self.clus_loss(&tape, &enc_real, truth);
            let d_loss = scalar_one(&real_logit)
                .add(&scalar_zero(&fake_logit))
                .add(&scalar_zero(&prior_logit))
                .add(&clus.scale(self.cfg.clus_weight));
            let values = (d_loss.item(), clus.item());
            self.all_params.zero_grad();
            d_loss.backward();
            let mut d_side = ParamStore::new();
            d_side.extend(&self.enc_params);
            d_side.extend(&self.disc_params);
            if cpgan_obs::enabled() {
                cpgan_obs::series_record("train.grad_norm_d", epoch as u64, d_side.grad_norm());
            }
            opt_d.step(&d_side);
            values
        };

        // ---- Generator step (Eq. 18-19) ----
        //
        // Eq. 19 updates the encoder with L_prior + L_rec only — adversarial
        // gradients never reach the encoder/VI on the generator side. We
        // realize that routing by detaching the latent before the
        // adversarial decode, so the minimax term can only move the decoder
        // (Eq. 18), and we apply it intermittently so the (rank-deficient,
        // readout-mean-based) adversarial direction cannot drown the
        // likelihood signal under Adam's per-parameter normalization.
        let adv_this_epoch = self.cfg.adv_weight > 0.0 && epoch.is_multiple_of(5);
        let (g_loss_v, kl_v, recon_v) = {
            let _span = cpgan_obs::span("core.g_step");
            let tape = Tape::new();
            let x = tape.constant(feats);
            let enc_real = self
                .encoder
                .encode(&tape, &AdjInput::Sparse(Arc::clone(&adj)), &x);

            let z_rec_cat = Var::concat_cols(&enc_real.z_rec);
            let vi_out = self.vi.forward(&tape, &z_rec_cat, &mut self.rng);
            let (z_vae, kl) = match self.cfg.variant {
                Variant::NoVariational => (vi_out.mu.clone(), tape.scalar(0.0)),
                _ => (vi_out.z, vi_out.kl),
            };
            // Likelihood path (gradients to encoder + VI + decoder).
            let fake_logits = self.decode_logits(&tape, &z_vae);
            let fake_probs = fake_logits.sigmoid();
            let enc_fake = self
                .encoder
                .encode(&tape, &AdjInput::Dense(fake_probs.clone()), &x);

            // Adversarial path (decoder only): decode from a detached latent.
            let adv = if adv_this_epoch {
                let z_detached = tape.constant(z_vae.value());
                let fake_probs_adv = self.decode_logits(&tape, &z_detached).sigmoid();
                let enc_fake_adv = self
                    .encoder
                    .encode(&tape, &AdjInput::Dense(fake_probs_adv), &x);
                let fake_logit = self.discriminator.logit(&tape, &enc_fake_adv.readout_flat);
                let z_prior = self.vi.sample_prior(&tape, ns, &mut self.rng);
                let prior_probs = self.decode_logits(&tape, &z_prior).sigmoid();
                let enc_prior = self
                    .encoder
                    .encode(&tape, &AdjInput::Dense(prior_probs), &x);
                let prior_logit = self.discriminator.logit(&tape, &enc_prior.readout_flat);
                scalar_one(&fake_logit).add(&scalar_one(&prior_logit))
            } else {
                tape.scalar(0.0)
            };

            // Mapping consistency L_rec = ||E(A) - E(A')||^2 (from CycleGAN,
            // §III-F3) over the readout embeddings (Eq. 19's encoder term).
            let l_rec = enc_real
                .readout_flat
                .sub(&enc_fake.readout_flat)
                .square()
                .mean_all();

            // Hierarchical-VAE likelihood term: reconstruct A_sub (Eq. 14).
            let recon = fake_logits.bce_with_logits_mean(&a_target, Some(&bce_weights));

            let g_loss = adv
                .scale(self.cfg.adv_weight)
                .add(&l_rec.scale(self.cfg.rec_weight))
                .add(&kl.scale(self.cfg.kl_weight))
                .add(&recon.scale(self.cfg.recon_weight));
            let values = (g_loss.item(), kl.item(), recon.item());
            self.all_params.zero_grad();
            g_loss.backward();
            let mut g_side = ParamStore::new();
            g_side.extend(&self.enc_params);
            g_side.extend(&self.gen_params);
            if cpgan_obs::enabled() {
                cpgan_obs::series_record("train.grad_norm_g", epoch as u64, g_side.grad_norm());
            }
            opt_g.step(&g_side);
            values
        };

        EpochStats {
            epoch,
            d_loss: d_loss_v,
            g_loss: g_loss_v,
            clus_loss: clus_v,
            kl_loss: kl_v,
            recon_loss: recon_v,
        }
    }

    /// Trains on one observed graph (paper's single-graph setting) using
    /// degree-proportional subgraph sampling per epoch.
    pub fn fit(&mut self, g: &Graph) -> TrainStats {
        let _span = cpgan_obs::span("core.fit");
        cpgan_obs::gauge_set("core.param_count", self.param_count() as f64);
        let mut stats = TrainStats::default();
        let decay = StepDecay {
            lr0: self.cfg.learning_rate,
            decay: self.cfg.lr_decay,
            every: self.cfg.lr_decay_every,
        };
        let mut opt_d = Adam::with_lr(decay.lr0);
        let mut opt_g = Adam::with_lr(decay.lr0);
        let epochs = self.cfg.epochs;
        // One seeded subgraph stream for the whole run: batch grouping can
        // never change the sampled sequence (DESIGN.md §13).
        let mut sampler = SubgraphSampler::new(self.cfg.seed.wrapping_add(0x5eed));
        // Spectral features are computed once on the observed graph
        // (X = X(A), §III-C1); sampled subgraphs reuse the corresponding
        // rows, keeping the encoder's input distribution stationary across
        // epochs.
        let full_feats = self.features(g, self.cfg.seed);
        for epoch in 0..epochs {
            let _epoch_span = cpgan_obs::span("core.epoch");
            let lr = decay.at(epoch);
            opt_d.set_learning_rate(lr);
            opt_g.set_learning_rate(lr);
            let (sub, ids) = if g.n() > self.cfg.sample_size {
                match sampler.next_subgraph(g, self.cfg.sample_size) {
                    Ok(draw) => draw,
                    // Unreachable under the guard above (sample_size < n);
                    // train on the whole graph rather than abort mid-fit.
                    Err(_) => (g.clone(), (0..g.n() as NodeId).collect()),
                }
            } else {
                (g.clone(), (0..g.n() as NodeId).collect())
            };
            let d = full_feats.cols();
            let mut sub_feats = Matrix::zeros(sub.n(), d);
            for (r, &v) in ids.iter().enumerate() {
                sub_feats
                    .row_mut(r)
                    .copy_from_slice(full_feats.row(v as usize));
            }
            // Hierarchical Louvain ground truth (paper §III-F2).
            let truth: Vec<Vec<usize>> = louvain::louvain_hierarchy(&sub, self.cfg.seed)
                .into_iter()
                .map(|p| p.labels().to_vec())
                .collect();
            if cpgan_obs::enabled() {
                if let Some(finest) = truth.first() {
                    cpgan_obs::series_record(
                        "train.modularity_q",
                        epoch as u64,
                        cpgan_community::modularity::modularity(&sub, finest),
                    );
                }
            }
            let es = self.train_step(&sub, sub_feats, &truth, &mut opt_d, &mut opt_g, epoch);
            cpgan_obs::series_record("train.d_loss", epoch as u64, f64::from(es.d_loss));
            cpgan_obs::series_record("train.g_loss", epoch as u64, f64::from(es.g_loss));
            cpgan_obs::series_record("train.clus_loss", epoch as u64, f64::from(es.clus_loss));
            cpgan_obs::series_record("train.kl_loss", epoch as u64, f64::from(es.kl_loss));
            cpgan_obs::series_record("train.recon_loss", epoch as u64, f64::from(es.recon_loss));
            stats.epochs.push(es);
        }
        // Simulation state: encode the whole observed graph once (this is
        // the step that requires the full graph in device memory, §III-H).
        let (mu, sigma) = self.encode_latents(g, full_feats);
        self.sim_state = Some(SimState {
            mu,
            sigma,
            degrees: g.degrees().iter().map(|&d| d as f64).collect(),
        });
        stats
    }

    /// Encodes `g` from its node features `feats` and returns the per-node
    /// posterior means and the shared posterior standard deviation row.
    /// Runs on an inference tape: this whole-graph pass sets CPGAN's peak
    /// memory (Table IX), and it never runs backward.
    fn encode_latents(&mut self, g: &Graph, feats: Matrix) -> (Matrix, Matrix) {
        let tape = Tape::inference();
        let z_rec_cat = self.encode_rec(&tape, g, feats);
        // The sample and the KL are drawn (the RNG stream depends on it) and
        // released at once: only the posterior is kept.
        let ViOutput { mu, var, .. } = self.vi.forward(&tape, &z_rec_cat, &mut self.rng);
        drop(z_rec_cat);
        (mu.into_value(), var.sqrt().into_value())
    }

    /// Generates a new graph with `n` nodes and (approximately) `m` edges by
    /// decoding latent samples subgraph-by-subgraph and assembling the
    /// output adjacency (paper §III-G).
    ///
    /// When the model has been trained and `n` matches the observed graph,
    /// subgraphs are decoded from the cached per-node posterior (fresh noise
    /// per call), which is what makes the generated graph's community
    /// memberships node-aligned with the observed graph — the property
    /// Table III's NMI/ARI measure. For other sizes, latents come from the
    /// standard-normal prior (Eq. 16's `Z_s` path).
    ///
    /// Panics when `n` exceeds [`NodeId::MAX`]; [`CpGan::try_generate`]
    /// returns that as an error instead.
    pub fn generate(&self, n: usize, m: usize, rng: &mut StdRng) -> Graph {
        self.try_generate(n, m, rng)
            .unwrap_or_else(|e| model_panic(e))
    }

    /// Fallible [`CpGan::generate`]: a node count above [`NodeId::MAX`]
    /// is a typed [`ModelError::TooManyNodes`], returned before anything
    /// is allocated.
    pub fn try_generate(&self, n: usize, m: usize, rng: &mut StdRng) -> Result<Graph, ModelError> {
        if NodeId::try_from(n).is_err() {
            return Err(ModelError::TooManyNodes { requested: n });
        }
        let _span = cpgan_obs::span("core.generate");
        let ns = self.cfg.sample_size.min(n).max(2);
        let mut asm = GraphAssembler::new(n, m);
        let posterior = self.sim_state.as_ref().filter(|s| s.mu.rows() == n);
        if let Some(state) = posterior {
            // Degree budgets equal to the observed degrees: top-k fills the
            // highest-probability pairs under the budgets and the residual
            // Chung-Lu pass tops every node up toward its target degree, so
            // the generated degree sequence tracks the observed one.
            let budgets: Vec<usize> = state.degrees.iter().map(|&d| d as usize).collect();
            asm = asm.with_degree_budgets(budgets);
        }
        // Budget per subgraph: proportional share of the edge target.
        let rounds_estimate = (n as f64 / ns as f64).ceil().max(1.0);
        let per_round = ((m as f64 / rounds_estimate).ceil() as usize).max(1);
        let max_rounds = (rounds_estimate as usize) * 8 + 16;
        let mut round = 0;
        // Degree-proportional node sampling when degrees are known.
        let mut draw = NodeDraw::new(match posterior {
            Some(s) => s.degrees.clone(),
            None => vec![1.0; n],
        });
        let mut work = DecodeWork::default();
        while !asm.is_complete() && round < max_rounds {
            round += 1;
            // Degree-proportional without replacement, `ns` nodes a round.
            let nodes = {
                let _span = cpgan_obs::span("core.generate.draw");
                draw.draw(ns, rng)
            };
            // Drawn every round, decoded or not, so the stream never
            // depends on which rows a round decodes.
            let noise_seed: u64 = rng.gen();
            match posterior {
                Some(state) => {
                    // The merge decodes the rows it reads through the
                    // closure, so `.noise` and `.decode` nest in `.merge`.
                    let _span = cpgan_obs::span("core.generate.merge");
                    let mut decodes = 0;
                    asm.add_subgraph_decoded(nodes, per_round, rng, |rows| {
                        decodes += 1;
                        work.rows_decoded += rows.len();
                        self.decode_posterior_rows(state, nodes, noise_seed, rows)
                    });
                    match decodes {
                        0 => work.rounds_skipped += 1,
                        1 => {}
                        _ => work.rounds_fallback += 1,
                    }
                }
                None => {
                    // No budgets, so every row is live: the round decodes
                    // all of them straight from the prior, with no copy.
                    let tape = Tape::inference();
                    let z = {
                        let _span = cpgan_obs::span("core.generate.noise");
                        let mut noise_rng = StdRng::seed_from_u64(noise_seed);
                        self.vi.sample_prior(&tape, ns, &mut noise_rng)
                    };
                    let probs = {
                        let _span = cpgan_obs::span("core.generate.decode");
                        self.decode_probabilities(&tape, &z)
                    };
                    work.rows_decoded += ns;
                    let _span = cpgan_obs::span("core.generate.merge");
                    asm.add_subgraph(nodes, &probs, per_round, rng);
                }
            }
        }
        work.record(round * ns);
        // Top up any deficit with residual-degree Chung-Lu edges so the
        // output hits the edge target with the right degree sequence.
        asm.fill_residual(rng);
        Ok(asm.build())
    }

    /// Link probabilities among the local rows `rows` (ascending) of one
    /// posterior round: row `i` decodes `z_i = mu_v + sigma * eps_i` for
    /// its node `v = nodes[i]`, where `eps` is the round's `n_s x d`
    /// standard-normal draw from `noise_seed`. Only the listed rows of
    /// `eps` are computed (DESIGN.md §16). Decoding works row by row and
    /// every product accumulates in ascending-k order (DESIGN.md §10), so
    /// each entry has the bits it has when all `n_s` rows are decoded.
    fn decode_posterior_rows(
        &self,
        state: &SimState,
        nodes: &[NodeId],
        noise_seed: u64,
        rows: &[usize],
    ) -> Matrix {
        let mut z = {
            let _span = cpgan_obs::span("core.generate.noise");
            let mut noise_rng = StdRng::seed_from_u64(noise_seed);
            cpgan_nn::init::standard_normal_rows(&mut noise_rng, state.mu.cols(), rows)
        };
        let _span = cpgan_obs::span("core.generate.decode");
        for (k, &i) in rows.iter().enumerate() {
            let mu = state.mu.row(nodes[i] as usize);
            for ((z, &m), &s) in z.row_mut(k).iter_mut().zip(mu).zip(state.sigma.row(0)) {
                *z = m + s * *z;
            }
        }
        let tape = Tape::inference();
        let z = tape.constant(z);
        self.decode_probabilities(&tape, &z)
    }

    /// Encodes `g` and returns the full link-probability matrix (`n x n`).
    /// Intended for graphs that fit densely in memory (reconstruction
    /// experiments); callers decide beforehand whether a graph is too
    /// large, as `cpgan_eval::budget::would_oom` does for the paper's
    /// 24 GB GPU.
    pub fn reconstruct_probabilities(&self, g: &Graph) -> Matrix {
        let tape = Tape::inference();
        let z_rec_cat = self.encode_rec(&tape, g, self.features(g, self.cfg.seed));
        // Deterministic reconstruction: use the posterior mean.
        let z = {
            let mut rng = StdRng::seed_from_u64(self.cfg.seed);
            self.vi.forward(&tape, &z_rec_cat, &mut rng).mu
        };
        drop(z_rec_cat);
        self.decode_probabilities(&tape, &z)
    }

    /// Mean negative log-likelihood of a set of edges under a probability
    /// matrix (Table V's NLL columns).
    pub fn edge_nll(probs: &Matrix, edges: &[(NodeId, NodeId)]) -> f64 {
        if edges.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for &(u, v) in edges {
            let p = probs.get(u as usize, v as usize).clamp(1e-6, 1.0);
            total -= (p as f64).ln();
        }
        total / edges.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpgan_community::metrics;

    fn planted_graph(k: usize, size: usize) -> (Graph, Vec<usize>) {
        let n = k * size;
        let mut edges = Vec::new();
        for c in 0..k {
            let base = (c * size) as u32;
            for a in 0..size as u32 {
                for b in (a + 1)..size as u32 {
                    if (a + b) % 2 == 0 || b == a + 1 {
                        edges.push((base + a, base + b));
                    }
                }
            }
            let next = (((c + 1) % k) * size) as u32;
            edges.push((base, next));
        }
        let labels = (0..n).map(|v| v / size).collect();
        (Graph::from_edges(n, edges).unwrap(), labels)
    }

    fn quick_cfg() -> CpGanConfig {
        CpGanConfig {
            hidden_dim: 12,
            latent_dim: 6,
            spectral_dim: 4,
            levels: 2,
            sample_size: 36,
            epochs: 30,
            learning_rate: 3e-3,
            ..CpGanConfig::tiny()
        }
    }

    #[test]
    fn training_runs_and_losses_finite() {
        let (g, _) = planted_graph(3, 12);
        let mut model = CpGan::new(quick_cfg());
        let stats = model.fit(&g);
        assert_eq!(stats.epochs.len(), 30);
        for es in &stats.epochs {
            assert!(es.d_loss.is_finite());
            assert!(es.g_loss.is_finite());
            assert!(es.clus_loss.is_finite());
            assert!(es.kl_loss.is_finite());
        }
    }

    #[test]
    fn reconstruction_loss_decreases() {
        let (g, _) = planted_graph(3, 12);
        let mut model = CpGan::new(CpGanConfig {
            epochs: 60,
            ..quick_cfg()
        });
        let stats = model.fit(&g);
        let first: f32 = stats.epochs[..10].iter().map(|e| e.recon_loss).sum::<f32>() / 10.0;
        let last: f32 = stats.epochs[stats.epochs.len() - 10..]
            .iter()
            .map(|e| e.recon_loss)
            .sum::<f32>()
            / 10.0;
        assert!(last < first, "recon did not improve: {first} -> {last}");
    }

    #[test]
    fn generate_produces_target_size() {
        let (g, _) = planted_graph(3, 12);
        let mut model = CpGan::new(quick_cfg());
        model.fit(&g);
        let mut rng = StdRng::seed_from_u64(9);
        let out = model.generate(g.n(), g.m(), &mut rng);
        assert_eq!(out.n(), g.n());
        let m_ratio = out.m() as f64 / g.m() as f64;
        assert!((0.5..=1.1).contains(&m_ratio), "edge ratio {m_ratio}");
    }

    #[test]
    fn reconstruction_better_than_random_nll() {
        let (g, _) = planted_graph(3, 12);
        let mut model = CpGan::new(CpGanConfig {
            epochs: 80,
            ..quick_cfg()
        });
        model.fit(&g);
        let probs = model.reconstruct_probabilities(&g);
        let nll_edges = CpGan::edge_nll(&probs, g.edges());
        // Non-edges as pseudo "wrong" edges — their probabilities must be
        // lower on average, i.e. higher NLL.
        let mut non_edges = Vec::new();
        'outer: for u in 0..g.n() as u32 {
            for v in (u + 1)..g.n() as u32 {
                if !g.has_edge(u, v) {
                    non_edges.push((u, v));
                    if non_edges.len() >= g.m() {
                        break 'outer;
                    }
                }
            }
        }
        let nll_non = CpGan::edge_nll(&probs, &non_edges);
        assert!(
            nll_edges < nll_non,
            "edges {nll_edges} not more likely than non-edges {nll_non}"
        );
    }

    #[test]
    fn trained_model_preserves_communities_better_than_untrained() {
        let (g, labels) = planted_graph(3, 14);
        let eval = |model: &CpGan| -> f64 {
            let mut rng = StdRng::seed_from_u64(4);
            let out = model.generate(g.n(), g.m(), &mut rng);
            let det = louvain::louvain(&out, 0);
            metrics::nmi(det.labels(), &labels)
        };
        let untrained = CpGan::new(quick_cfg());
        let nmi_untrained = eval(&untrained);
        let mut trained = CpGan::new(CpGanConfig {
            epochs: 100,
            ..quick_cfg()
        });
        trained.fit(&g);
        let nmi_trained = eval(&trained);
        // Trained must be at least as community-preserving; allow slack for
        // the stochastic assembly.
        assert!(
            nmi_trained + 0.05 >= nmi_untrained,
            "training hurt community preservation: {nmi_untrained} -> {nmi_trained}"
        );
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let bad = CpGanConfig {
            latent_dim: 0,
            ..quick_cfg()
        };
        match CpGan::try_new(bad) {
            Err(crate::error::ModelError::Config(e)) => assert_eq!(e.field, "latent_dim"),
            other => panic!("expected config error, got {:?}", other.map(|_| "model")),
        }
    }

    #[test]
    fn try_generate_rejects_node_counts_beyond_node_id() {
        let model = CpGan::new(quick_cfg());
        let mut rng = StdRng::seed_from_u64(1);
        let too_many = usize::try_from(NodeId::MAX).unwrap() + 1;
        match model.try_generate(too_many, 10, &mut rng) {
            Err(crate::error::ModelError::TooManyNodes { requested }) => {
                assert_eq!(requested, too_many);
            }
            other => panic!("expected TooManyNodes, got {:?}", other.map(|g| g.n())),
        }
        assert_eq!(model.try_generate(30, 40, &mut rng).unwrap().n(), 30);
    }

    #[test]
    fn param_count_positive_and_variant_dependent() {
        let full = CpGan::new(quick_cfg());
        let noh = CpGan::new(CpGanConfig {
            variant: Variant::NoHierarchy,
            ..quick_cfg()
        });
        assert!(full.param_count() > noh.param_count());
    }
}
