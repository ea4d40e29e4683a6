//! Fused+batched vs unfused+unbatched subgraph training throughput,
//! written to `results/BENCH_train.json`.
//!
//! Usage: `cargo run --release -p bench --bin train
//!         [--threads N] [--assert-min-ratio R]`
//!
//! Both legs train the same two-layer GCN autoencoder on the same seeded
//! stream of degree-proportional subgraph draws (DESIGN §13), so the work
//! per epoch is identical math over identical data:
//!
//! * `unfused` — one tape, one optimizer step, and one composed
//!   `matmul → spmm → add_row_broadcast → relu` chain *per subgraph*, the
//!   historical training loop shape,
//! * `fused` — the whole batch packed into one `BlockDiagCsr` and pushed
//!   through the fused `spmm_bias_act` op, one optimizer step per batch.
//!
//! Epochs/second are reported for both legs pinned to 1 thread (the
//! apples-to-apples figure the CI gate reads) plus the fused leg at `N`
//! threads (informational). `--assert-min-ratio R` exits nonzero unless
//! `fused_serial / unfused_serial >= R` — the CI regression gate for the
//! fusion/batching work.

use bench::{best_of, Bench};
use cpgan_deep::common;
use cpgan_graph::sampling::SubgraphSampler;
use cpgan_nn::layers::Linear;
use cpgan_nn::optim::{Adam, Optimizer};
use cpgan_nn::{Csr, FusedAct, Matrix, ParamStore, Tape, Var};
use cpgan_parallel::with_thread_count;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;

/// Fixture half-block size (full graph has `2 * BLOCK` nodes).
const BLOCK: usize = 200;
const SAMPLE_SIZE: usize = 12;
const BATCH_SIZE: usize = 48;
const FEATURE_DIM: usize = 16;
const HIDDEN_DIM: usize = 32;
const LATENT_DIM: usize = 16;
/// Training epochs per timed repetition (1 epoch = `BATCH_SIZE` subgraphs).
const EPOCHS_PER_REP: usize = 10;
const REPS: usize = 9;
const SAMPLER_SEED: u64 = 0xbe9c;

/// The two-layer GCN autoencoder both legs train: `relu(Â X W1 + b1)` then
/// `Â H W2 + b2`, inner-product decode, class-balanced BCE.
struct Model {
    store: ParamStore,
    l1: Linear,
    l2: Linear,
}

impl Model {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let l1 = Linear::new(&mut store, &mut rng, FEATURE_DIM, HIDDEN_DIM, true);
        let l2 = Linear::new(&mut store, &mut rng, HIDDEN_DIM, LATENT_DIM, true);
        Model { store, l1, l2 }
    }
}

/// One unfused, unbatched training pass: a separate tape, composed op
/// chain, and optimizer step per subgraph.
fn run_unfused(g: &cpgan_graph::Graph, feats: &Matrix, model: &Model, opt: &mut Adam) {
    let mut sampler = SubgraphSampler::new(SAMPLER_SEED);
    for _ in 0..EPOCHS_PER_REP {
        let draws = sampler
            .next_batch(g, SAMPLE_SIZE, BATCH_SIZE)
            .unwrap_or_default();
        for (sub, ids) in draws {
            let adj = Arc::new(Csr::normalized_adjacency(&sub));
            let (target, weights) = common::adjacency_target(&sub);
            let mut data = Vec::with_capacity(sub.n() * FEATURE_DIM);
            for &id in &ids {
                data.extend_from_slice(feats.row(id as usize));
            }
            let tape = Tape::new();
            let x = tape.constant(Matrix::from_vec(sub.n(), FEATURE_DIM, data));
            let b1 = model.l1.bias().map(|b| tape.param(b));
            let b2 = model.l2.bias().map(|b| tape.param(b));
            let mut h = model.l1.forward_weight(&tape, &x).spmm(&adj);
            if let Some(b) = &b1 {
                h = h.add_row_broadcast(b);
            }
            let h = h.relu();
            let mut z = model.l2.forward_weight(&tape, &h).spmm(&adj);
            if let Some(b) = &b2 {
                z = z.add_row_broadcast(b);
            }
            let logits = z.matmul(&z.transpose());
            let loss = logits.bce_with_logits_mean(&target, Some(&weights));
            model.store.zero_grad();
            loss.backward();
            opt.step(&model.store);
        }
    }
}

/// One fused, batched training pass: the whole batch packed into a
/// `BlockDiagCsr`, fused `spmm_bias_act` per layer, one optimizer step
/// per batch.
fn run_fused(g: &cpgan_graph::Graph, feats: &Matrix, model: &Model, opt: &mut Adam) {
    let mut sampler = SubgraphSampler::new(SAMPLER_SEED);
    let inv_b = 1.0 / BATCH_SIZE as f32;
    for _ in 0..EPOCHS_PER_REP {
        let batch = common::sample_batch(g, feats, &mut sampler, SAMPLE_SIZE, BATCH_SIZE);
        let tape = Tape::new();
        let x = tape.constant(batch.feats.clone());
        let b1 = model.l1.bias().map(|b| tape.param(b));
        let b2 = model.l2.bias().map(|b| tape.param(b));
        let h = model.l1.forward_weight(&tape, &x).spmm_bias_act_batched(
            &batch.ops,
            b1.as_ref(),
            FusedAct::Relu,
        );
        let z = model.l2.forward_weight(&tape, &h).spmm_bias_act_batched(
            &batch.ops,
            b2.as_ref(),
            FusedAct::Identity,
        );
        let mut loss: Option<Var> = None;
        for (b, rows) in batch.rows.iter().enumerate() {
            let zb = z.gather_rows(rows);
            let logits = zb.matmul(&zb.transpose());
            let (t, w) = &batch.targets[b];
            let r = logits.bce_with_logits_mean(t, Some(w));
            loss = Some(match loss {
                None => r,
                Some(acc) => acc.add(&r),
            });
        }
        let Some(loss) = loss else { continue };
        let loss = loss.scale(inv_b);
        model.store.zero_grad();
        loss.backward();
        opt.step(&model.store);
    }
}

#[derive(Serialize)]
struct Config {
    nodes: usize,
    sample_size: usize,
    batch_size: usize,
    feature_dim: usize,
    hidden_dim: usize,
    latent_dim: usize,
    epochs_per_rep: usize,
}

#[derive(Serialize)]
struct Throughput {
    unfused_serial_eps: f64,
    fused_serial_eps: f64,
    fused_parallel_eps: f64,
    fused_vs_unfused_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    train: Throughput,
}

fn main() {
    let mut bench = Bench::parallel("train", &["assert-min-ratio"]);
    let threads = bench.threads();
    eprintln!(
        "subgraph training: unfused/unbatched vs fused/batched, \
         {BATCH_SIZE}x{SAMPLE_SIZE}-node subgraphs, serial + {threads} thread(s)..."
    );

    let (g, _) = common::two_block_fixture(BLOCK);
    let feats = common::features(&g, FEATURE_DIM, 1);
    // Each leg keeps its own model + Adam state so neither warms the other's
    // buffers or moments; both start from identical seeded weights.
    let m_unfused = Model::new(7);
    let m_fused = Model::new(7);
    let m_fused_par = Model::new(7);
    let mut opt_unfused = Adam::with_lr(5e-3);
    let mut opt_fused = Adam::with_lr(5e-3);
    let mut opt_fused_par = Adam::with_lr(5e-3);

    // The two *serial* legs interleave so frequency drift on a busy box hits
    // both alike; keeping the oversubscribed parallel leg out of the rotation
    // stops its worker churn from perturbing the serial timings the gate reads.
    let [unfused_s, fused_s] = best_of(
        REPS,
        [
            &mut || with_thread_count(1, || run_unfused(&g, &feats, &m_unfused, &mut opt_unfused)),
            &mut || with_thread_count(1, || run_fused(&g, &feats, &m_fused, &mut opt_fused)),
        ],
    );
    let [fused_par_s] = best_of(
        REPS,
        [&mut || {
            with_thread_count(threads, || {
                run_fused(&g, &feats, &m_fused_par, &mut opt_fused_par)
            })
        }],
    );
    let eps = |t: f64| EPOCHS_PER_REP as f64 / t.max(1e-12);
    let (unfused_eps, fused_eps, fused_par_eps) = (eps(unfused_s), eps(fused_s), eps(fused_par_s));
    let ratio = fused_eps / unfused_eps.max(1e-12);
    eprintln!(
        "unfused(1T) {unfused_eps:7.2}  fused(1T) {fused_eps:7.2}  \
         fused({threads}T) {fused_par_eps:7.2} epochs/s  ratio {ratio:.2}x"
    );
    bench.gate(
        "assert-min-ratio",
        "fused/unfused epochs-per-second ratio",
        ratio,
    );
    bench.finish(&Report {
        config: Config {
            nodes: 2 * BLOCK,
            sample_size: SAMPLE_SIZE,
            batch_size: BATCH_SIZE,
            feature_dim: FEATURE_DIM,
            hidden_dim: HIDDEN_DIM,
            latent_dim: LATENT_DIM,
            epochs_per_rep: EPOCHS_PER_REP,
        },
        train: Throughput {
            unfused_serial_eps: unfused_eps,
            fused_serial_eps: fused_eps,
            fused_parallel_eps: fused_par_eps,
            fused_vs_unfused_ratio: ratio,
        },
    });
}
