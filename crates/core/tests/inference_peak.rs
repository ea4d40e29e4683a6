//! Peak tensor memory of the whole-graph encode plus VI forward — the
//! simulation-state pass of §III-H, which sets CPGAN's Table IX peak — on
//! an inference tape against the same pass on a training tape.
//!
//! The pass uses the public `LadderEncoder` and `VariationalInference`
//! calls, in the order `CpGan::fit` makes them. The tensor accounting is
//! process-global, so this file holds a single test.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::unwrap_used)]

use cpgan::encoder::{AdjInput, LadderEncoder};
use cpgan::vi::VariationalInference;
use cpgan::CpGanConfig;
use cpgan_graph::Graph;
use cpgan_nn::{memory, Csr, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Node count of the Table VII–IX sweep cell this pass stands for.
const NODES: usize = 10_000;

/// A graph shaped like the 10k sweep graph: mean degree 8, `sqrt(n)`
/// planted communities, 15% of edges between communities.
fn sweep_shaped(n: usize, seed: u64) -> Graph {
    let k = (n as f64).sqrt() as usize;
    let size = n.div_ceil(k);
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..4 * n)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = if rng.gen::<f64>() < 0.15 {
                rng.gen_range(0..n)
            } else {
                let c = u / size;
                rng.gen_range(c * size..((c + 1) * size).min(n))
            };
            (u as u32, v as u32)
        })
        .collect();
    Graph::from_edges(n, edges).unwrap()
}

/// Runs encode + VI on `tape` and returns the pass's tensor peak above
/// what was live before it, with the posterior `(mu, sigma)` it produced.
fn encode_vi(tape: &Tape, g: &Graph, cfg: &CpGanConfig) -> (usize, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut enc_params = ParamStore::new();
    let encoder = LadderEncoder::try_new(&mut enc_params, &mut rng, cfg).unwrap();
    let mut gen_params = ParamStore::new();
    let vi = VariationalInference::try_new(&mut gen_params, &mut rng, cfg).unwrap();
    let feats = Matrix::from_fn(g.n(), cfg.spectral_dim + 1, |r, c| {
        ((r * 31 + c * 7) as f32 * 0.013).sin()
    });
    let adj = Arc::new(Csr::normalized_adjacency(g));

    let base = memory::live_bytes();
    memory::reset_peak();
    let z_rec = {
        let x = tape.constant(feats);
        let enc = encoder.encode(tape, &AdjInput::Sparse(adj), &x);
        Var::concat_cols(&enc.z_rec)
    };
    let out = vi.forward(tape, &z_rec, &mut rng);
    drop(z_rec);
    let (mu, sigma) = (out.mu.value(), out.var.sqrt().value());
    (memory::peak_bytes() - base, mu, sigma)
}

#[test]
fn whole_graph_encode_peaks_below_forty_percent_of_the_training_tape() {
    let g = sweep_shaped(NODES, 1);
    let cfg = CpGanConfig::default();
    let (train_peak, train_mu, train_sigma) = encode_vi(&Tape::new(), &g, &cfg);
    let (peak, mu, sigma) = encode_vi(&Tape::inference(), &g, &cfg);

    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&mu), bits(&train_mu), "posterior means differ");
    assert_eq!(bits(&sigma), bits(&train_sigma), "posterior sigma differs");

    let mib = |b: usize| b as f64 / f64::from(1 << 20);
    assert!(
        peak * 10 <= train_peak * 4,
        "inference tape peaked at {:.1} MiB, {:.0}% of the training tape's {:.1} MiB",
        mib(peak),
        100.0 * peak as f64 / train_peak as f64,
        mib(train_peak),
    );
}
