//! The forward-only tape (`Tape::inference`, DESIGN.md §10).
//!
//! * **Same bits.** Every op family computes on an inference tape exactly
//!   what it computes on a training tape. Each pass below rebinds its
//!   intermediates, so on the inference tape they are released mid-pass and
//!   the next op of the same size writes into their recycled, dirty pool
//!   buffers; the large fixed case splits every kernel into several chunks.
//! * **Release rule.** A node's bytes leave `live_bytes` when its last
//!   handle drops, not while a clone lives, and never on a training tape.
//! * **Intact survivors.** A value read through a live handle after its
//!   parents were released (and their buffers reused) is unchanged.
//! * **No backward.** `try_backward` is `NnError::InferenceTape`.
//!
//! The accounting is process-global, so every test here serializes on one
//! mutex.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_graph::Graph;
use cpgan_nn::layers::{Activation, GcnConv, GruCell, Mlp, PairNorm};
use cpgan_nn::{
    memory, BlockDiagCsr, Csr, FusedAct, Matrix, NnError, Param, ParamStore, Tape, Var,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Deterministic sign-mixed content with no special structure.
fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * cols + c) as f32 + seed as f32 * 0.37) * 0.731 + 0.11).sin() * 1.7
    })
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: inference {g} != training {w}"
        );
    }
}

/// Runs `pass` on a training tape and on an inference tape and asserts the
/// two outputs carry the same bits.
fn assert_same_bits(what: &str, pass: impl Fn(&Tape) -> Var) {
    let want = pass(&Tape::new()).value();
    let got = pass(&Tape::inference()).into_value();
    assert_bits_eq(&got, &want, what);
}

/// A random simple graph with about three edges per node.
fn graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..3 * n)
        .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
        .collect();
    Graph::from_edges(n, edges).unwrap()
}

fn matmul_pass(m: usize, k: usize, n: usize, seed: u64) {
    let (a, b) = (seeded(m, k, seed), seeded(k, n, seed + 1));
    assert_same_bits("matmul/transpose", |t| {
        let x = t.constant(a.clone());
        let w = t.constant(b.clone());
        let mut h = x.matmul(&w);
        h = h.transpose();
        h = h.matmul(&x);
        h = h.matmul(&w);
        h.transpose()
    });
}

fn spmm_pass(n: usize, d: usize, seed: u64) {
    let adj = Arc::new(Csr::normalized_adjacency(&graph(n, seed)));
    let batch = BlockDiagCsr::from_graphs([&graph(n, seed + 1), &graph(n / 2 + 1, seed + 2)]);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = GcnConv::new(&mut store, &mut rng, d, d);
    let (x0, row, xb) = (
        seeded(n, d, seed),
        seeded(1, d, seed + 3),
        seeded(batch.total_rows(), d, seed + 4),
    );
    for act in [
        FusedAct::Identity,
        FusedAct::Relu,
        FusedAct::Sigmoid,
        FusedAct::Tanh,
    ] {
        assert_same_bits("spmm/fused spmm/sparse GCN", |t| {
            let bias = t.constant(row.clone());
            let mut h = t.constant(x0.clone()).spmm(&adj);
            h = h.spmm_bias_act(&adj, Some(&bias), act);
            h = h.spmm_bias_act(&adj, None, act);
            h = conv.forward_sparse(t, &adj, &h);
            conv.forward_sparse_fused(t, &adj, &h, act)
        });
        assert_same_bits("batched fused spmm", |t| {
            let bias = t.constant(row.clone());
            let mut h = t.constant(xb.clone());
            h = h.spmm_bias_act_batched(&batch, Some(&bias), act);
            h.spmm_bias_act_batched(&batch, None, act)
        });
    }
}

fn dense_gcn_pass(n: usize, d: usize, seed: u64) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = GcnConv::new(&mut store, &mut rng, d, d);
    let (a, x0) = (seeded(n, n, seed), seeded(n, d, seed + 1));
    assert_same_bits("dense GCN", |t| {
        let adj = t.constant(a.clone()).softmax_rows();
        let mut h = t.constant(x0.clone());
        h = conv.forward_dense(t, &adj, &h).relu();
        h = conv.forward_dense(t, &adj, &h).relu();
        conv.forward_dense(t, &adj, &h)
    });
}

fn layer_pass(n: usize, d: usize, seed: u64) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let gru = GruCell::new(&mut store, &mut rng, d, d + 3);
    let mlps: Vec<Mlp> = [
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Identity,
    ]
    .into_iter()
    .map(|act| Mlp::new(&mut store, &mut rng, &[d + 3, 2 * d + 1, d], act))
    .collect();
    let steps: Vec<Matrix> = (0..4).map(|s| seeded(n, d, seed + s)).collect();
    assert_same_bits("GruCell/Mlp/PairNorm", |t| {
        let mut h = t.constant(Matrix::zeros(n, d + 3));
        for x in &steps {
            h = gru.forward(t, &t.constant(x.clone()), &h);
            h = PairNorm::new(1.5).forward(t, &h);
        }
        let mut out = mlps[0].forward(t, &h);
        for mlp in &mlps[1..] {
            out = out.add(&mlp.forward(t, &h));
        }
        out
    });
}

fn shape_op_pass(n: usize, d: usize, seed: u64) {
    let (a, b) = (seeded(n, d, seed), seeded(n, d + 2, seed + 1));
    let mut rng = StdRng::seed_from_u64(seed);
    let indices = Arc::new((0..n + 3).map(|_| rng.gen_range(0..n)).collect::<Vec<_>>());
    assert_same_bits("softmax/concat/gather/transpose", |t| {
        let (x, y) = (t.constant(a.clone()), t.constant(b.clone()));
        let mut h = Var::concat_cols(&[x.clone(), y, x.clone()]);
        h = h.softmax_rows();
        h = h.gather_rows(&indices);
        h = h.transpose().softmax_rows().transpose();
        let spread = t.constant(Matrix::full(d, 3 * d + 2, 0.5));
        Var::concat_rows(&[h, x.matmul(&spread)]).softmax_rows()
    });
}

fn activation_pass(n: usize, d: usize, seed: u64) {
    let (a, b, r) = (
        seeded(n, d, seed),
        seeded(n, d, seed + 1),
        seeded(1, d, seed + 2),
    );
    let target = Arc::new(seeded(n, d, seed + 3).map(|v| f32::from(v > 0.0)));
    assert_same_bits("activations/elementwise/reductions", |t| {
        let (x, y) = (t.constant(a.clone()), t.constant(b.clone()));
        let row = t.constant(r.clone());
        let mut h = x.relu();
        h = h.add(&y.sigmoid());
        h = h.tanh().sub(&x);
        h = h.mul(&y).scale(0.5).add_scalar(0.25);
        h = h.square().add_scalar(1.0).sqrt().ln().exp();
        h = h.add_row_broadcast(&row);
        h = h.sub(&h.mean_rows().broadcast_row(n));
        h = h.row_l2_normalize(2.0);
        let losses = Var::concat_cols(&[
            h.sum_all(),
            h.mean_all(),
            h.bce_with_logits_mean(&target, None),
            h.mse_mean(&target),
        ]);
        Var::concat_cols(&[h, losses.broadcast_row(n)])
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_and_transpose_match(m in 1usize..300, k in 1usize..48, n in 1usize..200, seed in 0u64..64) {
        let _serial = serial();
        matmul_pass(m, k, n, seed);
    }

    #[test]
    fn plain_fused_and_batched_spmm_match(n in 1usize..400, d in 1usize..40, seed in 0u64..64) {
        let _serial = serial();
        spmm_pass(n, d, seed);
    }

    #[test]
    fn dense_gcn_matches(n in 1usize..120, d in 1usize..24, seed in 0u64..64) {
        let _serial = serial();
        dense_gcn_pass(n, d, seed);
    }

    #[test]
    fn gru_mlp_and_pairnorm_match(n in 1usize..200, d in 1usize..24, seed in 0u64..64) {
        let _serial = serial();
        layer_pass(n, d, seed);
    }

    #[test]
    fn softmax_concat_gather_and_transpose_match(n in 1usize..300, d in 1usize..32, seed in 0u64..64) {
        let _serial = serial();
        shape_op_pass(n, d, seed);
    }

    #[test]
    fn activations_and_reductions_match(n in 1usize..300, d in 1usize..32, seed in 0u64..64) {
        let _serial = serial();
        activation_pass(n, d, seed);
    }
}

/// Shapes large enough that every parallel kernel splits into several
/// chunks, so multi-chunk ops write into recycled buffers at any
/// `CPGAN_THREADS`.
#[test]
fn multi_chunk_shapes_match() {
    let _serial = serial();
    matmul_pass(1024, 64, 300, 5);
    spmm_pass(4096, 64, 6);
    dense_gcn_pass(600, 32, 7);
    layer_pass(2048, 40, 8);
    shape_op_pass(2048, 48, 9);
    activation_pass(1024, 300, 10);
}

/// Element bytes of a `rows x cols` matrix.
fn bytes(rows: usize, cols: usize) -> usize {
    rows * cols * std::mem::size_of::<f32>()
}

#[test]
fn the_last_handle_releases_an_intermediate_and_a_clone_keeps_it() {
    let _serial = serial();
    // Sizes no other test here allocates.
    const R: usize = 613;
    const C: usize = 11;
    let tape = Tape::inference();
    let x = tape.constant(seeded(R, C, 3));
    let y = x.scale(2.0);
    let live = memory::live_bytes();

    let y2 = y.clone();
    drop(y);
    assert_eq!(memory::live_bytes(), live, "a live clone keeps the value");
    assert_bits_eq(&y2.value(), &seeded(R, C, 3).map(|v| v * 2.0), "clone");

    drop(y2);
    assert_eq!(
        memory::live_bytes(),
        live - bytes(R, C),
        "the last handle releases the value"
    );
    drop(x);
    assert_eq!(memory::live_bytes(), live - 2 * bytes(R, C));
    drop(tape);
    assert_eq!(memory::live_bytes(), live - 2 * bytes(R, C));
}

#[test]
fn a_training_tape_keeps_every_value_until_it_drops() {
    let _serial = serial();
    const R: usize = 617;
    const C: usize = 13;
    let tape = Tape::new();
    let x = tape.constant(seeded(R, C, 4));
    let y = x.scale(2.0);
    let live = memory::live_bytes();
    drop(y);
    drop(x);
    assert_eq!(memory::live_bytes(), live, "backward needs every node");
    drop(tape);
    assert_eq!(memory::live_bytes(), live - 2 * bytes(R, C));
}

#[test]
fn into_value_moves_the_last_handle_and_clones_a_shared_one() {
    let _serial = serial();
    const R: usize = 619;
    const C: usize = 17;
    let want = seeded(R, C, 5).map(|v| v + 1.0);
    let tape = Tape::inference();
    let y = tape.constant(seeded(R, C, 5)).add_scalar(1.0);
    let keep = y.clone();
    let live = memory::live_bytes();
    let copied = y.into_value();
    assert_eq!(
        memory::live_bytes(),
        live + bytes(R, C),
        "a shared node is cloned"
    );
    assert_bits_eq(&copied, &want, "cloned value");
    drop(copied);
    let moved = keep.into_value();
    assert_eq!(
        memory::live_bytes(),
        live,
        "the last handle's value moves off the tape"
    );
    assert_bits_eq(&moved, &want, "moved value");
}

#[test]
fn a_value_outlives_its_released_parents_intact() {
    let _serial = serial();
    const M: usize = 509;
    const K: usize = 19;
    const N: usize = 23;
    let (a, b) = (seeded(M, K, 6), seeded(K, N, 7));
    let pass = |t: &Tape| {
        let x = t.constant(a.clone());
        let w = t.constant(b.clone());
        let h = x.matmul(&w).relu();
        h.tanh()
    };
    let want = pass(&Tape::new()).value();

    let tape = Tape::inference();
    let live = memory::live_bytes();
    let out = pass(&tape);
    assert_eq!(
        memory::live_bytes(),
        live + bytes(M, N),
        "only the surviving output is live; its parents were released"
    );
    // Allocations of the parents' sizes take their recycled buffers: fill
    // them with junk before reading the survivor.
    let junk: Vec<Matrix> = [(M, K), (K, N), (M, N), (M, N)]
        .into_iter()
        .map(|(r, c)| Matrix::full(r, c, f32::NAN))
        .collect();
    assert_bits_eq(&out.value(), &want, "survivor");
    drop(junk);
}

#[test]
fn backward_on_an_inference_tape_is_a_typed_error() {
    let _serial = serial();
    let p = Param::new(seeded(3, 4, 8));
    let tape = Tape::inference();
    let loss = tape.param(&p).square().sum_all();
    assert_eq!(loss.try_backward(), Err(NnError::InferenceTape));
    assert!(
        p.lock().grad.as_slice().iter().all(|&g| g == 0.0),
        "no gradient reached the parameter"
    );
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loss.backward()))
        .expect_err("backward must refuse an inference tape");
    let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("inference tape"), "{msg}");

    // The same pass on a training tape runs backward.
    let tape = Tape::new();
    let loss = tape.param(&p).square().sum_all();
    assert_eq!(loss.try_backward(), Ok(()));
    assert!(p.lock().grad.as_slice().iter().any(|&g| g != 0.0));
}
