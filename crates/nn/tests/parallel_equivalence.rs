//! Serial-equivalence suite: every parallelized nn kernel must produce
//! bit-identical f32 output at any thread count.
//!
//! The determinism contract (crates/parallel) promises that chunk boundaries
//! depend only on problem shape and partials combine in chunk-index order, so
//! `CPGAN_THREADS=1` and `CPGAN_THREADS=4` runs are exactly equal — not just
//! within a tolerance. These tests pin the thread count per run via
//! [`with_thread_count`] and compare raw bit patterns.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use cpgan_graph::Graph;
use cpgan_nn::{Csr, Matrix, Tape};
use cpgan_parallel::{chunk_count, items_per_chunk, with_thread_count};

/// Deterministic, sign-mixed values with no special structure.
fn seed_matrix(rows: usize, cols: usize, offset: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.371 + offset).sin() * 1.3
    })
}

fn assert_bits_eq(serial: &Matrix, parallel: &Matrix, what: &str, threads: usize) {
    assert_eq!(serial.shape(), parallel.shape(), "{what}: shape mismatch");
    for (i, (a, b)) in serial
        .as_slice()
        .iter()
        .zip(parallel.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}[{i}] differs at {threads} threads: {a} vs {b}"
        );
    }
}

/// Runs `f` at 1 thread and at each of {2, 4, 8}, asserting bitwise equality.
fn assert_equivalent(what: &str, f: impl Fn() -> Matrix) {
    let serial = with_thread_count(1, &f);
    for threads in [2, 4, 8] {
        let parallel = with_thread_count(threads, &f);
        assert_bits_eq(&serial, &parallel, what, threads);
    }
}

/// Asserts that a kernel over `items` items (elements, rows) costing
/// `work_per_item` each spans at least two chunks under the work-per-chunk
/// rule, so the comparison really runs the threaded path.
fn assert_splits(what: &str, items: usize, work_per_item: usize) {
    let chunks = chunk_count(items, items_per_chunk(work_per_item));
    assert!(chunks >= 2, "{what}: {items} items make {chunks} chunk(s)");
}

/// Asserts that a dense product with `m` output rows of width `n` splits
/// into at least two row blocks. Mirrors `Matrix`'s block rule: 32k output
/// elements a block.
fn assert_mm_splits(what: &str, m: usize, n: usize) {
    let chunks = chunk_count(m, (32 * 1024 / n).max(1));
    assert!(chunks >= 2, "{what}: {m} rows make {chunks} block(s)");
}

/// Row work of a CSR x dense product with `d` dense columns (see
/// `Csr::matmul_dense`): `d` per average stored entry of a row, plus `d`.
fn spmm_row_work(s: &Csr, d: usize) -> usize {
    d * (s.nnz().div_ceil(s.rows()) + 1)
}

/// Ring plus chords on `n` nodes, normalized (self-loops included).
fn ring_with_chords(n: u32) -> Csr {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    edges.extend((0..n / 2).map(|i| (i, i + n / 2)));
    Csr::normalized_adjacency(&Graph::from_edges(n as usize, edges).unwrap())
}

// Shapes below are chosen so every kernel spans several parallel chunks
// (`cpgan_parallel::MIN_CHUNK_WORK` of scalar work each, or 32k output
// elements a dense-product block); every test asserts it.

#[test]
fn matmul_bitwise_equal_across_thread_counts() {
    let a = seed_matrix(1000, 64, 0.1);
    let b = seed_matrix(64, 80, 0.7);
    assert_mm_splits("matmul", 1000, 80);
    assert_equivalent("matmul", || a.matmul(&b));
}

#[test]
fn matmul_tn_bitwise_equal_across_thread_counts() {
    let a = seed_matrix(64, 1000, 0.2);
    let b = seed_matrix(64, 80, 0.9);
    assert_mm_splits("matmul_tn", 1000, 80);
    assert_equivalent("matmul_tn", || a.matmul_tn(&b));
}

#[test]
fn matmul_nt_bitwise_equal_across_thread_counts() {
    let a = seed_matrix(1000, 64, 0.3);
    let b = seed_matrix(80, 64, 0.4);
    assert_mm_splits("matmul_nt", 1000, 80);
    assert_equivalent("matmul_nt", || a.matmul_nt(&b));
}

#[test]
fn ragged_matmul_bitwise_equal_across_thread_counts() {
    // Shapes that are not multiples of the MR=4 / NR=8 register tile and
    // cross the KC=256 k-slab, so the microkernel tail paths and the
    // resume-from-out accumulator path all run. The last shape also splits
    // into two row blocks (127 and 3 rows, both with a row tail); the
    // others run as one block, and a debug-build product large enough to
    // split costs seconds.
    assert_mm_splits("ragged matmul", 130, 257);
    for &(m, k, n) in &[(37, 261, 19), (65, 300, 9), (5, 517, 33), (130, 260, 257)] {
        let a = seed_matrix(m, k, 0.11);
        let b = seed_matrix(k, n, 0.23);
        assert_equivalent("ragged matmul", || a.matmul(&b));
        let at = seed_matrix(k, m, 0.31);
        assert_equivalent("ragged matmul_tn", || at.matmul_tn(&b));
        let bt = seed_matrix(n, k, 0.43);
        assert_equivalent("ragged matmul_nt", || a.matmul_nt(&bt));
    }
}

#[test]
fn elementwise_ops_bitwise_equal_across_thread_counts() {
    let a = seed_matrix(1024, 520, 0.5);
    let b = seed_matrix(1024, 520, 1.1);
    assert_splits("elementwise", a.len(), 1);
    assert_equivalent("map", || a.map(|v| v.tanh() * 0.3 + v));
    assert_equivalent("zip", || a.zip(&b, |x, y| x * y + 0.25 * x));
    assert_equivalent("axpy", || {
        let mut out = a.clone();
        out.axpy(-0.75, &b);
        out
    });
}

#[test]
fn reductions_bitwise_equal_across_thread_counts() {
    // Reductions keep their fixed 4096-element chunks (the chunking is part
    // of their bits): 6720 entries make two.
    let a = seed_matrix(96, 70, 0.6);
    assert_equivalent("sum", || Matrix::scalar(a.sum()));
    assert_equivalent("frobenius_norm", || Matrix::scalar(a.frobenius_norm()));
}

#[test]
fn spmm_bitwise_equal_across_thread_counts() {
    // Ring + chords: enough rows that the CSR×dense row blocks split.
    let s = ring_with_chords(6000);
    let x = seed_matrix(6000, 24, 0.8);
    assert_splits("spmm", 6000, spmm_row_work(&s, 24));
    assert_equivalent("spmm", || s.matmul_dense(&x));
}

#[test]
fn softmax_rows_bitwise_equal_across_thread_counts() {
    let x = seed_matrix(8000, 70, 0.9);
    assert_splits("softmax_rows", 8000, 70);
    assert_equivalent("softmax_rows", || {
        let tape = Tape::new();
        tape.constant(x.clone()).softmax_rows().value()
    });
}

#[test]
fn fused_spmm_bias_act_bitwise_equal_across_thread_counts() {
    // Same ring + chords operator as the plain spmm case, with the fused
    // bias add and each activation applied per cache-hot row.
    let s = ring_with_chords(6000);
    let x = seed_matrix(6000, 24, 0.35);
    assert_splits("spmm_bias_act", 6000, spmm_row_work(&s, 24));
    let b = seed_matrix(1, 24, 0.75);
    for act in cpgan_nn::FusedAct::ALL {
        assert_equivalent(&format!("spmm_bias_act[{}]", act.name()), || {
            s.matmul_dense_bias_act(&x, Some(&b), act)
        });
    }
}

#[test]
fn fused_forward_and_backward_bitwise_equal_across_thread_counts() {
    // Whole fused tape step — batched forward, activation-mask backward,
    // bias-row reduction — through the autograd layer at 1 vs N threads.
    let sizes = [2400usize, 1, 1800, 2800];
    let graphs: Vec<Graph> = sizes
        .iter()
        .enumerate()
        .map(|(gi, &n)| {
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .map(|i| (i, (i + 1) % n as u32))
                .filter(|(u, v)| u != v && !(u + gi as u32).is_multiple_of(7))
                .collect();
            Graph::from_edges(n, edges).unwrap()
        })
        .collect();
    let batch = cpgan_nn::BlockDiagCsr::from_graphs(graphs.iter());
    let total = batch.total_rows();
    // Every row stores at least its self-loop, so the rows carry at least
    // this much work each.
    assert_splits("spmm_bias_act_batched", total, 24 * 2);
    let x0 = seed_matrix(total, 24, 0.15);
    let b0 = seed_matrix(1, 24, 0.55);
    let w0 = seed_matrix(total, 24, 0.95);
    for act in cpgan_nn::FusedAct::ALL {
        assert_equivalent(
            &format!("spmm_bias_act_batched[{}] grads", act.name()),
            || {
                let xp = cpgan_nn::Param::new(x0.clone());
                let bp = cpgan_nn::Param::new(b0.clone());
                let tape = Tape::new();
                let x = tape.param(&xp);
                let b = tape.param(&bp);
                let out = x.spmm_bias_act_batched(&batch, Some(&b), act);
                let w = tape.constant(w0.clone());
                out.mul(&w).sum_all().backward();
                // Pack forward value + both gradients into one comparison
                // surface so a single bit flip anywhere fails loudly.
                let gx = xp.lock().grad.clone();
                let gb = bp.lock().grad.clone();
                Matrix::vstack(&[&out.value(), &gx, &gb])
            },
        );
    }
}
