//! Naive-vs-blocked dense matmul throughput, written to
//! `results/BENCH_matmul.json`.
//!
//! Usage: `cargo run --release -p bench --bin matmul
//!         [--threads N] [--assert-min-ratio R]`
//!
//! For each GEMM variant (`matmul`, `matmul_tn`, `matmul_nt`) and each
//! square size, three GFLOP/s figures are reported:
//!
//! * `naive` — the retained scalar i-k-j reference in `cpgan_nn::kernels`,
//! * `blocked_serial` — the cache-blocked microkernels pinned to 1 thread
//!   (the apples-to-apples comparison the CI gate reads),
//! * `blocked_parallel` — the same kernels at `N` threads (informational;
//!   on a 1-core box this measures overhead, not scaling).
//!
//! `--assert-min-ratio R` exits nonzero unless
//! `blocked_serial / naive >= R` for `matmul` at 256x256x256 — the CI
//! regression gate for the blocking/tiling work.

use bench::{best_of, Bench};
use cpgan_nn::{kernels, Matrix};
use cpgan_parallel::with_thread_count;
use serde::Serialize;

const SIZES: &[usize] = &[64, 128, 256, 448];
const GATE_SIZE: usize = 256;

/// One way to compute `a · b` (or a transposed variant).
type Product<'m> = &'m dyn Fn() -> Matrix;

fn seed_matrix(rows: usize, cols: usize, offset: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.37 + offset).sin()
    })
}

#[derive(Serialize)]
struct Row {
    kernel: &'static str,
    size: usize,
    naive_gflops: f64,
    blocked_serial_gflops: f64,
    blocked_parallel_gflops: f64,
    serial_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    kernels: Vec<Row>,
}

fn main() {
    let mut bench = Bench::parallel("matmul");
    let threads = bench.threads();
    eprintln!("dense matmul: naive vs blocked, serial + {threads} thread(s)...");

    let mut rows = Vec::new();
    for &s in SIZES {
        let a = seed_matrix(s, s, 0.1);
        let b = seed_matrix(s, s, 0.7);
        let flops = 2.0 * (s as f64).powi(3);
        // The gate size gets the most reps: best-of variance is what makes
        // a ratio gate flaky on a shared box.
        let reps = if s == GATE_SIZE {
            9
        } else if s > GATE_SIZE {
            5
        } else {
            7
        };
        let variants: [(&str, Product, Product); 3] = [
            ("matmul", &|| kernels::matmul_naive(&a, &b), &|| {
                a.matmul(&b)
            }),
            ("matmul_tn", &|| kernels::matmul_tn_naive(&a, &b), &|| {
                a.matmul_tn(&b)
            }),
            ("matmul_nt", &|| kernels::matmul_nt_naive(&a, &b), &|| {
                a.matmul_nt(&b)
            }),
        ];
        for (kernel, naive_f, blocked_f) in variants {
            let secs = best_of(
                reps,
                [
                    &mut || naive_f(),
                    &mut || with_thread_count(1, blocked_f),
                    &mut || with_thread_count(threads, blocked_f),
                ],
            );
            let [naive, serial, parallel] = secs.map(|t| flops / t.max(1e-12) / 1e9);
            let ratio = serial / naive.max(1e-12);
            eprintln!(
                "{kernel:>10} {s:>4}: naive {naive:7.3}  blocked(1T) {serial:7.3}  \
                 blocked({threads}T) {parallel:7.3} GFLOP/s  ratio {ratio:.2}x"
            );
            if kernel == "matmul" && s == GATE_SIZE {
                bench.gate(
                    "--assert-min-ratio",
                    &format!("matmul blocked/naive ratio at {GATE_SIZE}^3"),
                    ratio,
                );
            }
            rows.push(Row {
                kernel,
                size: s,
                naive_gflops: naive,
                blocked_serial_gflops: serial,
                blocked_parallel_gflops: parallel,
                serial_ratio: ratio,
            });
        }
    }
    bench.finish(&Report { kernels: rows });
}
