//! Serial-vs-parallel wall-clock for the hot kernels wired onto the
//! cpgan-parallel runtime, written to `results/BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p bench --bin parallel [--threads N]`
//!
//! Each kernel runs pinned to one thread and to `N` threads (default:
//! `available_parallelism`) via `with_thread_count`: one untimed call per
//! leg, then the best of three interleaved rounds. Because the runtime is
//! deterministic, both legs produce bit-identical values — only the
//! wall-clock differs.

use bench::{best_of, fail, Bench};
use cpgan_graph::{mmd, spectral, stats::clustering, stats::path, Graph};
use cpgan_nn::{Csr, Matrix};
use cpgan_parallel::with_thread_count;
use serde::Serialize;
use std::hint::black_box;

/// Ring + strided chords: deterministic, triangle-rich benchmark graph.
fn bench_graph(n: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for (stride, jump) in [(1u32, 2u32), (2, 3), (3, 5), (5, 7), (7, 11)] {
        edges.extend((0..n).step_by(stride as usize).map(|i| (i, (i + jump) % n)));
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(n as usize, edges)
        .unwrap_or_else(|e| fail(&format!("bench graph construction failed: {e}")))
}

fn seed_matrix(rows: usize, cols: usize, offset: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32 * 0.37 + offset).sin()
    })
}

#[derive(Serialize)]
struct Row {
    name: &'static str,
    serial_s: f64,
    parallel_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    kernels: Vec<Row>,
}

fn main() {
    let bench = Bench::parallel("parallel");
    let threads = bench.threads();
    eprintln!("benchmarking kernels at 1 vs {threads} thread(s)...");

    let mm_a = seed_matrix(448, 448, 0.1);
    let mm_b = seed_matrix(448, 448, 0.7);
    let g_big = bench_graph(60_000);
    let g_mid = bench_graph(4_000);
    let csr = Csr::normalized_adjacency(&bench_graph(20_000));
    let feats = seed_matrix(20_000, 64, 0.3);
    let hists_a: Vec<Vec<f64>> = (0..128)
        .map(|i| mmd::clustering_histogram_normalized(&bench_graph(300 + 11 * i)))
        .collect();
    let hists_b: Vec<Vec<f64>> = (0..128)
        .map(|i| mmd::clustering_histogram_normalized(&bench_graph(310 + 13 * i)))
        .collect();

    let kernels: [(&str, &dyn Fn()); 6] = [
        ("matmul", &|| {
            black_box(mm_a.matmul(&mm_b));
        }),
        ("mmd", &|| {
            black_box(mmd::mmd_squared(&hists_a, &hists_b, 1.0));
        }),
        ("clustering", &|| {
            black_box(clustering::local_clustering(&g_big));
        }),
        ("cpl", &|| {
            black_box(path::characteristic_path_length(&g_mid, 128));
        }),
        ("spmm", &|| {
            black_box(csr.matmul_dense(&feats));
        }),
        ("spectral", &|| {
            black_box(spectral::spectral_embedding(&g_mid, 8, 7));
        }),
    ];

    let mut rows = Vec::new();
    for (name, f) in kernels {
        let [serial, parallel] = best_of(
            3,
            [&mut || with_thread_count(1, f), &mut || {
                with_thread_count(threads, f)
            }],
        );
        let speedup = serial / parallel.max(1e-12);
        eprintln!(
            "{name:>10}: serial {serial:.4}s  parallel {parallel:.4}s  speedup {speedup:.2}x"
        );
        rows.push(Row {
            name,
            serial_s: serial,
            parallel_s: parallel,
            speedup,
        });
    }
    bench.finish(&Report { kernels: rows });
}
