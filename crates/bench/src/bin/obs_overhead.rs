//! Disabled-mode overhead proof for the cpgan-obs instrumentation layer,
//! written to `results/BENCH_obs_overhead.json`.
//!
//! Usage:
//! `cargo run --release -p bench --bin obs_overhead [--assert-max-overhead-pct X]`
//!
//! The observability guards are compiled into the hot kernels unconditionally,
//! so the cost that matters is what each guard does when `CPGAN_OBS` is unset:
//! one relaxed atomic load plus a branch. This binary measures that cost per
//! guard kind in a tight loop, then scales it by the number of instrumentation
//! points a representative kernel call crosses and divides by the kernel's own
//! wall-clock. With `--assert-max-overhead-pct` the binary exits non-zero when
//! the estimated overhead exceeds the bound, which lets CI gate regressions.

use bench::{best_of, Bench};
use cpgan_nn::Matrix;
use serde::Serialize;

const ITERS: u64 = 4_000_000;
const REPS: usize = 5;

/// Per-op nanoseconds for `f`: best of `REPS` timed loops of `iters` calls,
/// after one untimed loop.
fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let [secs] = best_of(
        REPS,
        [&mut || {
            for _ in 0..iters {
                f();
            }
        }],
    );
    secs * 1e9 / iters as f64
}

#[derive(Serialize)]
struct Guards {
    enabled_check: f64,
    span_guard: f64,
    counter_add: f64,
    hist_record: f64,
    series_record: f64,
}

#[derive(Serialize)]
struct Report {
    guards_disabled_ns_per_op: Guards,
    kernel: &'static str,
    kernel_ns_per_call: f64,
    guards_per_kernel_call: u32,
    overhead_pct: f64,
}

fn main() {
    let mut bench = Bench::fixed("obs_overhead", 1, &["assert-max-overhead-pct"], &[]);

    // The whole point is the disabled path; force it regardless of the
    // ambient environment so the numbers are what production code pays.
    cpgan_obs::set_enabled(false);
    assert!(
        !cpgan_obs::enabled(),
        "obs must be disabled for the overhead measurement"
    );

    let guards = Guards {
        enabled_check: ns_per_op(ITERS, || {
            std::hint::black_box(cpgan_obs::enabled());
        }),
        span_guard: ns_per_op(ITERS, || {
            let g = cpgan_obs::span(std::hint::black_box("bench.noop"));
            std::hint::black_box(&g);
        }),
        counter_add: ns_per_op(ITERS, || {
            cpgan_obs::counter_add("bench.noop", std::hint::black_box(1));
        }),
        hist_record: ns_per_op(ITERS, || {
            cpgan_obs::hist_record("bench.noop", std::hint::black_box(2.0));
        }),
        series_record: ns_per_op(ITERS, || {
            cpgan_obs::series_record("bench.noop", std::hint::black_box(0), 1.0);
        }),
    };

    // Representative instrumented kernel: a 256x256 matmul crosses one span
    // guard and one histogram guard per call (see cpgan-nn::matrix).
    let a = Matrix::from_fn(256, 256, |r, c| ((r * 256 + c) as f32 * 0.37).sin());
    let b = Matrix::from_fn(256, 256, |r, c| ((r * 256 + c) as f32 * 0.53).cos());
    let kernel_ns = ns_per_op(20, || {
        std::hint::black_box(a.matmul(&b));
    });

    let per_call_guard_ns = guards.span_guard + guards.hist_record;
    let overhead_pct = 100.0 * per_call_guard_ns / kernel_ns.max(1.0);

    eprintln!(
        "disabled ns/op: enabled_check {:.2}, span_guard {:.2}, counter_add {:.2}, \
         hist_record {:.2}, series_record {:.2}",
        guards.enabled_check,
        guards.span_guard,
        guards.counter_add,
        guards.hist_record,
        guards.series_record
    );
    eprintln!("matmul 256x256: {kernel_ns:.0} ns/call");
    eprintln!(
        "estimated disabled-mode overhead: {per_call_guard_ns:.2} ns across \
         2 guards per call = {overhead_pct:.4}% of kernel wall-clock"
    );
    bench.gate(
        "assert-max-overhead-pct",
        "disabled-mode overhead %",
        overhead_pct,
    );
    bench.finish(&Report {
        guards_disabled_ns_per_op: guards,
        kernel: "matmul_256x256",
        kernel_ns_per_call: kernel_ns,
        guards_per_kernel_call: 2,
        overhead_pct,
    });
}
