//! Sharded-pipeline scale benchmark, written to `results/BENCH_scale.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin scale [--threads N] [--max-nodes N]
//!     [--assert-min-nodes-per-sec X]
//! ```
//!
//! Runs `cpgan_shard::ShardPipeline` end-to-end (partition → per-shard
//! train+generate → stitch) on planted-partition graphs at 10k, 100k and
//! 500k nodes, reporting throughput (nodes/sec, edges/sec) and two memory
//! figures per leg: the scheduler's per-wave peak estimate and the nn
//! allocator's measured peak (`cpgan_nn::memory::peak_bytes`). Each leg
//! states the memory budget it ran under; `--max-nodes` trims the list for
//! CI, and `--assert-min-nodes-per-sec` gates regressions (exit 1).

use bench::{fail, time, Bench};
use cpgan::CpGanConfig;
use cpgan_data::planted::{self, PlantedConfig};
use cpgan_parallel::with_thread_count;
use cpgan_shard::{ShardConfig, ShardPipeline};
use serde::Serialize;

/// Per-wave scheduling budget every leg runs under (stated in the report).
const MEMORY_BUDGET_BYTES: usize = 512 << 20; // 512 MiB

#[derive(Serialize)]
struct Leg {
    nodes: usize,
    edges_in: usize,
    edges_out: usize,
    shards: usize,
    waves: usize,
    secs: f64,
    nodes_per_sec: f64,
    edges_per_sec: f64,
    scheduled_peak_bytes: usize,
    measured_nn_peak_bytes: usize,
    within_budget: bool,
}

#[derive(Serialize)]
struct Report {
    memory_budget_bytes: usize,
    legs: Vec<Leg>,
}

/// Planted graph sized so community scale roughly matches the shard budget.
fn leg_graph(n: usize, seed: u64) -> cpgan_graph::Graph {
    let cfg = PlantedConfig {
        n,
        m: n * 4,
        communities: (n / 1200).max(8),
        mixing: 0.1,
        seed,
        ..PlantedConfig::default()
    };
    planted::generate(&cfg).graph
}

/// Per-shard model sized for throughput: the bench measures the pipeline's
/// scaling, not model quality, so each shard gets a few cheap epochs.
fn leg_model() -> CpGanConfig {
    CpGanConfig {
        epochs: 2,
        sample_size: 32,
        hidden_dim: 16,
        latent_dim: 8,
        levels: 1,
        ..CpGanConfig::tiny()
    }
}

fn run_leg(n: usize) -> Leg {
    let g = leg_graph(n, 0xBEEF ^ n as u64);
    let pipeline = ShardPipeline::new(ShardConfig {
        max_shard_size: 2000,
        memory_budget_bytes: MEMORY_BUDGET_BYTES,
        model: leg_model(),
        seed: 42,
        inter_pair_fraction: 1.0,
    })
    .unwrap_or_else(|e| fail(&format!("pipeline config rejected: {e}")));
    cpgan_nn::memory::reset_peak();
    let (report, secs) = time(|| pipeline.run(&g));
    let report = report.unwrap_or_else(|e| fail(&format!("pipeline failed at n={n}: {e}")));
    let edges_out = report.graph.m();
    Leg {
        nodes: n,
        edges_in: g.m(),
        edges_out,
        shards: report.shards,
        waves: report.waves,
        secs,
        nodes_per_sec: n as f64 / secs,
        edges_per_sec: edges_out as f64 / secs,
        scheduled_peak_bytes: report.peak_estimate_bytes,
        measured_nn_peak_bytes: cpgan_nn::memory::peak_bytes(),
        within_budget: report.peak_estimate_bytes <= MEMORY_BUDGET_BYTES,
    }
}

fn main() {
    let mut bench = Bench::parallel("scale");
    let threads = bench.threads();
    let max_nodes = bench.flag("--max-nodes").unwrap_or(usize::MAX);
    eprintln!(
        "sharded-pipeline scale bench at {threads} thread(s), \
         {} MiB wave budget...",
        MEMORY_BUDGET_BYTES >> 20
    );

    let mut legs = Vec::new();
    for n in [10_000usize, 100_000, 500_000] {
        if n > max_nodes {
            eprintln!("skipping n={n} (--max-nodes {max_nodes})");
            continue;
        }
        let leg = with_thread_count(threads, || run_leg(n));
        eprintln!(
            "n={:>7}: {:>7.2}s  {:>9.0} nodes/s  {:>9.0} edges/s  \
             {} shards / {} waves  sched peak {} MiB, measured nn peak {} MiB",
            leg.nodes,
            leg.secs,
            leg.nodes_per_sec,
            leg.edges_per_sec,
            leg.shards,
            leg.waves,
            leg.scheduled_peak_bytes >> 20,
            leg.measured_nn_peak_bytes >> 20,
        );
        if !leg.within_budget {
            eprintln!(
                "NOTE: scheduled peak exceeds the wave budget at n={} — an \
                 indivisible shard was larger than the budget",
                leg.nodes
            );
        }
        legs.push(leg);
    }
    if legs.is_empty() {
        fail("no legs executed (check --max-nodes)");
    }
    let slowest = legs
        .iter()
        .map(|l| l.nodes_per_sec)
        .fold(f64::INFINITY, f64::min);
    bench.gate("--assert-min-nodes-per-sec", "slowest leg nodes/s", slowest);
    bench.finish(&Report {
        memory_budget_bytes: MEMORY_BUDGET_BYTES,
        legs,
    });
}
