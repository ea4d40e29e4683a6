//! `shard_100k`: the community-sharded pipeline on a 100k-node planted
//! graph, configured like the 100k leg of `BENCH_scale`.

use super::{check_pin, edge_list, fnv1a, record_peak, repeat, setup, timed, Ctx};
use crate::report::Recorder;
use crate::stats::median;
use crate::trace::{self, Shapes};
use cpgan::CpGanConfig;
use cpgan_data::planted::{self, PlantedConfig};
use cpgan_graph::Graph;
use cpgan_shard::{ShardConfig, ShardPipeline};

/// Node count of the input graph.
pub const NODES: usize = 100_000;
/// Per-wave scheduling budget.
const MEMORY_BUDGET_BYTES: usize = 512 << 20;
/// Least number of timed pipeline runs per run.
const MIN_RUNS: usize = 3;
/// FNV-1a of the output edge list at the default seed.
const SHARD_PIN: u64 = 0x410d_4527_5573_2794;

/// The pipeline configuration (per-shard models sized for throughput).
pub fn config(seed: u64) -> ShardConfig {
    ShardConfig {
        max_shard_size: 2000,
        memory_budget_bytes: MEMORY_BUDGET_BYTES,
        model: CpGanConfig {
            epochs: 2,
            sample_size: 32,
            hidden_dim: 16,
            latent_dim: 8,
            levels: 1,
            ..CpGanConfig::tiny()
        },
        seed,
        inter_pair_fraction: 1.0,
    }
}

/// The planted input graph: mean degree 8, one community per ~1200 nodes.
fn input(seed: u64) -> Graph {
    planted::generate(&PlantedConfig {
        n: NODES,
        m: NODES * 4,
        communities: (NODES / 1200).max(8),
        mixing: 0.1,
        seed,
        ..PlantedConfig::default()
    })
    .graph
}

/// Times `ShardPipeline::run` end to end.
pub fn shard_100k(ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
    let seed = ctx.seed;
    let (g, pipeline, build_ms) = setup(rec, || {
        let (g, ms) = timed(|| input(seed));
        let pipeline = ShardPipeline::new(config(seed)).map_err(|e| e.to_string())?;
        Ok((g, pipeline, ms))
    })?;
    let run = || -> Result<Graph, String> {
        pipeline.run(&g).map(|r| r.graph).map_err(|e| e.to_string())
    };

    if ctx.trace {
        let obs = trace::unit_passes(rec, "shard", || run().map(|out| edge_list(&out)))?;
        trace::record_shard(rec, &obs);
        // One model trains per shard: the largest shard gives the shapes.
        let shards = cpgan_shard::partition_shards(&g, config(seed).max_shard_size, seed);
        let largest = shards
            .iter()
            .max_by_key(|s| s.nodes.len())
            .ok_or_else(|| "empty partition".to_string())?;
        let (train, _) = g.induced_subgraph(&largest.nodes);
        let shapes = Shapes {
            cfg: config(seed).model,
            input: &g,
            train: &train,
            gen: (train.n(), train.m()),
        };
        trace::layers(rec, &shapes, seed, build_ms)?;
        return trace::serve_probe(rec, seed);
    }

    let mut prints = Vec::new();
    let mut shape = (0, 0);
    let times = repeat(ctx.seconds, MIN_RUNS, |_| {
        let out = run()?;
        shape = (out.n(), out.m());
        prints.push(fnv1a(&edge_list(&out)));
        Ok(())
    })?;
    rec.ops(times.len() as u64, 0);
    rec.set("latency_ms", median(&times).unwrap_or(0.0), times.len());
    record_peak(rec);

    let first = prints.first().copied().unwrap_or(0);
    rec.check(
        "repeated pipeline runs are bit-identical",
        prints.iter().all(|&p| p == first),
        format!("{} runs, output {first:#018x}", prints.len()),
    );
    rec.check(
        "output keeps the node count and ~the edge count",
        shape.0 == g.n() && shape.1 * 10 >= g.m() * 9 && shape.1 <= g.m() * 11 / 10,
        format!(
            "{} nodes, {} edges from {} / {}",
            shape.0,
            shape.1,
            g.n(),
            g.m()
        ),
    );
    check_pin(rec, ctx, "shard_100k output", first, SHARD_PIN);
    Ok(())
}
