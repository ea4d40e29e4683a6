//! `fit_10k` and `generate_10k`: the single-graph model on the 10k-node
//! sweep graph of Tables VII–IX.

use super::{check_pin, edge_list, fnv1a, record_peak, repeat, setup, timed, Ctx};
use crate::report::Recorder;
use crate::stats::median;
use crate::trace::{self, Shapes};
use cpgan::{CpGan, CpGanConfig, TrainStats};
use cpgan_data::planted::PlantedGraph;
use cpgan_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node count of the sweep graph.
pub const NODES: usize = 10_000;
/// Training epochs of a timed fit. Per-epoch work is still most of a fit,
/// and a fit short enough for about ten per run lets the run's median ride
/// out a burst of host noise.
pub const EPOCHS: usize = 25;
/// Epochs of the untimed warm-up fit in set-up (and of the model the
/// generation workload samples from: generation cost depends on the
/// shapes, not on how long the model trained).
pub const WARMUP_EPOCHS: usize = 5;
/// Least number of timed fits per run.
const MIN_FITS: usize = 3;
/// Least number of timed generations per run.
const MIN_GENERATIONS: usize = 5;
/// Louvain NMI of generation 0 against the planted communities must reach
/// this (measured 0.16–0.17 across seeds; a degree-preserving random graph
/// scores near 0).
const NMI_FLOOR: f64 = 0.1;
/// FNV-1a of the training-loss trajectory at the default seed.
const FIT_PIN: u64 = 0x2d06_8a8b_ab85_42b4;
/// FNV-1a of generation 0's edge list at the default seed.
const GENERATE_PIN: u64 = 0x3dfe_7fb9_ae5b_61f9;

fn config(seed: u64, epochs: usize) -> CpGanConfig {
    CpGanConfig {
        epochs,
        seed,
        ..CpGanConfig::default()
    }
}

/// The sweep graph and the time it took to build.
fn input(seed: u64) -> (PlantedGraph, f64) {
    timed(|| cpgan_data::sweep::sweep_graph(NODES, seed))
}

fn fitted(g: &Graph, seed: u64, epochs: usize) -> Result<(CpGan, TrainStats), String> {
    let mut model = CpGan::try_new(config(seed, epochs)).map_err(|e| e.to_string())?;
    let stats = model.fit(g);
    Ok((model, stats))
}

/// Fingerprint of a loss trajectory; `None` if any loss is not finite.
fn trajectory(stats: &TrainStats) -> Option<u64> {
    let mut bytes = Vec::with_capacity(stats.epochs.len() * 20);
    for e in &stats.epochs {
        for v in [e.d_loss, e.g_loss, e.clus_loss, e.kl_loss, e.recon_loss] {
            if !v.is_finite() {
                return None;
            }
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    Some(fnv1a(&bytes))
}

fn shapes(g: &Graph, seed: u64) -> Shapes<'_> {
    Shapes {
        cfg: config(seed, EPOCHS),
        input: g,
        train: g,
        gen: (g.n(), g.m()),
    }
}

/// Times `CpGan::fit` from fresh models at the default thread count.
pub fn fit_10k(ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
    let seed = ctx.seed;
    let (pg, build_ms) = setup(rec, || {
        let (pg, ms) = input(seed);
        fitted(&pg.graph, seed, WARMUP_EPOCHS)?;
        Ok((pg, ms))
    })?;
    let g = &pg.graph;
    let fit_once = || -> Result<u64, String> {
        let (_, stats) = fitted(g, seed, EPOCHS)?;
        trajectory(&stats).ok_or_else(|| "non-finite training loss".to_string())
    };

    if ctx.trace {
        trace::unit_passes(rec, "fit", fit_once)?;
        trace::layers(rec, &shapes(g, seed), seed, build_ms)?;
        trace::shard_probe(rec, g, seed)?;
        return trace::serve_probe(rec, seed);
    }

    let mut prints = Vec::new();
    let times = repeat(ctx.seconds, MIN_FITS, |_| {
        prints.push(fit_once()?);
        Ok(())
    })?;
    rec.ops(times.len() as u64, 0);
    rec.set("latency_ms", median(&times).unwrap_or(0.0), times.len());
    record_peak(rec);
    let first = prints.first().copied().unwrap_or(0);
    rec.check(
        "repeated fits are bit-identical",
        prints.iter().all(|&p| p == first),
        format!("{} fits, trajectory {first:#018x}", prints.len()),
    );
    check_pin(rec, ctx, "fit_10k loss trajectory", first, FIT_PIN);
    Ok(())
}

/// Times `CpGan::generate` at the observed size from a trained model.
pub fn generate_10k(ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
    let seed = ctx.seed;
    let (pg, model, build_ms) = setup(rec, || {
        let (pg, ms) = input(seed);
        let (model, _) = fitted(&pg.graph, seed, WARMUP_EPOCHS)?;
        Ok((pg, model, ms))
    })?;
    let g = &pg.graph;
    let (n, m) = (g.n(), g.m());
    let generate = |i: usize| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
        model.generate(n, m, &mut rng)
    };

    if ctx.trace {
        trace::unit_passes(rec, "generate", || Ok(edge_list(&generate(0))))?;
        trace::layers(rec, &shapes(g, seed), seed, build_ms)?;
        trace::shard_probe(rec, g, seed)?;
        return trace::serve_probe(rec, seed);
    }

    let mut first: Option<Graph> = None;
    let times = repeat(ctx.seconds, MIN_GENERATIONS, |i| {
        let out = generate(i);
        if i == 0 {
            first = Some(out);
        }
        Ok(())
    })?;
    rec.ops(times.len() as u64, 0);
    rec.set("latency_ms", median(&times).unwrap_or(0.0), times.len());
    record_peak(rec);

    let out = first.ok_or_else(|| "no generation ran".to_string())?;
    rec.check(
        "generation 0 has the observed shape",
        out.n() == n && out.m() * 20 >= m * 19 && out.m() <= m,
        format!("{} nodes, {} edges for a {n}/{m} target", out.n(), out.m()),
    );
    let found = cpgan_community::louvain::louvain(&out, 0);
    let nmi = cpgan_community::metrics::nmi(found.labels(), &pg.labels);
    rec.check(
        "generation 0 preserves the planted communities",
        nmi >= NMI_FLOOR,
        format!("Louvain NMI {nmi:.4} (floor {NMI_FLOOR})"),
    );
    check_pin(
        rec,
        ctx,
        "generate_10k generation 0",
        fnv1a(&edge_list(&out)),
        GENERATE_PIN,
    );
    Ok(())
}
