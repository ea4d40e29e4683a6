#![forbid(unsafe_code)]
//! `cpgan` — command-line interface to the CPGAN graph generator.
//!
//! ```text
//! cpgan fit      --input graph.txt --model model.json [--epochs N] [--seed S]
//! cpgan generate --model model.json --output out.txt [--seed S]
//! cpgan stats    --input graph.txt
//! cpgan eval     --observed graph.txt --generated out.txt
//! cpgan serve    --model model.json [--addr HOST:PORT] [--workers N]
//! cpgan shard    --input graph.txt --output out.txt [--max-shard-size N] [--budget-mb N]
//! cpgan data     list | verify <name> | stats <name> | ingest <name>
//! ```
//!
//! Graphs are whitespace edge lists (`# nodes: N` header optional), the
//! format `cpgan_graph::io` reads and writes. Every flag left out keeps
//! the library default (`CpGanConfig`, `ShardConfig`, `ServeConfig`,
//! `cpgan_serve::DEFAULT_SEED`).

use cpgan::{CpGan, CpGanConfig};
use cpgan_community::{louvain, metrics};
use cpgan_graph::{io, mmd, stats, Graph};
use cpgan_serve::{ModelRegistry, ServeConfig, Server, DEFAULT_SEED};
use cpgan_shard::{ShardConfig, ShardPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

mod data;

use cpgan_cli::args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     cpgan fit      --input <edge-list> --model <model.json> [--epochs N] [--sample-size N] [--seed S]\n  \
     cpgan generate --model <model.json> --output <edge-list> [--nodes N] [--edges M] [--seed S]\n  \
     cpgan stats    --input <edge-list>\n  \
     cpgan eval     --observed <edge-list> --generated <edge-list>\n  \
     cpgan serve    --model <model.json>[,<model.json>...] [--addr HOST:PORT] [--workers N]\n                 \
     [--queue-depth N] [--deadline-ms N] [--idle-ms N] [--cache-mb N] [--max-conns N]\n  \
     cpgan shard    --input <edge-list> --output <edge-list> [--max-shard-size N] [--budget-mb N]\n                 \
     [--epochs N] [--sample-size N] [--seed S]\n  \
     cpgan data     list | verify <name> [--report PATH] | stats <name>\n                 \
     | ingest <name> --output <edge-list>   (all: [--data-dir DIR];\n                 \
     synthetic entries: [--scale S] [--seed S], verify at S = 1 only;\n                 \
     see DESIGN.md \u{a7}15)\n\n\
     any subcommand also accepts:\n  \
     --threads N     worker threads for parallel kernels (same as CPGAN_THREADS=N;\n                  \
     for serve: threads per in-flight generation, see DESIGN.md \u{a7}11)\n  \
     --obs-out PATH  write observability JSONL there and print a summary tree\n                  \
     (see DESIGN.md \u{a7}9)"
}

/// A subcommand's entry point.
type Handler = fn(&Args) -> Result<(), String>;

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: [&str; 2] = ["threads", "obs-out"];

/// Each subcommand's entry point, the flags it reads besides
/// [`GLOBAL_FLAGS`], and how many positionals it takes: any other flag or
/// positional is an error, not a silent default.
const COMMANDS: &[(&str, Handler, &[&str], usize)] = &[
    (
        "fit",
        fit,
        &["input", "model", "epochs", "sample-size", "seed"],
        0,
    ),
    (
        "generate",
        generate,
        &["model", "output", "nodes", "edges", "seed"],
        0,
    ),
    ("stats", show_stats, &["input"], 0),
    ("eval", eval, &["observed", "generated"], 0),
    (
        "serve",
        serve,
        &[
            "model",
            "addr",
            "workers",
            "queue-depth",
            "deadline-ms",
            "idle-ms",
            "cache-mb",
            "max-conns",
        ],
        0,
    ),
    (
        "shard",
        shard,
        &[
            "input",
            "output",
            "max-shard-size",
            "budget-mb",
            "epochs",
            "sample-size",
            "seed",
        ],
        0,
    ),
    // `data <action> [name...]`: the action and dataset names are
    // positionals.
    (
        "data",
        data::run,
        &["data-dir", "report", "output", "scale", "seed"],
        usize::MAX,
    ),
];

fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("missing subcommand")?;
    let (_, handler, flags, max_positionals) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == cmd.as_str())
        .ok_or_else(|| format!("unknown subcommand '{cmd}'"))?;
    let args = Args::parse(
        rest,
        &[*flags, &GLOBAL_FLAGS[..]].concat(),
        &[],
        *max_positionals,
    )?;
    // `--obs-out <path>` turns on observability collection and names the
    // JSONL sink (equivalent to CPGAN_OBS=1 CPGAN_OBS_OUT=<path>).
    let obs_out = args.get("obs-out");
    if obs_out.is_some() {
        cpgan_obs::set_enabled(true);
    }
    // `--threads N` pins the deterministic parallel runtime's thread count
    // for this invocation (equivalent to CPGAN_THREADS=N; results are
    // bit-identical at any setting). `serve` routes it through its own
    // per-worker generation budget instead, so the override is applied to
    // worker threads rather than this (main) thread.
    let threads = args.value::<usize>("threads")?;
    let dispatch = || handler(&args);
    let result = match threads {
        Some(n) if cmd != "serve" => cpgan_parallel::with_thread_count(n, dispatch),
        _ => dispatch(),
    };
    // Flush even on error so partial runs still leave telemetry behind.
    cpgan_obs::finish(obs_out.as_deref());
    result
}

fn load_graph(path: &str) -> Result<Graph, String> {
    io::load(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn fit(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let model_path = args.require("model")?;
    let g = load_graph(&input)?;
    eprintln!("observed graph: {} nodes, {} edges", g.n(), g.m());
    let mut model = CpGan::try_new(fit_config(args)?).map_err(|e| e.to_string())?;
    let stats = model.fit(&g);
    let last = stats.last().ok_or("training produced no epochs")?;
    eprintln!(
        "trained {} epochs: d_loss {:.3}, g_loss {:.3}, recon {:.3}",
        stats.epochs.len(),
        last.d_loss,
        last.g_loss,
        last.recon_loss
    );
    model
        .save(&model_path)
        .map_err(|e| format!("cannot write {model_path}: {e}"))?;
    eprintln!("model saved to {model_path}");
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let model_path = args.require("model")?;
    let output = args.require("output")?;
    let model = CpGan::load(&model_path).map_err(|e| format!("cannot load {model_path}: {e}"))?;
    // Default to the trained graph's size when not overridden.
    let (def_n, def_m) = model
        .trained_shape()
        .ok_or("model is untrained; pass --nodes and --edges")
        .or_else(
            |e| match (args.value::<usize>("nodes"), args.value::<usize>("edges")) {
                (Ok(Some(n)), Ok(Some(m))) => Ok((n, m)),
                _ => Err(e.to_string()),
            },
        )?;
    let n = args.value::<usize>("nodes")?.unwrap_or(def_n);
    let m = args.value::<usize>("edges")?.unwrap_or(def_m);
    // The served default seed, so `cpgan generate` and an empty
    // `POST /v1/generate` body give the same bytes.
    let mut seed = DEFAULT_SEED;
    args.update("seed", &mut seed)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let out = model
        .try_generate(n, m, &mut rng)
        .map_err(|e| e.to_string())?;
    io::save(&out, &output).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "generated {} nodes / {} edges -> {output}",
        out.n(),
        out.m()
    );
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let models = args.require("model")?;
    let mut registry = ModelRegistry::new();
    for path in models.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let name = registry.load_file(path).map_err(|e| e.to_string())?;
        let shape = registry
            .get(&name)
            .and_then(|m| m.trained_shape())
            .map(|(n, m)| format!("trained on {n} nodes / {m} edges"))
            .unwrap_or_else(|| "untrained".to_string());
        eprintln!("loaded model '{name}' from {path} ({shape})");
    }
    let cfg = serve_config(args)?;
    // The metrics endpoint serves the merged cpgan-obs report; a server
    // without collection would serve an empty document forever.
    cpgan_obs::set_enabled(true);
    let server = Server::start(cfg, registry).map_err(|e| e.to_string())?;
    eprintln!(
        "cpgan-serve listening on http://{} ({} workers, queue {}); \
         POST /v1/generate, GET /v1/models /healthz /metrics",
        server.addr(),
        server.worker_count(),
        server.queue_depth(),
    );
    server.wait();
    Ok(())
}

fn shard(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let g = load_graph(&input)?;
    eprintln!("observed graph: {} nodes, {} edges", g.n(), g.m());
    let pipeline = ShardPipeline::new(shard_config(args)?).map_err(|e| e.to_string())?;
    let report = pipeline.run(&g).map_err(|e| e.to_string())?;
    io::save(&report.graph, &output).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "sharded generation: {} shards in {} waves (largest {} nodes, \
         scheduled peak ~{} MiB)",
        report.shards,
        report.waves,
        report.max_shard_nodes,
        report.peak_estimate_bytes >> 20
    );
    eprintln!(
        "generated {} nodes / {} edges ({} intra + {} inter) -> {output}",
        report.graph.n(),
        report.graph.m(),
        report.intra_edges,
        report.inter_edges
    );
    Ok(())
}

/// `fit`'s model: [`CpGanConfig::default`] with the given flags applied.
fn fit_config(args: &Args) -> Result<CpGanConfig, String> {
    let mut cfg = CpGanConfig::default();
    args.update("epochs", &mut cfg.epochs)?;
    args.update("sample-size", &mut cfg.sample_size)?;
    args.update("seed", &mut cfg.seed)?;
    Ok(cfg)
}

/// `shard`'s pipeline: [`ShardConfig::default`] with the given flags
/// applied (`--epochs`/`--sample-size` set its per-shard model).
fn shard_config(args: &Args) -> Result<ShardConfig, String> {
    let mut cfg = ShardConfig::default();
    args.update("max-shard-size", &mut cfg.max_shard_size)?;
    if let Some(mb) = args.value::<usize>("budget-mb")? {
        cfg.memory_budget_bytes = mb.saturating_mul(1 << 20);
    }
    args.update("epochs", &mut cfg.model.epochs)?;
    args.update("sample-size", &mut cfg.model.sample_size)?;
    args.update("seed", &mut cfg.seed)?;
    Ok(cfg)
}

/// `serve`'s server: [`ServeConfig::default`] with the given flags applied
/// (`--threads` sets the per-generation thread budget).
fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    args.update("addr", &mut cfg.addr)?;
    args.update("workers", &mut cfg.workers)?;
    args.update("queue-depth", &mut cfg.queue_depth)?;
    args.update("deadline-ms", &mut cfg.deadline_ms)?;
    cfg.gen_threads = args.value("threads")?;
    args.update("idle-ms", &mut cfg.idle_ms)?;
    // `--cache-mb 0` disables the generation cache entirely.
    if let Some(mb) = args.value::<usize>("cache-mb")? {
        cfg.cache_bytes = mb.saturating_mul(1 << 20);
    }
    args.update("max-conns", &mut cfg.max_conns)?;
    Ok(cfg)
}

fn show_stats(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let g = load_graph(&input)?;
    let s = stats::GraphStats::compute(&g, 128);
    let part = louvain::louvain(&g, 0);
    println!("nodes:            {}", s.n);
    println!("edges:            {}", s.m);
    println!("mean degree:      {:.4}", s.mean_degree);
    println!("CPL (≤128 seeds): {:.4}", s.cpl);
    println!("gini:             {:.4}", s.gini);
    println!("power-law exp:    {:.4}", s.pwe);
    println!("mean clustering:  {:.4}", s.mean_clustering);
    println!("louvain comms:    {}", part.community_count());
    Ok(())
}

fn eval(args: &Args) -> Result<(), String> {
    let observed = load_graph(&args.require("observed")?)?;
    let generated = load_graph(&args.require("generated")?)?;
    if observed.n() != generated.n() {
        return Err(format!(
            "node counts differ ({} vs {}); NMI/ARI need node-aligned graphs",
            observed.n(),
            generated.n()
        ));
    }
    let y = louvain::louvain(&observed, 0);
    let x = louvain::louvain(&generated, 0);
    println!("NMI:        {:.4}", metrics::nmi(x.labels(), y.labels()));
    println!(
        "ARI:        {:.4}",
        metrics::adjusted_rand_index(x.labels(), y.labels())
    );
    println!("deg MMD:    {:.5}", mmd::degree_mmd(&observed, &generated));
    println!(
        "clus MMD:   {:.5}",
        mmd::clustering_mmd(&observed, &generated)
    );
    let so = stats::GraphStats::compute(&observed, 128);
    let sg = stats::GraphStats::compute(&generated, 128);
    println!("CPL diff:   {:.4}", (so.cpl - sg.cpl).abs());
    println!("gini diff:  {:.4}", (so.gini - sg.gini).abs());
    println!("PWE diff:   {:.4}", (so.pwe - sg.pwe).abs());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let tokens: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        let flags = ["epochs", "sample-size", "seed", "budget-mb", "cache-mb"];
        Args::parse(&tokens, &[&flags[..], &GLOBAL_FLAGS[..]].concat(), &[], 0).unwrap()
    }

    #[test]
    fn an_empty_flag_list_yields_the_library_defaults() {
        // The configs do not derive `PartialEq`, so compare their `Debug`
        // renderings.
        let args = parse(&[]);
        let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        };
        same(&fit_config(&args).unwrap(), &CpGanConfig::default());
        same(&shard_config(&args).unwrap(), &ShardConfig::default());
        same(&serve_config(&args).unwrap(), &ServeConfig::default());
    }

    #[test]
    fn given_flags_override_only_their_field() {
        let args = parse(&["--epochs", "5", "--budget-mb", "1", "--cache-mb", "0"]);
        let fit = fit_config(&args).unwrap();
        assert_eq!((fit.epochs, fit.seed), (5, CpGanConfig::default().seed));
        let shard = shard_config(&args).unwrap();
        assert_eq!(shard.model.epochs, 5);
        assert_eq!(shard.memory_budget_bytes, 1 << 20);
        assert_eq!(shard.max_shard_size, ShardConfig::default().max_shard_size);
        let serve = serve_config(&args).unwrap();
        assert_eq!(serve.cache_bytes, 0);
        assert_eq!(serve.queue_depth, ServeConfig::default().queue_depth);
    }
}
