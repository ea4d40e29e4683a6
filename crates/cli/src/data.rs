//! `cpgan data` — the dataset registry subcommand.
//!
//! ```text
//! cpgan data list   [--data-dir DIR]
//! cpgan data verify <name> [--data-dir DIR] [--report PATH]
//! cpgan data stats  <name> [--data-dir DIR]
//! cpgan data ingest <name> --output <edge-list> [--data-dir DIR]
//! ```
//!
//! The action and the dataset names are positionals of the shared parser;
//! `--scale S` and `--seed S` size the synthetic entries. `verify` refuses
//! a `--scale` other than 1: the reference stats it checks are full-scale.
//! Every action reads the entry's files where they live and writes nothing
//! but the `--report`/`--output` file it was asked for.

use cpgan_cli::args::Args;
use cpgan_datasets::{file_paths, load, registry, verify, LoadOptions};
use cpgan_graph::io;
use std::path::PathBuf;

/// Entry point: `args` holds the action, then the dataset names.
pub fn run(args: &Args) -> Result<(), String> {
    let (action, names) = args
        .positionals()
        .split_first()
        .ok_or("data: missing action")?;
    let names = || match names {
        [] => Err(format!("data {action}: missing dataset name")),
        names => Ok(names),
    };
    let opts = LoadOptions {
        data_dir: args.get("data-dir").map(PathBuf::from),
        scale: args.value("scale")?.unwrap_or(1),
        seed: args.value("seed")?.unwrap_or(1),
    };
    match action.as_str() {
        "list" => list(&opts),
        "verify" => do_verify(&opts, names()?, args.get("report")),
        "stats" => do_stats(&opts, names()?),
        "ingest" => do_ingest(&opts, names()?, args.get("output")),
        other => Err(format!("data: unknown action '{other}'")),
    }
}

fn list(opts: &LoadOptions) -> Result<(), String> {
    println!(
        "{:<26} {:>8} {:>9}  {:<10} files",
        "name", "nodes", "edges", "data"
    );
    for entry in registry::registry() {
        // `data` is where the graph comes from: real upstream files, an
        // in-repo surrogate fixture, or a load-time synthesizer; `files`
        // says whether a file-backed entry's files are in place.
        let paths = file_paths(entry, opts.data_dir.as_deref());
        let present = if paths.is_empty() {
            "-"
        } else if paths.iter().all(|p| p.is_file()) {
            "yes"
        } else {
            "no"
        };
        println!(
            "{:<26} {:>8} {:>9}  {:<10} {}",
            entry.name,
            entry.reference.n,
            entry.reference.m,
            entry.source.label(),
            present
        );
    }
    Ok(())
}

fn do_verify(opts: &LoadOptions, names: &[String], report: Option<String>) -> Result<(), String> {
    if opts.scale != 1 {
        return Err(format!(
            "data verify: --scale {} cannot pass: the reference stats are full-scale, \
             so verify only runs at --scale 1",
            opts.scale
        ));
    }
    let mut reports = Vec::new();
    let mut all_pass = true;
    for name in names {
        let entry = registry::resolve(name).map_err(|e| e.to_string())?;
        let loaded = load(entry, opts).map_err(|e| e.to_string())?;
        let report = verify::verify(entry, &loaded.graph, verify::DEFAULT_CPL_SOURCES);
        print!("{}", report.render());
        all_pass &= report.passed;
        reports.push(report);
    }
    if let Some(path) = &report {
        let json =
            serde_json::to_string(&reports).map_err(|e| format!("cannot write {path}: {e}"))?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    if all_pass {
        Ok(())
    } else {
        Err("data verify: one or more checks failed".to_string())
    }
}

fn do_stats(opts: &LoadOptions, names: &[String]) -> Result<(), String> {
    for name in names {
        let entry = registry::resolve(name).map_err(|e| e.to_string())?;
        let loaded = load(entry, opts).map_err(|e| e.to_string())?;
        let s = cpgan_graph::stats::GraphStats::compute(&loaded.graph, 128);
        println!("{name} ({}):", loaded.title);
        println!("  nodes:            {}", s.n);
        println!("  edges:            {}", s.m);
        println!("  mean degree:      {:.4}", s.mean_degree);
        println!("  CPL (≤128 seeds): {:.4}", s.cpl);
        println!("  gini:             {:.4}", s.gini);
        println!("  power-law exp:    {:.4}", s.pwe);
        if let Some(ing) = &loaded.ingest {
            println!(
                "  ingest:           {} raw edges, {} self-loops dropped, {} duplicates merged",
                ing.raw_edges, ing.self_loops_dropped, ing.duplicates_merged
            );
        }
        if let Some(labels) = &loaded.node_labels {
            let labeled = labels.iter().filter(|l| !l.is_empty()).count();
            println!("  labeled nodes:    {labeled}");
        }
    }
    Ok(())
}

fn do_ingest(opts: &LoadOptions, names: &[String], output: Option<String>) -> Result<(), String> {
    let output = output.ok_or("data ingest: missing --output")?;
    let [name] = names else {
        return Err("data ingest: exactly one dataset name expected".to_string());
    };
    let entry = registry::resolve(name).map_err(|e| e.to_string())?;
    let loaded = load(entry, opts).map_err(|e| e.to_string())?;
    io::save(&loaded.graph, &output).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!(
        "ingested {}: {} nodes / {} edges -> {output}",
        loaded.name,
        loaded.graph.n(),
        loaded.graph.m()
    );
    Ok(())
}
