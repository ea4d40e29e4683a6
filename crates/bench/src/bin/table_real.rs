//! Runs the Table III/IV metrics on an *ingested* registry dataset
//! (default: the vendored `citeseer-fixture` synthetic surrogate; pass an
//! upstream name once its real files are under `--data-dir`), printing
//! the reference-stat verification report first.
//!
//! Usage: `cargo run --release -p bench --bin table_real -- [DATASET]
//!     [--data-dir DIR] [--fast] [--scale S] [--seeds K] [--deep-epochs E]
//!     [--cpgan-epochs E] [--json FILE]`

use cpgan_datasets::LoadOptions;
use cpgan_eval::pipelines::real;
use std::path::PathBuf;

fn main() {
    let (args, cfg) = bench::table_args("table_real", &["json", "data-dir"], 1);
    let name = args
        .positionals()
        .first()
        .map_or("citeseer-fixture", String::as_str);
    let opts = LoadOptions {
        data_dir: args.get("data-dir").map(PathBuf::from),
        scale: cfg.scale,
        seed: cfg.seed,
    };
    eprintln!(
        "evaluating every generator on '{name}' with {} seed(s)...",
        cfg.seeds
    );
    let (report, table) =
        real::run(&cfg, name, &opts).unwrap_or_else(|e| bench::fail(&format!("table_real: {e}")));
    if let Some(note) = cpgan_datasets::resolve(name)
        .ok()
        .and_then(|entry| real::scale_note(entry, &opts))
    {
        println!("{note}");
    }
    println!("{}", report.render());
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args.get("json"), &table);
    cpgan_obs::finish(Some("results/obs.table_real.jsonl"));
}
