//! Runs the Table III/IV metrics on an *ingested* registry dataset
//! (default: the vendored `citeseer-fixture` synthetic surrogate; pass an
//! upstream name once its real files are in the cache), printing the
//! reference-stat verification report first.
//!
//! Usage: `cargo run --release -p bench --bin table_real -- \
//!     [DATASET] [--offline] [--data-dir DIR] [--seeds K] [--fast] [--json FILE]`

use cpgan_datasets::LoadOptions;
use cpgan_eval::{pipelines::real, EvalConfig};
use std::path::PathBuf;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("table_real: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cfg = EvalConfig::from_args(args)?;
    // The first positional (non-flag, non-flag-value) argument names the
    // dataset; everything else is shared EvalConfig/report plumbing.
    const VALUE_FLAGS: [&str; 6] = [
        "--scale",
        "--seeds",
        "--deep-epochs",
        "--cpgan-epochs",
        "--json",
        "--data-dir",
    ];
    let mut name = "citeseer-fixture";
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            name = a;
            i += 1;
        }
    }
    let opts = LoadOptions {
        offline: args.iter().any(|a| a == "--offline"),
        data_dir: args
            .iter()
            .position(|a| a == "--data-dir")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from),
        scale: cfg.scale,
        seed: cfg.seed,
        ..LoadOptions::default()
    };
    eprintln!(
        "evaluating every generator on '{name}' with {} seed(s)...",
        cfg.seeds
    );
    let (report, table) = real::run(&cfg, name, &opts).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args, &table);
    cpgan_obs::finish(Some("results/obs.table_real.jsonl"));
    Ok(())
}
