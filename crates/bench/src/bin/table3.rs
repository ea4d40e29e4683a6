//! Regenerates paper Table III (community preservation, NMI/ARI).
//!
//! Usage: `cargo run --release -p bench --bin table3 [--fast] [--scale S] [--seeds K]`

use cpgan_eval::{pipelines::community, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    eprintln!(
        "running Table III at scale 1/{} with {} seed(s)...",
        cfg.scale, cfg.seeds
    );
    let table = community::run(&cfg, &[]);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table);
    cpgan_obs::finish(Some("results/obs.table3.jsonl"));
}
