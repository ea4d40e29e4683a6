//! Regenerates paper Table V (graph reconstruction, 80/20 split).
//!
//! Usage: `cargo run --release -p bench --bin table5 [--fast] [--scale S]`

use cpgan_eval::{pipelines::reconstruction, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    eprintln!("running Table V at scale 1/{}...", cfg.scale);
    let table = reconstruction::run(&cfg);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table);
    cpgan_obs::finish(Some("results/obs.table5.jsonl"));
}
