//! Regenerates paper Table VI (CPGAN ablation study).
//!
//! Usage: `cargo run --release -p bench --bin table6 [--fast] [--scale S]`

use cpgan_eval::{pipelines::ablation, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    eprintln!("running Table VI at scale 1/{}...", cfg.scale);
    let table = ablation::run(&cfg, &[]);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table);
    cpgan_obs::finish(Some("results/obs.table6.jsonl"));
}
