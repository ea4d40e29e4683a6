//! Regenerates paper Table VIII (training time).
//!
//! Usage: `cargo run --release -p bench --bin table8 [--fast] [--max-size N]`

use cpgan_eval::{pipelines::efficiency, sweep_sizes_from_args, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    let sizes = sweep_sizes_from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    eprintln!("running Table VIII over sizes {sizes:?}...");
    let tables = efficiency::run(&cfg, &sizes);
    println!("{}", tables.training.render());
    cpgan_obs::finish(Some("results/obs.table8.jsonl"));
}
