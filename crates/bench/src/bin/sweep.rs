//! Runs the efficiency sweep once and prints Tables VII, VIII and IX
//! together (cheaper than running the three single-table binaries).
//!
//! Usage: `cargo run --release -p bench --bin sweep [--fast] [--max-size N]`

use cpgan_eval::{pipelines::efficiency, sweep_sizes_from_args, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    let sizes = sweep_sizes_from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    eprintln!("running Tables VII-IX over sizes {sizes:?}...");
    let tables = efficiency::run(&cfg, &sizes);
    println!("{}", tables.generation.render());
    println!("{}", tables.training.render());
    println!("{}", tables.memory.render());
    cpgan_obs::finish(Some("results/obs.sweep.jsonl"));
}
