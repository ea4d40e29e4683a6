//! Runs the efficiency sweep once and prints Tables VII, VIII and IX
//! together (cheaper than running the three single-table binaries).
//!
//! Usage: `cargo run --release -p bench --bin sweep -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--max-size N]`

use cpgan_eval::pipelines::efficiency;

fn main() {
    let (args, cfg) = bench::table_args("sweep", &["max-size"], 0);
    let sizes = bench::sweep_sizes(&args).unwrap_or_else(|e| bench::fail(&format!("sweep: {e}")));
    eprintln!("running Tables VII-IX over sizes {sizes:?}...");
    let tables = efficiency::run(&cfg, &sizes);
    println!("{}", tables.generation.render());
    println!("{}", tables.training.render());
    println!("{}", tables.memory.render());
    cpgan_obs::finish(Some("results/obs.sweep.jsonl"));
}
