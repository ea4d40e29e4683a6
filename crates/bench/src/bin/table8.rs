//! Regenerates paper Table VIII (training time).
//!
//! Usage: `cargo run --release -p bench --bin table8 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--max-size N]`

use cpgan_eval::pipelines::efficiency;

fn main() {
    let (args, cfg) = bench::table_args("table8", &["max-size"], 0);
    let sizes = bench::sweep_sizes(&args).unwrap_or_else(|e| bench::fail(&format!("table8: {e}")));
    eprintln!("running Table VIII over sizes {sizes:?}...");
    let tables = efficiency::run(&cfg, &sizes);
    println!("{}", tables.training.render());
    cpgan_obs::finish(Some("results/obs.table8.jsonl"));
}
