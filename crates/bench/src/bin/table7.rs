//! Regenerates paper Table VII (time per graph generation).
//!
//! Usage: `cargo run --release -p bench --bin table7 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--max-size N]`

use cpgan_eval::pipelines::efficiency;

fn main() {
    let (args, cfg) = bench::table_args("table7", &["max-size"], 0);
    let sizes = bench::sweep_sizes(&args).unwrap_or_else(|e| bench::fail(&format!("table7: {e}")));
    eprintln!("running Table VII over sizes {sizes:?}...");
    let tables = efficiency::run(&cfg, &sizes);
    println!("{}", tables.generation.render());
    cpgan_obs::finish(Some("results/obs.table7.jsonl"));
}
