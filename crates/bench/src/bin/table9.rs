//! Regenerates paper Table IX (peak memory during training).
//!
//! Usage: `cargo run --release -p bench --bin table9 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--max-size N]`

use cpgan_eval::pipelines::efficiency;

fn main() {
    let (args, cfg) = bench::table_args("table9", &["max-size"], 0);
    let sizes = bench::sweep_sizes(&args).unwrap_or_else(|e| bench::fail(&format!("table9: {e}")));
    eprintln!("running Table IX over sizes {sizes:?}...");
    let tables = efficiency::run(&cfg, &sizes);
    println!("{}", tables.memory.render());
    cpgan_obs::finish(Some("results/obs.table9.jsonl"));
}
