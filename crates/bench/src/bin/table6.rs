//! Regenerates paper Table VI (CPGAN ablation study).
//!
//! Usage: `cargo run --release -p bench --bin table6 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--json FILE]`

use cpgan_eval::pipelines::ablation;

fn main() {
    let (args, cfg) = bench::table_args("table6", &["json"], 0);
    eprintln!("running Table VI at scale 1/{}...", cfg.scale);
    let table = ablation::run(&cfg, &[]);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args.get("json"), &table);
    cpgan_obs::finish(Some("results/obs.table6.jsonl"));
}
