//! Regenerates paper Table V (graph reconstruction, 80/20 split).
//!
//! Usage: `cargo run --release -p bench --bin table5 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--json FILE]`

use cpgan_eval::pipelines::reconstruction;

fn main() {
    let (args, cfg) = bench::table_args("table5", &["json"], 0);
    eprintln!("running Table V at scale 1/{}...", cfg.scale);
    let table = reconstruction::run(&cfg);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args.get("json"), &table);
    cpgan_obs::finish(Some("results/obs.table5.jsonl"));
}
