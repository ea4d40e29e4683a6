//! Regenerates paper Table IV (generative distribution distance).
//!
//! Usage: `cargo run --release -p bench --bin table4 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--json FILE]`

use cpgan_eval::pipelines::quality;

fn main() {
    let (args, cfg) = bench::table_args("table4", &["json"], 0);
    eprintln!("running Table IV at scale 1/{}...", cfg.scale);
    let table = quality::run(&cfg, &[]);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args.get("json"), &table);
    cpgan_obs::finish(Some("results/obs.table4.jsonl"));
}
