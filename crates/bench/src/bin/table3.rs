//! Regenerates paper Table III (community preservation, NMI/ARI).
//!
//! Usage: `cargo run --release -p bench --bin table3 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--json FILE]`

use cpgan_eval::pipelines::community;

fn main() {
    let (args, cfg) = bench::table_args("table3", &["json"], 0);
    eprintln!(
        "running Table III at scale 1/{} with {} seed(s)...",
        cfg.scale, cfg.seeds
    );
    let table = community::run(&cfg, &[]);
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args.get("json"), &table);
    cpgan_obs::finish(Some("results/obs.table3.jsonl"));
}
