//! Regenerates paper Figure 6 (hyper-parameter robustness).
//!
//! Usage: `cargo run --release -p bench --bin fig6 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E] [--json FILE]`

use cpgan_eval::pipelines::robustness;

fn main() {
    let (args, cfg) = bench::table_args("fig6", &["json"], 0);
    eprintln!("running Figure 6 grid on Citeseer...");
    let table = robustness::run(&cfg, "Citeseer");
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(args.get("json"), &table);
    cpgan_obs::finish(Some("results/obs.fig6.jsonl"));
}
