//! Regenerates paper Figure 6 (hyper-parameter robustness).
//!
//! Usage: `cargo run --release -p bench --bin fig6 [--fast] [--scale S]`

use cpgan_eval::{pipelines::robustness, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    eprintln!("running Figure 6 grid on Citeseer...");
    let table = robustness::run(&cfg, "Citeseer");
    println!("{}", table.render());
    cpgan_eval::report::maybe_write_json(&args, &table);
    cpgan_obs::finish(Some("results/obs.fig6.jsonl"));
}
