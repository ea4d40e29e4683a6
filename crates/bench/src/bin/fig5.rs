//! Regenerates paper Figure 5 (parameter sensitivity).
//!
//! Usage: `cargo run --release -p bench --bin fig5 [--fast] [--scale S]`

use cpgan_eval::{pipelines::sensitivity, EvalConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = EvalConfig::from_args(&args).unwrap_or_else(|e| bench::fail(&e));
    for dataset in ["Citeseer", "PPI"] {
        eprintln!("running Figure 5 sweeps on {dataset}...");
        let table = sensitivity::run(&cfg, dataset);
        println!("{}", table.render());
    }
    cpgan_obs::finish(Some("results/obs.fig5.jsonl"));
}
