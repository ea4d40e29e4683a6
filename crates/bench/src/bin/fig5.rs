//! Regenerates paper Figure 5 (parameter sensitivity).
//!
//! Usage: `cargo run --release -p bench --bin fig5 -- [--fast] [--scale S]
//!     [--seeds K] [--deep-epochs E] [--cpgan-epochs E]`

use cpgan_eval::pipelines::sensitivity;

fn main() {
    let (_, cfg) = bench::table_args("fig5", &[], 0);
    for dataset in ["Citeseer", "PPI"] {
        eprintln!("running Figure 5 sweeps on {dataset}...");
        let table = sensitivity::run(&cfg, dataset);
        println!("{}", table.render());
    }
    cpgan_obs::finish(Some("results/obs.fig5.jsonl"));
}
