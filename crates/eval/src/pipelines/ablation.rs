//! Table VI: ablation of CPGAN's sub-modules.

use crate::pipelines::community::percent_scores;
use crate::pipelines::{measure_cell, quality_diff, standins, Cell};
use crate::registry::ModelKind;
use crate::report::{mean, with_paper, Table};
use crate::{paper, EvalConfig};
use cpgan::Variant;
use cpgan_data::datasets;
use cpgan_graph::Graph;
use std::sync::Arc;

/// Table VI's distance between consecutive seeds of a cell.
pub const SEED_STRIDE: u64 = 7919;
/// Table VI's salt, XORed into each seed to seed its generate RNG.
pub const GENERATE_SALT: u64 = 0x6666;

/// Table VI's datasets.
pub const TABLE6_DATASETS: [&str; 3] = ["PubMed", "PPI", "Facebook"];

/// The ablation variants in paper row order.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant::ConcatDecoder,
        Variant::NoVariational,
        Variant::NoHierarchy,
        Variant::Full,
    ]
}

/// One ablation run's `[NMI x100, ARI x100, Deg. MMD, Clus. MMD]`.
pub type AblationScores = [f64; 4];

/// One (variant, stand-in) cell: the scores per seed. `n_paper` is the
/// dataset's paper-scale node count, `graph` its stand-in.
pub fn evaluate_cell(
    variant: Variant,
    n_paper: usize,
    graph: &Arc<Graph>,
    cfg: &EvalConfig,
) -> Cell<Vec<AblationScores>> {
    let base = cfg.seed;
    let kind = ModelKind::CpGan(variant);
    measure_cell(
        kind,
        n_paper,
        graph,
        cfg,
        (SEED_STRIDE, GENERATE_SALT),
        move |obs, gen| {
            let (nmi, ari) = percent_scores(obs, gen, base);
            let q = quality_diff(obs, gen, 64);
            [nmi, ari, q.deg, q.clus]
        },
    )
}

/// Runs the full Table VI experiment.
pub fn run(cfg: &EvalConfig, dataset_filter: &[&str]) -> Table {
    let names = TABLE6_DATASETS.iter();
    let used = names.filter(|d| dataset_filter.is_empty() || dataset_filter.contains(d));
    let standins = standins(used.filter_map(|d| datasets::spec_by_name(d)), cfg);
    let mut table = Table::new(
        format!("Table VI: CPGAN ablation (scale 1/{})", cfg.scale),
        &["Variant"],
    );
    for (spec, _) in &standins {
        for metric in ["NMI", "ARI", "Deg.", "Clus."] {
            table.headers.push(format!("{} {metric}", spec.name));
        }
    }
    for variant in variants() {
        let mut row = vec![variant.label().to_string()];
        for (spec, graph) in &standins {
            let paper_row = paper::table6_ref(spec.name, variant.label());
            let cell = evaluate_cell(variant, spec.n, graph, cfg);
            row.extend(cell.columns(4, |runs| {
                (0..4)
                    .map(|i| {
                        let v = mean(&runs.iter().map(|r| r[i]).collect::<Vec<_>>());
                        with_paper(format!("{v:.3}"), paper_row.map(|p| format!("{:.3}", p[i])))
                    })
                    .collect()
            }));
        }
        table.push_row(row);
    }
    table.push_note("expected ordering: CPGAN > CPGAN-C > CPGAN-noV > CPGAN-noH on NMI/ARI");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run_on_small_ppi() {
        let cfg = EvalConfig {
            scale: 64,
            cpgan_epochs: 8,
            ..EvalConfig::fast()
        };
        let spec = datasets::spec_by_name("PPI").unwrap();
        let graph = Arc::new(datasets::synthesize(spec, cfg.scale, cfg.seed).graph);
        for v in variants() {
            let Cell::Measured(runs) = evaluate_cell(v, spec.n, &graph, &cfg) else {
                panic!("{v:?} must be measured on PPI");
            };
            assert!(runs[0][0].is_finite());
            assert!(runs[0][2].is_finite() && runs[0][2] >= 0.0);
        }
    }
}
