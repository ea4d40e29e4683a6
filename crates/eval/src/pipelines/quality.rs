//! Table IV: generative distribution distance (Deg/Clus/CPL/GINI/PWE).

use crate::pipelines::{mean_columns, measure_cell, quality_diff, standins, Cell, QualityDiff};
use crate::registry::ModelKind;
use crate::report::{with_paper, Table};
use crate::{paper, EvalConfig};
use cpgan_data::datasets;
use cpgan_graph::Graph;
use std::sync::Arc;

/// BFS-source cap for CPL estimates (deterministic evenly spaced sample).
const CPL_SOURCES: usize = 64;

/// Table IV's distance between consecutive seeds of a cell.
pub const SEED_STRIDE: u64 = 104_729;
/// Table IV's salt, XORed into each seed to seed its generate RNG.
pub const GENERATE_SALT: u64 = 0x4444;

/// Table IV's dataset columns.
pub const TABLE4_DATASETS: [&str; 3] = ["Citeseer", "3D Point Cloud", "Google"];

/// One (model, stand-in) cell: the quality differences per seed. `n_paper`
/// is the dataset's paper-scale node count, `graph` its stand-in.
pub fn evaluate_cell(
    kind: ModelKind,
    n_paper: usize,
    graph: &Arc<Graph>,
    cfg: &EvalConfig,
) -> Cell<Vec<QualityDiff>> {
    measure_cell(
        kind,
        n_paper,
        graph,
        cfg,
        (SEED_STRIDE, GENERATE_SALT),
        |obs, gen| quality_diff(obs, gen, CPL_SOURCES),
    )
}

/// Runs the full Table IV experiment.
pub fn run(cfg: &EvalConfig, dataset_filter: &[&str]) -> Table {
    let names = TABLE4_DATASETS.iter();
    let used = names.filter(|d| dataset_filter.is_empty() || dataset_filter.contains(d));
    let standins = standins(used.filter_map(|d| datasets::spec_by_name(d)), cfg);
    let mut table = Table::new(
        format!(
            "Table IV: generation quality, |difference| vs observed (scale 1/{}, lower better)",
            cfg.scale
        ),
        &["Model"],
    );
    for (spec, _) in &standins {
        for metric in ["Deg.", "Clus.", "CPL", "GINI", "PWE"] {
            table.headers.push(format!("{} {metric}", spec.name));
        }
    }
    for kind in ModelKind::table4() {
        let mut row = vec![kind.name().to_string()];
        for (spec, graph) in &standins {
            let paper_row = paper::table4_ref(spec.name, kind.name());
            let cell = evaluate_cell(kind, spec.n, graph, cfg);
            row.extend(cell.columns(5, |diffs| {
                let means = mean_columns(diffs);
                (0..5)
                    .map(|i| {
                        with_paper(
                            format!("{:.3}", means[i]),
                            paper_row.map(|p| format!("{:.3}", p[i])),
                        )
                    })
                    .collect()
            }));
        }
        table.push_row(row);
    }
    table.push_note("parenthesized values are the paper's Table IV entries");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_model_measured_on_citeseer() {
        let cfg = EvalConfig {
            scale: 64,
            seeds: 1,
            ..EvalConfig::fast()
        };
        let spec = datasets::spec_by_name("Citeseer").unwrap();
        let graph = Arc::new(datasets::synthesize(spec, cfg.scale, cfg.seed).graph);
        match evaluate_cell(ModelKind::Bter, spec.n, &graph, &cfg) {
            Cell::Measured(diffs) => {
                assert_eq!(diffs.len(), 1);
                assert!(diffs[0].deg.is_finite() && diffs[0].deg >= 0.0);
                assert!(diffs[0].cpl.is_finite());
            }
            other => panic!("expected measurement, got {other:?}"),
        }
    }

    #[test]
    fn google_dense_models_oom() {
        let cfg = EvalConfig::fast();
        let google = datasets::spec_by_name("Google").unwrap();
        // The paper-scale size decides before any local graph is read.
        let tiny = Arc::new(Graph::from_edges(2, [(0, 1)]).unwrap());
        for kind in [ModelKind::Vgae, ModelKind::GraphRnnS] {
            assert_eq!(evaluate_cell(kind, google.n, &tiny, &cfg), Cell::Oom);
        }
    }
}
