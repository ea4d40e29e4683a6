//! Table III: community-structure preservation (NMI / ARI).

use crate::pipelines::{community_scores, measure_cell, standins, Cell};
use crate::registry::ModelKind;
use crate::report::{mean_std, with_paper, Table};
use crate::{paper, EvalConfig};
use cpgan_data::datasets;
use cpgan_graph::Graph;
use std::sync::Arc;

/// Table III's distance between consecutive seeds of a cell (shared by the
/// ingested-graph table).
pub const SEED_STRIDE: u64 = 7919;
/// Table III's salt, XORed into each seed to seed its generate RNG (shared
/// by the ingested-graph table).
pub const GENERATE_SALT: u64 = 0x9999;

/// Runs the Table III experiment for the given dataset names (empty = all
/// six).
pub fn run(cfg: &EvalConfig, dataset_filter: &[&str]) -> Table {
    let mut table = Table::new(
        format!(
            "Table III: community preservation, NMI/ARI x100 (scale 1/{}, {} seed(s))",
            cfg.scale, cfg.seeds
        ),
        &["Model"],
    );
    let specs = datasets::PAPER_DATASETS.iter();
    let standins = standins(
        specs.filter(|s| dataset_filter.is_empty() || dataset_filter.contains(&s.name)),
        cfg,
    );
    for (spec, _) in &standins {
        table.headers.push(format!("{} NMI", spec.name));
        table.headers.push(format!("{} ARI", spec.name));
    }
    for kind in ModelKind::table3() {
        let mut row = vec![kind.name().to_string()];
        for (spec, graph) in &standins {
            let cell = evaluate_cell(kind, spec.n, graph, cfg);
            let paper_ref = paper::table3_ref(spec.name, kind.name());
            row.extend(match (cell.label(), paper_ref) {
                (Some(label), None) => vec![format!("{label} (paper OOM)"); 2],
                _ => cell.columns(2, |runs| {
                    let fmt = |vals: Vec<f64>, p: Option<f64>| {
                        with_paper(mean_std(&vals), p.map(|p| format!("paper {p:.1}")))
                    };
                    vec![
                        fmt(runs.iter().map(|r| r.0).collect(), paper_ref.map(|r| r.0)),
                        fmt(runs.iter().map(|r| r.1).collect(), paper_ref.map(|r| r.1)),
                    ]
                }),
            });
        }
        table.push_row(row);
    }
    table.push_note(
        "OOM = the paper-scale run exceeds the simulated 24 GB GPU budget \
         (see cpgan_eval::budget); measured values are on the scaled stand-ins.",
    );
    table
}

/// `(NMI, ARI)` x100 of `generated` against `observed`, with Louvain
/// seeded by the run's base `seed`.
pub fn percent_scores(observed: &Graph, generated: &Graph, seed: u64) -> (f64, f64) {
    let (nmi, ari) = community_scores(observed, generated, seed);
    (100.0 * nmi, 100.0 * ari)
}

/// One (model, stand-in) cell: `(NMI, ARI)` x100 per seed. `n_paper` is the
/// dataset's paper-scale node count, `graph` its stand-in.
pub fn evaluate_cell(
    kind: ModelKind,
    n_paper: usize,
    graph: &Arc<Graph>,
    cfg: &EvalConfig,
) -> Cell<Vec<(f64, f64)>> {
    let base = cfg.seed;
    measure_cell(
        kind,
        n_paper,
        graph,
        cfg,
        (SEED_STRIDE, GENERATE_SALT),
        move |obs, gen| percent_scores(obs, gen, base),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standin(name: &str, cfg: &EvalConfig) -> (usize, Arc<Graph>) {
        let spec = datasets::spec_by_name(name).unwrap();
        let graph = datasets::synthesize(spec, cfg.scale, cfg.seed).graph;
        (spec.n, Arc::new(graph))
    }

    #[test]
    fn oom_cells_match_paper() {
        let cfg = EvalConfig::fast();
        let (n, pubmed) = standin("PubMed", &cfg);
        assert_eq!(evaluate_cell(ModelKind::Mmsb, n, &pubmed, &cfg), Cell::Oom);
        assert_eq!(
            evaluate_cell(ModelKind::NetGan, n, &pubmed, &cfg),
            Cell::Oom
        );
        // Google's paper size alone decides: the PubMed stand-in suffices.
        assert_eq!(
            evaluate_cell(ModelKind::Vgae, 875_713, &pubmed, &cfg),
            Cell::Oom
        );
    }

    #[test]
    fn small_dataset_produces_measurement() {
        let cfg = EvalConfig {
            scale: 64,
            seeds: 1,
            deep_epochs: 5,
            cpgan_epochs: 3,
            ..EvalConfig::fast()
        };
        let (n, ppi) = standin("PPI", &cfg);
        match evaluate_cell(ModelKind::Sbm, n, &ppi, &cfg) {
            Cell::Measured(runs) => {
                assert_eq!(runs.len(), 1);
                assert!((0.0..=100.0).contains(&runs[0].0));
                assert!((-100.0..=100.0).contains(&runs[0].1));
            }
            other => panic!("expected measurement, got {other:?}"),
        }
    }
}
