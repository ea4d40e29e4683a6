//! Ingested-graph evaluation: the Table III community-preservation
//! scores and the Table IV–VI quality differences measured on an
//! *ingested* registry dataset instead of a load-time stand-in.
//!
//! The ingested graph is real only when the entry's provenance is —
//! the vendored `citeseer-fixture`/`cora-fixture` entries are synthetic
//! surrogates generated in-repo, and the rendered table carries the
//! entry title (which names the surrogate status) so results cannot be
//! read as real-graph numbers. Ingested graphs are evaluated at full
//! scale (there is no synthesizer to shrink them), so the per-model
//! cells go through the same admission rule as the synthetic tables
//! ([`crate::pipelines::admit`]), with the graph's own size standing in
//! for the paper-scale one.

use crate::pipelines::community::{self, percent_scores};
use crate::pipelines::{mean_columns, measure_cell, quality_diff, Cell, QualityDiff};
use crate::registry::ModelKind;
use crate::report::{mean_std, with_paper, Table};
use crate::{paper, EvalConfig};
use cpgan_datasets::{
    DatasetEntry, DatasetError, LoadOptions, Source, VerifyReport, DEFAULT_CPL_SOURCES,
};
use cpgan_graph::Graph;
use std::sync::Arc;

/// BFS-source cap for CPL estimates (deterministic evenly spaced sample).
const CPL_SOURCES: usize = 64;

/// One seed's scores on the ingested graph: NMI x100, ARI x100 and the
/// quality differences.
pub type RealScores = (f64, f64, QualityDiff);

/// Evaluates one model on the observed real graph, with Table III's seed
/// schedule.
pub fn evaluate_cell(
    kind: ModelKind,
    observed: &Arc<Graph>,
    cfg: &EvalConfig,
) -> Cell<Vec<RealScores>> {
    let base = cfg.seed;
    measure_cell(
        kind,
        observed.n(),
        observed,
        cfg,
        (community::SEED_STRIDE, community::GENERATE_SALT),
        move |obs, gen| {
            let (nmi, ari) = percent_scores(obs, gen, base);
            (nmi, ari, quality_diff(obs, gen, CPL_SOURCES))
        },
    )
}

/// Runs every generator over an already-loaded graph. `title` is the
/// registry display name; paper Table III/IV reference columns appear
/// only when it matches a paper dataset name exactly (surrogate titles
/// deliberately do not, so surrogate rows carry no paper comparisons).
pub fn run_on_graph(cfg: &EvalConfig, title: &str, observed: Graph) -> Table {
    let observed = Arc::new(observed);
    let mut table = Table::new(
        format!(
            "Ingested-graph evaluation: {title} (n={}, m={}, full scale, {} seed(s))",
            observed.n(),
            observed.m(),
            cfg.seeds
        ),
        &["Model", "NMI", "ARI", "Deg.", "Clus.", "CPL", "GINI", "PWE"],
    );
    for kind in ModelKind::sweep() {
        let mut row = vec![kind.name().to_string()];
        let t3 = paper::table3_ref(title, kind.name());
        let t4 = paper::table4_ref(title, kind.name());
        row.extend(evaluate_cell(kind, &observed, cfg).columns(7, |runs| {
            let fmt = |vals: Vec<f64>, p: Option<f64>| {
                with_paper(mean_std(&vals), p.map(|p| format!("paper {p:.1}")))
            };
            let mut cols = vec![
                fmt(runs.iter().map(|r| r.0).collect(), t3.map(|r| r.0)),
                fmt(runs.iter().map(|r| r.1).collect(), t3.map(|r| r.1)),
            ];
            let means = mean_columns(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
            cols.extend((0..5).map(|i| {
                with_paper(
                    format!("{:.3}", means[i]),
                    t4.map(|p| format!("paper {:.3}", p[i])),
                )
            }));
            cols
        }));
        table.push_row(row);
    }
    table.push_note(
        "NMI/ARI x100 vs Louvain on the observed graph; Deg./Clus. are MMDs, \
         CPL/GINI/PWE absolute differences (lower better).",
    );
    table.push_note(
        "OOM = paper-scale 24 GB budget exceeded; skip = local CPU dense-node \
         cap (the graph is evaluated at full scale).",
    );
    table
}

/// Resolves `name` in the dataset registry, loads it (ingest in place,
/// or synthesize), verifies its reference stats, and evaluates every
/// generator on the loaded graph.
pub fn run(
    cfg: &EvalConfig,
    name: &str,
    opts: &LoadOptions,
) -> Result<(VerifyReport, Table), DatasetError> {
    let _span = cpgan_obs::span("eval.real.run");
    let entry = cpgan_datasets::resolve(name)?;
    let ds = cpgan_datasets::load(entry, opts)?;
    let report = cpgan_datasets::verify(entry, &ds.graph, DEFAULT_CPL_SOURCES);
    let table = run_on_graph(cfg, &ds.title, ds.graph);
    Ok((report, table))
}

/// The line to print above the verification report of `entry` loaded
/// with `opts`, when the graph is a synthetic stand-in shrunk by `--scale`:
/// its reference stats are the full-scale published ones, so `n` and `m`
/// cannot match. `None` for every other load.
pub fn scale_note(entry: &DatasetEntry, opts: &LoadOptions) -> Option<String> {
    (matches!(entry.source, Source::Synthetic { .. }) && opts.scale > 1).then(|| {
        format!(
            "note: {} is synthesized at 1/{} scale; the reference stats below are full-scale",
            entry.name, opts.scale
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::small_graph;

    #[test]
    fn measures_every_model_on_a_tiny_graph() {
        let g = small_graph();
        let cfg = EvalConfig {
            seeds: 1,
            deep_epochs: 5,
            cpgan_epochs: 3,
            ..EvalConfig::fast()
        };
        let table = run_on_graph(&cfg, "Tiny", g);
        assert_eq!(table.rows.len(), ModelKind::sweep().len());
        for row in &table.rows {
            assert_eq!(row.len(), 8, "{row:?}");
            assert_ne!(row[1], "OOM", "nothing OOMs at n=30: {row:?}");
        }
    }

    #[test]
    fn dense_models_skip_above_the_cap() {
        let g = Arc::new(small_graph());
        let cfg = EvalConfig {
            dense_node_cap: 8,
            ..EvalConfig::fast()
        };
        assert_eq!(evaluate_cell(ModelKind::Vgae, &g, &cfg), Cell::Skip);
    }

    #[test]
    fn synthetic_registry_entries_evaluate_through_run() {
        let cfg = EvalConfig {
            scale: 256,
            seeds: 1,
            deep_epochs: 3,
            cpgan_epochs: 3,
            ..EvalConfig::fast()
        };
        let opts = LoadOptions {
            scale: 256,
            ..LoadOptions::default()
        };
        let (report, table) = run(&cfg, "ppi-synthetic", &opts).unwrap();
        // Scaled-down stand-ins do not match full-scale published stats;
        // the report still carries every check.
        assert!(!report.checks.is_empty());
        assert_eq!(table.rows.len(), ModelKind::sweep().len());
    }

    #[test]
    fn only_a_scaled_synthetic_load_gets_the_scale_note() {
        let at = |scale| LoadOptions {
            scale,
            ..LoadOptions::default()
        };
        let synthetic = cpgan_datasets::resolve("ppi-synthetic").unwrap();
        let fixture = cpgan_datasets::resolve("citeseer-fixture").unwrap();
        let note = scale_note(synthetic, &at(48)).unwrap();
        assert!(
            note.contains("ppi-synthetic") && note.contains("1/48"),
            "{note}"
        );
        assert_eq!(scale_note(synthetic, &at(1)), None);
        assert_eq!(scale_note(synthetic, &at(0)), None, "0 loads at full scale");
        assert_eq!(scale_note(fixture, &at(48)), None, "fixtures never scale");
    }
}
