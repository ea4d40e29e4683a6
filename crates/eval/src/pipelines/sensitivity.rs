//! Figure 5: parameter sensitivity of CPGAN.
//!
//! Panels (a)/(c) sweep the spectral-embedding input dimension; panels
//! (b)/(d) sweep the number of hierarchy levels. Each point is a generated
//! graph's statistic; "closer to the real statistic is better". The paper's
//! conclusion: two hierarchy levels is best, input dimension barely matters
//! (it fixes dimension 4, levels 2 for all other experiments).

use crate::registry::{cpgan_config, deep_config, fit_model, ModelKind};
use crate::report::Table;
use crate::EvalConfig;
use cpgan::{CpGanConfig, Variant};
use cpgan_data::datasets;
use cpgan_graph::{stats, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Swept spectral dimensions (panel a/c).
pub const DIMS: [usize; 4] = [2, 4, 8, 16];
/// Swept hierarchy levels (panel b/d).
pub const LEVELS: [usize; 3] = [1, 2, 3];

/// One sweep point: generated statistics plus the observed references.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The swept value (dimension or level count).
    pub x: usize,
    /// Generated graph's Gini.
    pub gini: f64,
    /// Generated graph's CPL.
    pub cpl: f64,
    /// Louvain NMI vs observed.
    pub nmi: f64,
}

fn eval_point(g: &Graph, cfg: &EvalConfig, dim: usize, levels: usize, x: usize) -> SweepPoint {
    let cpgan = CpGanConfig {
        spectral_dim: dim,
        levels,
        ..cpgan_config(g, cfg, cfg.seed)
    };
    let model = fit_model(
        ModelKind::CpGan(Variant::Full),
        g,
        &cpgan,
        &deep_config(cfg, cfg.seed),
    );
    let out = model.generate(&mut StdRng::seed_from_u64(cfg.seed ^ 0x5e5));
    let (nmi, _) = crate::pipelines::community_scores(g, &out, cfg.seed);
    SweepPoint {
        x,
        gini: stats::gini::gini_coefficient(&out.degrees()),
        cpl: stats::path::characteristic_path_length(&out, 64),
        nmi,
    }
}

/// Runs the Figure 5 sweeps on one dataset stand-in (default: Citeseer).
/// Unknown dataset names yield an empty table rather than a panic.
pub fn run(cfg: &EvalConfig, dataset: &str) -> Table {
    let Some(spec) = datasets::spec_by_name(dataset) else {
        return Table::new(
            format!("Figure 5: unknown dataset `{dataset}`"),
            &["Sweep", "x", "GINI (real)", "CPL (real)", "NMI"],
        );
    };
    let ds = datasets::synthesize(spec, cfg.scale, cfg.seed);
    let real_gini = stats::gini::gini_coefficient(&ds.graph.degrees());
    let real_cpl = stats::path::characteristic_path_length(&ds.graph, 64);

    let mut table = Table::new(
        format!(
            "Figure 5: parameter sensitivity on {dataset} (scale 1/{})",
            cfg.scale
        ),
        &["Sweep", "x", "GINI (real)", "CPL (real)", "NMI"],
    );
    for &dim in &DIMS {
        let p = eval_point(&ds.graph, cfg, dim, 2, dim);
        table.push_row(vec![
            "spectral dim".into(),
            p.x.to_string(),
            format!("{:.3} ({real_gini:.3})", p.gini),
            format!("{:.2} ({real_cpl:.2})", p.cpl),
            format!("{:.3}", p.nmi),
        ]);
    }
    for &lv in &LEVELS {
        let p = eval_point(&ds.graph, cfg, 4, lv, lv);
        table.push_row(vec![
            "levels".into(),
            p.x.to_string(),
            format!("{:.3} ({real_gini:.3})", p.gini),
            format!("{:.2} ({real_cpl:.2})", p.cpl),
            format!("{:.3}", p.nmi),
        ]);
    }
    table.push_note("paper conclusion: levels = 2 is best; input dimension has little effect");
    table
}

/// Returns the level sweep as data points, without rendering a table.
pub fn level_sweep(cfg: &EvalConfig, dataset: &str) -> Vec<SweepPoint> {
    let Some(spec) = datasets::spec_by_name(dataset) else {
        return Vec::new();
    };
    let ds = datasets::synthesize(spec, cfg.scale, cfg.seed);
    LEVELS
        .iter()
        .map(|&lv| eval_point(&ds.graph, cfg, 4, lv, lv))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sweep_produces_finite_points() {
        let cfg = EvalConfig {
            scale: 64,
            cpgan_epochs: 6,
            ..EvalConfig::fast()
        };
        let points = level_sweep(&cfg, "PPI");
        assert_eq!(points.len(), LEVELS.len());
        for p in points {
            assert!(p.gini.is_finite());
            assert!(p.cpl.is_finite());
            assert!((0.0..=1.0).contains(&p.nmi));
        }
    }
}
