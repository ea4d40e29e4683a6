//! Figure 6: model robustness across hyper-parameters.
//!
//! Left panel: spread of generation quality (degree MMD) across a
//! hidden-dimension x learning-rate grid for CPGAN vs the architecturally
//! comparable baselines — the paper's claim is that CPGAN's spread is the
//! smallest. Right panel: CPGAN across learning-rate / decay settings.

use crate::registry::{cpgan_config, deep_config, fit_model, ModelKind};
use crate::report::Table;
use crate::EvalConfig;
use cpgan::{CpGanConfig, Variant};
use cpgan_data::datasets;
use cpgan_deep::DeepConfig;
use cpgan_graph::{mmd, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hidden sizes of the left-panel grid.
pub const HIDDEN_GRID: [usize; 3] = [8, 16, 32];
/// Learning rates of the left-panel grid.
pub const LR_GRID: [f32; 2] = [1e-3, 5e-3];

/// Robustness summary of one model: degree-MMD values over the grid.
#[derive(Debug, Clone)]
pub struct Spread {
    /// Model label.
    pub model: &'static str,
    /// One value per grid point.
    pub values: Vec<f64>,
}

impl Spread {
    /// Max - min over the grid (the paper's robustness criterion).
    pub fn range(&self) -> f64 {
        let max = self.values.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.values.iter().cloned().fold(f64::MAX, f64::min);
        (max - min).max(0.0)
    }

    /// Mean over the grid.
    pub fn mean(&self) -> f64 {
        crate::report::mean(&self.values)
    }
}

/// Evaluates one model over the hidden x lr grid.
pub fn grid_spread(kind: ModelKind, g: &Graph, cfg: &EvalConfig) -> Spread {
    let mut values = Vec::new();
    for &hidden in &HIDDEN_GRID {
        for &lr in &LR_GRID {
            let latent = (hidden / 2).max(4);
            let cpgan = CpGanConfig {
                hidden_dim: hidden,
                latent_dim: latent,
                learning_rate: lr,
                ..cpgan_config(g, cfg, cfg.seed)
            };
            let deep = DeepConfig {
                hidden_dim: hidden,
                latent_dim: latent,
                learning_rate: lr,
                ..deep_config(cfg, cfg.seed)
            };
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (hidden as u64) ^ lr.to_bits() as u64);
            let generated = fit_model(kind, g, &cpgan, &deep).generate(&mut rng);
            values.push(mmd::degree_mmd(g, &generated));
        }
    }
    Spread {
        model: kind.name(),
        values,
    }
}

/// CPGAN's right-panel sweep: learning rate x decay.
pub fn cpgan_training_grid(g: &Graph, cfg: &EvalConfig) -> Vec<(f32, f32, f64)> {
    let deep = deep_config(cfg, cfg.seed);
    let mut out = Vec::new();
    for &lr in &[1e-4f32, 1e-3, 5e-3] {
        for &decay in &[0.1f32, 0.3, 1.0] {
            let cpgan = CpGanConfig {
                learning_rate: lr,
                lr_decay: decay,
                // Make the decay schedule actually engage within the
                // configured epoch budget (the paper decays every 400 of
                // its epochs).
                lr_decay_every: (cfg.cpgan_epochs / 2).max(1),
                ..cpgan_config(g, cfg, cfg.seed)
            };
            let model = fit_model(ModelKind::CpGan(Variant::Full), g, &cpgan, &deep);
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ lr.to_bits() as u64);
            let generated = model.generate(&mut rng);
            out.push((lr, decay, mmd::degree_mmd(g, &generated)));
        }
    }
    out
}

/// Runs the full Figure 6 experiment. Unknown dataset names yield an
/// empty table rather than a panic.
pub fn run(cfg: &EvalConfig, dataset: &str) -> Table {
    let Some(spec) = datasets::spec_by_name(dataset) else {
        return Table::new(
            format!("Figure 6: unknown dataset `{dataset}`"),
            &["Model", "mean", "min", "max", "range"],
        );
    };
    let ds = datasets::synthesize(spec, cfg.scale, cfg.seed);
    let mut table = Table::new(
        format!(
            "Figure 6: hyper-parameter robustness on {dataset} (degree MMD; lower/tighter better)"
        ),
        &["Model", "mean", "min", "max", "range"],
    );
    for kind in [
        ModelKind::Vgae,
        ModelKind::Graphite,
        ModelKind::CondGenR,
        ModelKind::CpGan(Variant::Full),
    ] {
        let s = grid_spread(kind, &ds.graph, cfg);
        let min = s.values.iter().cloned().fold(f64::MAX, f64::min);
        let max = s.values.iter().cloned().fold(f64::MIN, f64::max);
        table.push_row(vec![
            s.model.to_string(),
            format!("{:.4}", s.mean()),
            format!("{min:.4}"),
            format!("{max:.4}"),
            format!("{:.4}", s.range()),
        ]);
    }
    table.push_row(vec!["--- right panel: CPGAN lr x decay ---".into()]);
    for (lr, decay, v) in cpgan_training_grid(&ds.graph, cfg) {
        table.push_row(vec![
            format!("CPGAN lr={lr} decay={decay}"),
            format!("{v:.4}"),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    table.push_note(
        "paper conclusion: CPGAN's spread (range) is the smallest among compared models",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_statistics() {
        let s = Spread {
            model: "X",
            values: vec![0.1, 0.4, 0.2],
        };
        assert!((s.range() - 0.3).abs() < 1e-12);
        assert!((s.mean() - 0.2333).abs() < 1e-3);
    }
}
