//! Tables VII–IX: generation time, training time, and peak memory across
//! graph sizes 0.1k/1k/10k/100k.
//!
//! Local measurements are CPU wall-clock; OOM rows come from the paper-scale
//! 24 GB budget ([`crate::budget`]). Deep-model training time is measured
//! over a few epochs and extrapolated linearly to the configured epoch
//! budget (epoch cost is constant per model/size), which the tables mark
//! explicitly.

use crate::pipelines::{admit, Cell};
use crate::registry::{cpgan_config, deep_config, fit_model, ModelKind};
use crate::report::{with_paper, Table};
use crate::{paper, EvalConfig};
use cpgan_data::sweep;
use cpgan_nn::memory;
use cpgan_obs::Stopwatch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One model's measurements at one size.
#[derive(Debug, Clone, Copy)]
pub struct SweepMeasurement {
    /// Seconds per generated graph (Table VII).
    pub generation_secs: f64,
    /// Minutes for the full training process (Table VIII; extrapolated for
    /// deep models).
    pub training_mins: f64,
    /// Peak tensor memory during training, MiB (Table IX).
    pub peak_mib: f64,
}

/// Epochs actually run when measuring deep-model training throughput.
const MEASURE_EPOCHS: usize = 2;

/// Whether `kind` runs at sweep size `n`. The local cap is
/// `max(10_000, dense_node_cap)`: dense models run up to 10k nodes, and
/// GraphRNN-S, whose 4x cap lies past 10k, is already OOM at 100k.
pub fn admission(kind: ModelKind, n: usize, cfg: &EvalConfig) -> Cell<()> {
    admit(kind, n, n, cfg.dense_node_cap.max(10_000))
}

/// Measures one (model, size) sweep cell, serially: it times the run and
/// reads the peak tensor memory, which concurrent work would corrupt.
pub fn evaluate_cell(kind: ModelKind, n: usize, cfg: &EvalConfig) -> Cell<SweepMeasurement> {
    let _span = cpgan_obs::span("eval.efficiency.cell");
    cpgan_obs::counter_add("eval.efficiency.cells", 1);
    admission(kind, n, cfg).map(|()| measure(kind, n, cfg))
}

fn measure(kind: ModelKind, n: usize, cfg: &EvalConfig) -> SweepMeasurement {
    let pg = sweep::sweep_graph(n, cfg.seed);
    // Training: run a reduced-epoch fit for deep models and extrapolate.
    let (measure_cfg, extrapolation) = if kind.is_learning_based() {
        let reduced = EvalConfig {
            deep_epochs: MEASURE_EPOCHS,
            cpgan_epochs: MEASURE_EPOCHS.max(cfg.cpgan_epochs.min(5)),
            ..cfg.clone()
        };
        let target = match kind {
            ModelKind::CpGan(_) => cfg.cpgan_epochs as f64 / reduced.cpgan_epochs as f64,
            _ => cfg.deep_epochs as f64 / reduced.deep_epochs as f64,
        };
        (reduced, target)
    } else {
        (cfg.clone(), 1.0)
    };
    let cpgan = cpgan_config(&pg.graph, &measure_cfg, cfg.seed);
    let deep = deep_config(&measure_cfg, cfg.seed);
    memory::reset_peak();
    let live_before = memory::live_bytes();
    let t0 = Stopwatch::start();
    let model = fit_model(kind, &pg.graph, &cpgan, &deep);
    let train_secs = t0.elapsed_secs() * extrapolation;
    let peak = memory::peak_bytes().saturating_sub(live_before);

    // Generation: one timed sample.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1234);
    let t1 = Stopwatch::start();
    let out = model.generate(&mut rng);
    let generation_secs = t1.elapsed_secs();
    debug_assert_eq!(out.n(), n);

    SweepMeasurement {
        generation_secs,
        training_mins: train_secs / 60.0,
        peak_mib: peak as f64 / (1024.0 * 1024.0),
    }
}

/// Runs the sweep once and renders all three tables.
pub struct SweepTables {
    /// Table VII.
    pub generation: Table,
    /// Table VIII.
    pub training: Table,
    /// Table IX.
    pub memory: Table,
}

/// Runs Tables VII–IX over `sizes` (defaults to the paper's four sizes).
pub fn run(cfg: &EvalConfig, sizes: &[usize]) -> SweepTables {
    let headers: Vec<String> = std::iter::once("Model".to_string())
        .chain(sizes.iter().map(|n| format!("{}k", *n as f64 / 1000.0)))
        .collect();
    let mk_table = |title: &str| {
        let mut t = Table::new(title, &[]);
        t.headers = headers.clone();
        t
    };
    let mut generation = mk_table("Table VII: seconds per graph generation");
    let mut training = mk_table("Table VIII: training time (minutes; deep models extrapolated)");
    let mut mem_table = mk_table("Table IX: peak tensor memory during training (MiB)");

    // Map sweep sizes onto paper column indices for the references.
    let size_idx = |n: usize| -> Option<usize> { sweep::SWEEP_SIZES.iter().position(|&s| s == n) };

    for kind in ModelKind::sweep() {
        let mut g_row = vec![kind.name().to_string()];
        let mut t_row = vec![kind.name().to_string()];
        let mut m_row = vec![kind.name().to_string()];
        for &n in sizes {
            let cell = evaluate_cell(kind, n, cfg);
            let idx = size_idx(n);
            let fmt = |measured: f64, table: &[paper::SweepRow]| {
                let p = idx.and_then(|i| paper::sweep_ref(table, kind.name(), i));
                with_paper(format!("{measured:.3}"), p)
            };
            let cols = |table, value: fn(&SweepMeasurement) -> f64| {
                cell.columns(1, |m| vec![fmt(value(m), table)])
            };
            g_row.extend(cols(paper::TABLE7, |m| m.generation_secs));
            t_row.extend(cols(paper::TABLE8, |m| m.training_mins));
            m_row.extend(cols(paper::TABLE9, |m| m.peak_mib));
        }
        generation.push_row(g_row);
        training.push_row(t_row);
        mem_table.push_row(m_row);
    }
    for t in [&mut generation, &mut training, &mut mem_table] {
        t.push_note("parenthesized values are the paper's GPU measurements; OOM = paper-scale 24 GB budget exceeded");
    }
    SweepTables {
        generation,
        training,
        memory: mem_table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpgan::Variant;

    #[test]
    fn traditional_cell_measured_quickly() {
        let cfg = EvalConfig::fast();
        match evaluate_cell(ModelKind::Er, 100, &cfg) {
            Cell::Measured(m) => {
                assert!(m.generation_secs >= 0.0);
                assert!(m.training_mins >= 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oom_pattern_at_100k() {
        let cfg = EvalConfig::fast();
        assert!(matches!(
            evaluate_cell(ModelKind::Vgae, 100_000, &cfg),
            Cell::Oom
        ));
        assert!(matches!(
            evaluate_cell(ModelKind::CondGenR, 10_000, &cfg),
            Cell::Oom
        ));
        assert!(matches!(
            evaluate_cell(ModelKind::GraphRnnS, 100_000, &cfg),
            Cell::Oom
        ));
    }

    #[test]
    fn cpgan_cell_records_memory() {
        let cfg = EvalConfig {
            cpgan_epochs: 3,
            ..EvalConfig::fast()
        };
        match evaluate_cell(ModelKind::CpGan(Variant::Full), 100, &cfg) {
            Cell::Measured(m) => assert!(m.peak_mib > 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
