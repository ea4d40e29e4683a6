//! One module per paper experiment, and the one measurement path the
//! tables share: [`admit`] decides whether a (model, graph) cell runs,
//! [`per_seed`] fits, generates and measures its seeds on the pool, and
//! [`Cell`] is what a table renders.

pub mod ablation;
pub mod community;
pub mod efficiency;
pub mod quality;
pub mod real;
pub mod reconstruction;
pub mod robustness;
pub mod sensitivity;

use crate::registry::{cpgan_config, deep_config, fit_model, ModelKind};
use crate::{budget, EvalConfig};
use cpgan_community::{louvain, metrics};
use cpgan_data::datasets::{self, DatasetSpec};
use cpgan_graph::{mmd, stats, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One (model, graph) cell of a paper table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell<T> {
    /// Measured locally.
    Measured(T),
    /// The paper-scale run exceeds the simulated 24 GB GPU budget.
    Oom,
    /// Within budget at paper scale, but above the local CPU-time cap.
    Skip,
}

impl<T> Cell<T> {
    /// Applies `f` to a measurement; OOM and skip cells pass through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Cell<U> {
        match self {
            Cell::Measured(t) => Cell::Measured(f(t)),
            Cell::Oom => Cell::Oom,
            Cell::Skip => Cell::Skip,
        }
    }

    /// The label an unmeasured cell prints: `OOM` or `skip`.
    pub fn label(&self) -> Option<&'static str> {
        match self {
            Cell::Measured(_) => None,
            Cell::Oom => Some("OOM"),
            Cell::Skip => Some("skip"),
        }
    }

    /// The cell's `width` columns: `measured` renders a measurement, and an
    /// unmeasured cell repeats its label.
    pub fn columns(&self, width: usize, measured: impl FnOnce(&T) -> Vec<String>) -> Vec<String> {
        if let Cell::Measured(t) = self {
            return measured(t);
        }
        vec![self.label().unwrap_or_default().to_string(); width]
    }
}

/// The admission rule every table applies, in order: OOM when the
/// paper-scale run of `kind` on `n_paper` nodes exceeds the 24 GB budget;
/// skip when `kind` is dense and the local graph's `n_local` nodes exceed
/// `cap`, or it is the sequential GraphRNN-S and they exceed `4 * cap`;
/// otherwise measured.
pub fn admit(kind: ModelKind, n_paper: usize, n_local: usize, cap: usize) -> Cell<()> {
    if budget::would_oom(kind, n_paper) {
        Cell::Oom
    } else if (kind.is_dense() && n_local > cap)
        || (kind == ModelKind::GraphRnnS && n_local > 4 * cap)
    {
        Cell::Skip
    } else {
        Cell::Measured(())
    }
}

/// Fits `kind` on `graph`, generates one graph and scores it with
/// `measure(observed, generated)`, for each of `cfg.seeds` seeds: run `i`
/// fits with seed `cfg.seed + i * stride` and generates from an RNG seeded
/// with that seed `^ salt`. The runs fan out on the persistent pool and
/// come back in seed order, so the results are the same at every thread
/// count.
pub fn per_seed<T, F>(
    kind: ModelKind,
    graph: &Arc<Graph>,
    cfg: &EvalConfig,
    (stride, salt): (u64, u64),
    measure: F,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&Graph, &Graph) -> T + Send + Sync + 'static,
{
    let runs: Vec<u64> = (0..cfg.seeds as u64)
        .map(|s| cfg.seed.wrapping_add(s * stride))
        .collect();
    let graph = Arc::clone(graph);
    let cfg = cfg.clone();
    cpgan_parallel::Pool::global().par_map_owned(runs, move |_, seed| {
        // Pool jobs run under a root span scope (see cpgan-parallel), so
        // this path is `eval.seed/...` at every thread count.
        let _span = cpgan_obs::span("eval.seed");
        let cpgan = cpgan_config(&graph, &cfg, seed);
        let model = fit_model(kind, &graph, &cpgan, &deep_config(&cfg, seed));
        let generated = model.generate(&mut StdRng::seed_from_u64(seed ^ salt));
        measure(&graph, &generated)
    })
}

/// [`admit`] with the local graph's size, then [`per_seed`] when admitted:
/// one cell of Tables III, IV, VI or the ingested-graph table.
pub fn measure_cell<T, F>(
    kind: ModelKind,
    n_paper: usize,
    graph: &Arc<Graph>,
    cfg: &EvalConfig,
    seeds: (u64, u64),
    measure: F,
) -> Cell<Vec<T>>
where
    T: Send + 'static,
    F: Fn(&Graph, &Graph) -> T + Send + Sync + 'static,
{
    let _span = cpgan_obs::span("eval.cell");
    cpgan_obs::counter_add("eval.cells", 1);
    admit(kind, n_paper, graph.n(), cfg.dense_node_cap)
        .map(|()| per_seed(kind, graph, cfg, seeds, measure))
}

/// Each dataset's stand-in, synthesized once at `cfg`'s scale and seed and
/// shared by every cell of its column.
pub fn standins<'a>(
    specs: impl IntoIterator<Item = &'a DatasetSpec>,
    cfg: &EvalConfig,
) -> Vec<(&'a DatasetSpec, Arc<Graph>)> {
    let synthesize = |s| Arc::new(datasets::synthesize(s, cfg.scale, cfg.seed).graph);
    specs.into_iter().map(|s| (s, synthesize(s))).collect()
}

/// Community-preservation scores of a generated graph against the observed
/// graph, following §IV-A: Louvain partitions of both graphs compared under
/// the node identity mapping. Returns `(NMI, ARI)`.
pub fn community_scores(observed: &Graph, generated: &Graph, seed: u64) -> (f64, f64) {
    let y = louvain::louvain(observed, seed);
    let x = louvain::louvain(generated, seed);
    (
        metrics::nmi(x.labels(), y.labels()),
        metrics::adjusted_rand_index(x.labels(), y.labels()),
    )
}

/// The Table IV/V/VI statistic differences between observed and generated
/// graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityDiff {
    /// MMD of degree distributions ("Deg.").
    pub deg: f64,
    /// MMD of clustering-coefficient distributions ("Clus.").
    pub clus: f64,
    /// |CPL difference|.
    pub cpl: f64,
    /// |Gini difference|.
    pub gini: f64,
    /// |power-law-exponent difference|.
    pub pwe: f64,
}

impl QualityDiff {
    /// The five columns in table order: Deg., Clus., CPL, GINI, PWE.
    pub fn columns(&self) -> [f64; 5] {
        [self.deg, self.clus, self.cpl, self.gini, self.pwe]
    }
}

/// Computes all five quality differences; `cpl_sources` caps the BFS seeds
/// for the path-length estimate on large graphs.
pub fn quality_diff(observed: &Graph, generated: &Graph, cpl_sources: usize) -> QualityDiff {
    let so = stats::GraphStats::compute(observed, cpl_sources);
    let sg = stats::GraphStats::compute(generated, cpl_sources);
    QualityDiff {
        deg: mmd::degree_mmd(observed, generated),
        clus: mmd::clustering_mmd(observed, generated),
        cpl: (so.cpl - sg.cpl).abs(),
        gini: (so.gini - sg.gini).abs(),
        pwe: (so.pwe - sg.pwe).abs(),
    }
}

/// Per-column means of per-seed quality differences, in table order.
pub fn mean_columns(diffs: &[QualityDiff]) -> [f64; 5] {
    std::array::from_fn(|i| {
        crate::report::mean(&diffs.iter().map(|q| q.columns()[i]).collect::<Vec<_>>())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipelines::{ablation, community, efficiency, quality, real};
    use cpgan::Variant;

    #[test]
    fn identical_graphs_score_perfectly() {
        let g =
            Graph::from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (0, 4)]).unwrap();
        let (nmi, ari) = community_scores(&g, &g, 0);
        assert!((nmi - 1.0).abs() < 1e-9);
        assert!((ari - 1.0).abs() < 1e-9);
        let q = quality_diff(&g, &g, usize::MAX);
        assert!(q.deg < 1e-9 && q.clus < 1e-9 && q.cpl < 1e-9);
    }

    #[test]
    fn different_graphs_score_worse() {
        let g =
            Graph::from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4), (0, 4)]).unwrap();
        let star = Graph::from_edges(8, (1..8u32).map(|v| (0, v))).unwrap();
        let (nmi, _) = community_scores(&g, &star, 0);
        assert!(nmi < 0.99);
        let q = quality_diff(&g, &star, usize::MAX);
        assert!(q.deg > 0.0);
    }

    fn letter<T>(cell: &Cell<T>) -> char {
        match cell {
            Cell::Measured(_) => 'M',
            Cell::Oom => 'O',
            Cell::Skip => 'S',
        }
    }

    #[test]
    fn admission_is_pinned_for_every_table_cell() {
        // One word per model in table order, one letter per dataset (Table
        // III: `PAPER_DATASETS` order; Table IV: Citeseer, 3D Point Cloud,
        // Google) or sweep size (0.1k to 100k); the same at `--fast` and
        // default scale.
        let table3 = "MMMMMM MMMMMM MMMMMM MOMMOO MMMMOO MMMMOO MMMMOO MOMMOO MMMMMM";
        let table4 = "MMM MMM MMM MMM MMM MMM MMM MMO MMO MMO MMO MMO MMM";
        let sweep = "MMMM MMMM MMMM MMMM MMMM MMMM MMMO MMMM MMMO MMMO MMMO MMMO MMMO MMOO MMMM";
        for base in [EvalConfig::fast(), EvalConfig::default()] {
            // Zero seeds: admission runs, no model is fitted.
            let cfg = EvalConfig { seeds: 0, ..base };
            let standins: Vec<_> = (datasets::PAPER_DATASETS.iter())
                .map(|s| {
                    (
                        s,
                        Arc::new(datasets::synthesize(s, cfg.scale, cfg.seed).graph),
                    )
                })
                .collect();
            let words = |models: Vec<ModelKind>, word: &dyn Fn(ModelKind) -> String| {
                models.into_iter().map(word).collect::<Vec<_>>().join(" ")
            };
            let t3 = words(ModelKind::table3(), &|k| {
                let cells = standins
                    .iter()
                    .map(|(s, g)| community::evaluate_cell(k, s.n, g, &cfg));
                cells.map(|c| letter(&c)).collect()
            });
            let t4 = words(ModelKind::table4(), &|k| {
                let used = standins
                    .iter()
                    .filter(|(s, _)| quality::TABLE4_DATASETS.contains(&s.name));
                used.map(|(s, g)| letter(&quality::evaluate_cell(k, s.n, g, &cfg)))
                    .collect()
            });
            let sizes = [100, 1_000, 10_000, 100_000];
            let sw = words(ModelKind::sweep(), &|k| {
                sizes
                    .iter()
                    .map(|&n| letter(&efficiency::admission(k, n, &cfg)))
                    .collect()
            });
            assert_eq!([t3, t4, sw], [table3, table4, sweep], "scale {}", cfg.scale);
        }
        // The local caps, on both sides of each boundary.
        for (kind, n_local, want) in [
            (ModelKind::Vgae, 600, 'M'),
            (ModelKind::Vgae, 601, 'S'),
            (ModelKind::GraphRnnS, 2_400, 'M'),
            (ModelKind::GraphRnnS, 2_401, 'S'),
            (ModelKind::CpGan(Variant::Full), 1 << 20, 'M'),
        ] {
            assert_eq!(
                letter(&admit(kind, 100, n_local, 600)),
                want,
                "{kind:?} at {n_local}"
            );
        }
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<String> {
        values
            .into_iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect()
    }

    fn measured<T>(cell: Cell<Vec<T>>) -> Vec<T> {
        match cell {
            Cell::Measured(runs) => runs,
            _ => panic!("expected a measured cell"),
        }
    }

    /// One small cell of each pooled table, two seeds each, as f64 bits in
    /// seed order.
    fn per_seed_bits() -> [Vec<String>; 4] {
        let cfg = EvalConfig {
            scale: 64,
            seeds: 2,
            deep_epochs: 5,
            cpgan_epochs: 3,
            ..EvalConfig::fast()
        };
        let standin = |name| {
            let spec = datasets::spec_by_name(name).unwrap();
            let graph = datasets::synthesize(spec, cfg.scale, cfg.seed).graph;
            (spec.n, Arc::new(graph))
        };
        let (ppi_n, ppi) = standin("PPI");
        let (cs_n, cs) = standin("Citeseer");
        let t3 = measured(community::evaluate_cell(ModelKind::Vgae, ppi_n, &ppi, &cfg));
        let t4 = measured(quality::evaluate_cell(ModelKind::Dcsbm, cs_n, &cs, &cfg));
        let cpgan_c = Variant::ConcatDecoder;
        let t6 = measured(ablation::evaluate_cell(cpgan_c, ppi_n, &ppi, &cfg));
        let tiny = Arc::new(crate::registry::tests::small_graph());
        let ingested = measured(real::evaluate_cell(ModelKind::Sbm, &tiny, &cfg));
        [
            bits(t3.iter().map(|r| r.0).chain(t3.iter().map(|r| r.1))),
            bits(t4.iter().flat_map(QualityDiff::columns)),
            bits(t6.into_iter().flatten()),
            bits(
                ingested
                    .iter()
                    .flat_map(|&(n, a, q)| [n, a].into_iter().chain(q.columns())),
            ),
        ]
    }

    #[test]
    fn per_seed_runs_are_pinned_at_one_and_two_threads() {
        // Recorded from the serial seed loops these runs replaced: Table III
        // (VGAE on PPI) NMI then ARI per seed; Table IV (DCSBM on Citeseer)
        // Deg., Clus., CPL, GINI, PWE per seed; Table VI (CPGAN-C on PPI)
        // NMI, ARI, Deg., Clus. per seed; the ingested table (SBM on a
        // 30-node graph) NMI, ARI and the five differences per seed.
        let want = [
            "402125eff76ab367 40213284cbd25f1b c004cbb1c455718a bffd923a9eedd5b4",
            "3fcf3242f3a8cf18 3f8a0a625633bf00 3fc9fd6b1f6f1bb0 3fb58df8660f46a0 3fa65e59dd57fda0 \
             3fe0f2045daaaaee 3f70ecb239ce2100 3fe1a41ffd251d40 3fb776b1de9f3480 3fb5433b28ae1670",
            "402f3e22581bd179 400a99d05403c6b9 3faf8152aee94500 3f94e7d6f645da00 40427083806ab31d \
             403b1e10e32b05f2 3f846dcb6c16ba80 3f8aa547b9367200",
            "4059000000000000 4059000000000000 3f921fafb7e907c0 3f506ce68e738000 3fa6c16c16c16c00 \
             3f883a83a83a8400 3f693ce68c117e00 4059000000000000 4059000000000000 3fa446cc8a4274a0 \
             3f7069bd723fb000 3fb1111111111110 3f7b1fb1fb1fb200 3f6fcfd59b2c4a00",
        ];
        for threads in [1, 2] {
            let got = cpgan_parallel::with_thread_count(threads, per_seed_bits);
            for (table, (got, want)) in got.iter().zip(want).enumerate() {
                assert_eq!(got.join(" "), want, "cell {table} at {threads} thread(s)");
            }
        }
    }
}
