//! The six benchmark dataset stand-ins (paper Table II).

use crate::planted::{self, PlantedConfig};
use crate::pointcloud::{self, PointCloudConfig};
use cpgan_graph::Graph;

/// Published statistics of one paper dataset (Table II) plus the synthesizer
/// parameters that reproduce them.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper's tables.
    pub name: &'static str,
    /// Paper: number of nodes.
    pub n: usize,
    /// Paper: number of edges.
    pub m: usize,
    /// Paper: number of communities.
    pub communities: usize,
    /// Paper: mean degree.
    pub mean_degree: f64,
    /// Paper: characteristic path length.
    pub cpl: f64,
    /// Paper: Gini coefficient.
    pub gini: f64,
    /// Paper: power-law exponent.
    pub pwe: f64,
    /// Synthesizer: mixing fraction for the planted model.
    mixing: f64,
    /// Synthesizer: whether this is the constructive point-cloud dataset.
    spatial: bool,
}

/// All six datasets with their Table II statistics.
pub const PAPER_DATASETS: [DatasetSpec; 6] = [
    DatasetSpec {
        name: "Citeseer",
        n: 3327,
        m: 4732,
        communities: 473,
        mean_degree: 2.8446,
        cpl: 5.9389,
        gini: 0.6769,
        pwe: 2.8757,
        mixing: 0.2,
        spatial: false,
    },
    DatasetSpec {
        name: "PubMed",
        n: 19717,
        m: 44338,
        communities: 2488,
        mean_degree: 4.4974,
        cpl: 6.3369,
        gini: 0.8844,
        pwe: 1.4743,
        mixing: 0.2,
        spatial: false,
    },
    DatasetSpec {
        name: "PPI",
        n: 2361,
        m: 6646,
        communities: 371,
        mean_degree: 5.8196,
        cpl: 4.3762,
        gini: 0.7432,
        pwe: 1.9029,
        mixing: 0.25,
        spatial: false,
    },
    DatasetSpec {
        name: "3D Point Cloud",
        n: 5037,
        m: 10886,
        communities: 1577,
        mean_degree: 4.3224,
        cpl: 32.40,
        gini: 0.8278,
        pwe: 1.9276,
        mixing: 0.0,
        spatial: true,
    },
    DatasetSpec {
        name: "Facebook",
        n: 50515,
        m: 819090,
        communities: 8010,
        mean_degree: 32.43,
        cpl: 14.41,
        gini: 0.7164,
        pwe: 1.5033,
        mixing: 0.15,
        spatial: false,
    },
    DatasetSpec {
        name: "Google",
        n: 875713,
        m: 4322051,
        communities: 9863,
        mean_degree: 9.871,
        cpl: 6.3780,
        gini: 0.6729,
        pwe: 1.8251,
        mixing: 0.15,
        spatial: false,
    },
];

/// A synthesized dataset instance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which paper dataset this stands in for.
    pub spec: DatasetSpec,
    /// The graph, at `1/scale` of the paper's size.
    pub graph: Graph,
    /// Ground-truth community label per node (from the synthesizer).
    pub labels: Vec<usize>,
    /// The divisor applied to the paper's node/edge/community counts.
    pub scale: usize,
}

/// Looks up a spec by (case-insensitive) name.
pub fn spec_by_name(name: &str) -> Option<&'static DatasetSpec> {
    PAPER_DATASETS
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

/// Synthesizes a dataset at `1/scale` of the paper's size (`scale = 1` is
/// full size). Deterministic for a given `(spec, scale, seed)`.
pub fn synthesize(spec: &DatasetSpec, scale: usize, seed: u64) -> Dataset {
    let scale = scale.max(1);
    let n = (spec.n / scale).max(40);
    let m = (spec.m / scale).max(n);
    let communities = (spec.communities / scale).clamp(2, n / 4);
    let (graph, labels) = if spec.spatial {
        let k_nn = (spec.mean_degree / 1.6).round() as usize;
        let pc = pointcloud::generate(&PointCloudConfig {
            n,
            objects: communities,
            k_nn: k_nn.max(2),
            sigma: 0.015,
            seed,
        });
        (pc.graph, pc.labels)
    } else {
        let pg = planted::generate(&PlantedConfig {
            n,
            m,
            communities,
            mixing: spec.mixing,
            // Real community structure is hierarchical (paper §I/III-A);
            // every ~3 fine communities share a macro community.
            hierarchy_factor: 3,
            pwe: spec.pwe,
            size_skew: 0.8,
            seed,
        });
        (pg.graph, pg.labels)
    };
    Dataset {
        spec: *spec,
        graph,
        labels,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpgan_community::{louvain, metrics};
    use cpgan_graph::stats;

    #[test]
    fn all_specs_synthesize_scaled() {
        for spec in &PAPER_DATASETS {
            let ds = synthesize(spec, 64, 1);
            assert!(ds.graph.n() >= 40, "{}: n {}", spec.name, ds.graph.n());
            assert_eq!(ds.labels.len(), ds.graph.n());
            assert!(ds.graph.m() > 0);
        }
    }

    #[test]
    fn citeseer_standin_matches_key_stats() {
        let spec = spec_by_name("citeseer").unwrap();
        let ds = synthesize(spec, 4, 7);
        let mean = ds.graph.mean_degree();
        // Mean degree within 30% of the paper's value.
        assert!(
            (mean - spec.mean_degree).abs() < 0.3 * spec.mean_degree,
            "mean degree {mean} vs {}",
            spec.mean_degree
        );
    }

    #[test]
    fn standins_have_detectable_communities() {
        for name in ["Citeseer", "PPI"] {
            let spec = spec_by_name(name).unwrap();
            let ds = synthesize(spec, 8, 3);
            let det = louvain::louvain(&ds.graph, 0);
            let nmi = metrics::nmi(det.labels(), &ds.labels);
            assert!(nmi > 0.4, "{name}: nmi {nmi}");
        }
    }

    #[test]
    fn pubmed_more_unequal_than_citeseer() {
        // Paper: PubMed Gini 0.88 >> Citeseer 0.68. The stand-ins must
        // preserve the ordering.
        let cs = synthesize(spec_by_name("Citeseer").unwrap(), 8, 5);
        let pm = synthesize(spec_by_name("PubMed").unwrap(), 8, 5);
        let g_cs = stats::gini::gini_coefficient(&cs.graph.degrees());
        let g_pm = stats::gini::gini_coefficient(&pm.graph.degrees());
        assert!(g_pm > g_cs, "gini ordering violated: {g_pm} vs {g_cs}");
    }

    #[test]
    fn point_cloud_high_cpl_signature() {
        let pc = synthesize(spec_by_name("3D Point Cloud").unwrap(), 8, 2);
        let cs = synthesize(spec_by_name("Citeseer").unwrap(), 8, 2);
        let cpl_pc = stats::path::characteristic_path_length(&pc.graph, 50);
        let cpl_cs = stats::path::characteristic_path_length(&cs.graph, 50);
        assert!(cpl_pc > cpl_cs, "spatial CPL {cpl_pc} <= citation {cpl_cs}");
    }

    #[test]
    fn deterministic() {
        let spec = spec_by_name("PPI").unwrap();
        let a = synthesize(spec, 8, 9);
        let b = synthesize(spec, 8, 9);
        assert_eq!(a.graph, b.graph);
    }
}
