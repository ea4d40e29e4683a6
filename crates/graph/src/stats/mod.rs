//! Graph statistics used by the paper's evaluation (Tables II, IV, V).

pub mod clustering;
pub mod degree;
pub mod gini;
pub mod path;
pub mod powerlaw;

use crate::Graph;

/// Summary of the scalar statistics the paper reports per dataset (Table II)
/// and compares per generated graph (Tables IV and V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Characteristic path length (paper "CPL").
    pub cpl: f64,
    /// Gini coefficient of the degree distribution (paper "GINI").
    pub gini: f64,
    /// Power-law exponent of the degree distribution (paper "PWE").
    pub pwe: f64,
    /// Mean local clustering coefficient.
    pub mean_clustering: f64,
}

impl GraphStats {
    /// Computes all summary statistics for `g`.
    ///
    /// `cpl_sources` bounds the number of BFS sources used for the
    /// characteristic path length (see [`path::characteristic_path_length`]);
    /// pass `usize::MAX` for the exact all-pairs value on small graphs.
    pub fn compute(g: &Graph, cpl_sources: usize) -> Self {
        let degs = g.degrees();
        GraphStats {
            n: g.n(),
            m: g.m(),
            mean_degree: g.mean_degree(),
            cpl: path::characteristic_path_length(g, cpl_sources),
            gini: gini::gini_coefficient(&degs),
            pwe: powerlaw::powerlaw_exponent(&degs),
            mean_clustering: clustering::mean_clustering(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_on_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let s = GraphStats::compute(&g, usize::MAX);
        assert_eq!(s.n, 3);
        assert_eq!(s.m, 3);
        assert!((s.mean_clustering - 1.0).abs() < 1e-12);
        assert!((s.cpl - 1.0).abs() < 1e-12);
        assert!(s.gini.abs() < 1e-12); // regular graph: perfectly equal degrees
    }
}
